"""Tape and operator tests.

Gradient rules are verified two ways: small hand-derived cases with exact
expected arrays, and central finite differences (the independent oracle)
via run_op_checks and grad_check.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tracefill.autodiff import (
    NonFiniteError,
    ShapeError,
    Tape,
    grad_check,
    registered_ops,
    run_op_checks,
)

EXPECTED_OPS = {
    "add",
    "mul",
    "matmul",
    "scale",
    "tanh",
    "sigmoid",
    "add_bias",
    "concat_rows",
    "concat_cols",
    "slice_cols",
    "slice_rows",
    "sum",
    "mean_sq_diff",
}

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def grads_of(build):
    """Run build(tape) -> (loss, leaves...) and return leaf gradients."""
    tape = Tape()
    loss, *leaves = build(tape)
    grads = tape.backward(loss)
    return [grads[leaf] for leaf in leaves]


class TestOperatorSet:
    def test_registered_ops_are_the_closed_set(self):
        assert set(registered_ops()) == EXPECTED_OPS

    def test_finite_difference_sweep_covers_every_op(self):
        worst = run_op_checks(seed=0, samples_per_op=3)
        assert set(worst) == EXPECTED_OPS
        for op, err in worst.items():
            assert err < 1e-5, f"{op} gradient mismatch {err:.3e}"


class TestHandDerivedGradients:
    def test_matmul_through_sum(self):
        # loss = sum(x @ w); dloss/dx = ones @ w.T, exact in float64
        def build(tape):
            x = tape.leaf([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
            w = tape.leaf([[0.5, -1.0], [0.25, 1.5]], requires_grad=True)
            return tape.sum(tape.matmul(x, w)), x, w

        gx, gw = grads_of(build)
        np.testing.assert_array_equal(gx, [[-0.5, 1.75], [-0.5, 1.75]])
        # dloss/dw = x.T @ ones
        np.testing.assert_array_equal(gw, [[4.0, 4.0], [6.0, 6.0]])

    def test_mul_gradients_swap_operands(self):
        def build(tape):
            a = tape.leaf([[1.5, -2.0]], requires_grad=True)
            b = tape.leaf([[0.25, 4.0]], requires_grad=True)
            return tape.sum(tape.mul(a, b)), a, b

        ga, gb = grads_of(build)
        np.testing.assert_array_equal(ga, [[0.25, 4.0]])
        np.testing.assert_array_equal(gb, [[1.5, -2.0]])

    def test_scale_multiplies_upstream_gradient(self):
        def build(tape):
            x = tape.leaf([2.0, 3.0], requires_grad=True)
            return tape.sum(tape.scale(x, 1.75)), x

        (gx,) = grads_of(build)
        np.testing.assert_array_equal(gx, [1.75, 1.75])

    def test_sigmoid_at_zero(self):
        tape = Tape()
        x = tape.leaf([0.0], requires_grad=True)
        y = tape.sigmoid(x)
        assert y.value[0] == 0.5
        grads = tape.backward(tape.sum(y))
        np.testing.assert_array_equal(grads[x], [0.25])

    def test_sigmoid_saturates_without_overflow(self):
        tape = Tape()
        x = tape.leaf([-800.0, 800.0], requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = tape.sigmoid(x)
            grads = tape.backward(tape.sum(y))
        assert np.isfinite(y.value).all()
        assert ((y.value >= 0.0) & (y.value <= 1.0)).all()
        np.testing.assert_array_equal(y.value, [0.0, 1.0])
        np.testing.assert_array_equal(grads[x], [0.0, 0.0])

    def test_sigmoid_matches_logistic_reference(self):
        xs = np.linspace(-30.0, 30.0, 6001)
        tape = Tape()
        y = tape.sigmoid(tape.leaf(xs))
        reference = 1.0 / (1.0 + np.exp(-xs))
        assert np.abs(y.value - reference).max() <= 1e-15

    def test_tanh_at_zero_has_unit_slope(self):
        tape = Tape()
        x = tape.leaf([0.0], requires_grad=True)
        grads = tape.backward(tape.sum(tape.tanh(x)))
        np.testing.assert_array_equal(grads[x], [1.0])

    def test_mean_sq_diff_value_and_gradient(self):
        def build(tape):
            a = tape.leaf([[1.0, 3.0]], requires_grad=True)
            b = tape.leaf([[0.0, 1.0]], requires_grad=True)
            return tape.mean_sq_diff(a, b), a, b

        tape = Tape()
        loss, a, b = build(tape)
        assert loss.item() == 2.5
        ga, gb = grads_of(build)
        np.testing.assert_array_equal(ga, [[1.0, 2.0]])
        np.testing.assert_array_equal(gb, [[-1.0, -2.0]])

    def test_add_bias_gradient_sums_over_rows(self):
        def build(tape):
            x = tape.leaf([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
            bias = tape.leaf([10.0, 20.0], requires_grad=True)
            return tape.sum(tape.add_bias(x, bias)), x, bias

        gx, gbias = grads_of(build)
        np.testing.assert_array_equal(gx, np.ones((2, 2)))
        np.testing.assert_array_equal(gbias, [2.0, 2.0])

    def test_slice_rows_gradient_is_zero_outside_range(self):
        def build(tape):
            x = tape.leaf(np.arange(10.0).reshape(5, 2), requires_grad=True)
            return tape.sum(tape.slice_rows(x, 1, 4)), x

        (gx,) = grads_of(build)
        expected = np.zeros((5, 2))
        expected[1:4] = 1.0
        np.testing.assert_array_equal(gx, expected)

    def test_slice_cols_gradient_scatters_to_chosen_columns(self):
        def build(tape):
            x = tape.leaf(np.ones((2, 4)), requires_grad=True)
            return tape.sum(tape.slice_cols(x, (0, 3))), x

        (gx,) = grads_of(build)
        np.testing.assert_array_equal(gx, [[1.0, 0.0, 0.0, 1.0]] * 2)

    def test_concat_rows_gradient_splits_back(self):
        def build(tape):
            a = tape.leaf([[1.0, 1.0]], requires_grad=True)
            b = tape.leaf([[2.0, 2.0], [3.0, 3.0]], requires_grad=True)
            return tape.sum(tape.scale(tape.concat_rows([a, b]), 3.0)), a, b

        ga, gb = grads_of(build)
        np.testing.assert_array_equal(ga, [[3.0, 3.0]])
        np.testing.assert_array_equal(gb, [[3.0, 3.0], [3.0, 3.0]])

    def test_concat_cols_gradient_splits_back(self):
        def build(tape):
            a = tape.leaf([[1.0], [2.0]], requires_grad=True)
            b = tape.leaf([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
            return tape.sum(tape.concat_cols([a, b])), a, b

        ga, gb = grads_of(build)
        np.testing.assert_array_equal(ga, [[1.0], [1.0]])
        np.testing.assert_array_equal(gb, np.ones((2, 2)))

    def test_reused_variable_accumulates_both_paths(self):
        # loss = sum(x*x + x); gradient 2x + 1 is exact for x = 0.5
        def build(tape):
            x = tape.leaf([0.5, -1.5], requires_grad=True)
            return tape.sum(tape.add(tape.mul(x, x), x)), x

        (gx,) = grads_of(build)
        np.testing.assert_array_equal(gx, [2.0, -2.0])


class TestTapeMechanics:
    def test_leaf_copies_input(self):
        src = np.array([1.0, 2.0])
        tape = Tape()
        x = tape.leaf(src)
        src[0] = 99.0
        assert x.value[0] == 1.0

    def test_backward_requires_scalar(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            tape.backward(x)

    def test_backward_returns_zeros_for_unreached_leaf(self):
        tape = Tape()
        x = tape.leaf([1.0], requires_grad=True)
        unused = tape.leaf([[1.0, 2.0]], requires_grad=True)
        grads = tape.backward(tape.sum(x))
        np.testing.assert_array_equal(grads[unused], [[0.0, 0.0]])

    def test_frozen_leaves_are_absent_from_gradients(self):
        tape = Tape()
        x = tape.leaf([1.0], requires_grad=True)
        w = tape.leaf([2.0], requires_grad=False)
        grads = tape.backward(tape.sum(tape.mul(x, w)))
        assert x in grads
        assert w not in grads

    def test_gradient_arrays_are_independent_copies(self):
        tape = Tape()
        x = tape.leaf([1.0, 1.0], requires_grad=True)
        y = tape.add(x, x)
        grads_a = tape.backward(tape.sum(y))
        grads_b = tape.backward(tape.sum(y))
        grads_a[x][0] = 17.0
        assert grads_b[x][0] == 2.0

    def test_leaf_rejects_non_finite(self):
        tape = Tape()
        with pytest.raises(NonFiniteError):
            tape.leaf([np.nan])
        with pytest.raises(NonFiniteError):
            tape.leaf([np.inf])

    def test_leaf_rejects_higher_rank(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.leaf(np.zeros((2, 2, 2)))

    def test_mismatched_add_raises(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0]])
        b = tape.leaf([[1.0], [2.0]])
        with pytest.raises(ShapeError):
            tape.add(a, b)

    def test_mismatched_matmul_raises(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            tape.matmul(a, b)

    def test_slice_cols_rejects_duplicates(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            tape.slice_cols(x, (1, 1))

    def test_slice_rows_rejects_bad_range(self):
        tape = Tape()
        x = tape.leaf(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            tape.slice_rows(x, 3, 3)
        with pytest.raises(ShapeError):
            tape.slice_rows(x, 0, 5)

    def test_unknown_op_raises(self):
        tape = Tape()
        x = tape.leaf([1.0])
        with pytest.raises(KeyError):
            tape.apply("no_such_op", x)


class TestGradCheckHarness:
    def test_eps_outside_allowed_band_raises(self):
        def f(tape, x):
            return tape.sum(x)

        with pytest.raises(ValueError):
            grad_check(f, np.ones(3), eps=1e-2)
        with pytest.raises(ValueError):
            grad_check(f, np.ones(3), eps=1e-12)

    def test_composite_network_style_function(self):
        def f(tape, x):
            w = tape.leaf([[0.7, -0.3], [0.2, 0.9]])
            bias = tape.leaf([0.1, -0.2])
            h = tape.tanh(tape.add_bias(tape.matmul(x, w), bias))
            gate = tape.sigmoid(tape.matmul(h, w))
            target = tape.leaf(np.full((3, 2), 0.25))
            return tape.mean_sq_diff(tape.mul(h, gate), target)

        rng = np.random.default_rng(11)
        err = grad_check(f, rng.uniform(-1.0, 1.0, (3, 2)), eps=1e-6)
        assert err < 1e-5


class TestGradientProperties:
    @given(arrays(np.float64, (3, 2), elements=finite_floats))
    @settings(max_examples=25, deadline=None)
    def test_sum_gradient_is_all_ones(self, values):
        tape = Tape()
        x = tape.leaf(values, requires_grad=True)
        grads = tape.backward(tape.sum(x))
        np.testing.assert_array_equal(grads[x], np.ones_like(values))

    @given(arrays(np.float64, (4, 3), elements=finite_floats))
    @settings(max_examples=25, deadline=None)
    def test_column_partition_gradients_cover_input_once(self, values):
        # summing two disjoint column slices equals summing the whole input,
        # so the gradients must agree exactly
        tape = Tape()
        x = tape.leaf(values, requires_grad=True)
        left = tape.sum(tape.slice_cols(x, (0,)))
        right = tape.sum(tape.slice_cols(x, (1, 2)))
        grads = tape.backward(tape.add(left, right))
        np.testing.assert_array_equal(grads[x], np.ones_like(values))

    @given(
        arrays(np.float64, (2, 3), elements=finite_floats),
        arrays(np.float64, (2, 3), elements=finite_floats),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_of_accumulation(self, a_vals, b_vals):
        # grad of sum(a+a) is exactly twice grad of sum(a)
        tape = Tape()
        a = tape.leaf(a_vals, requires_grad=True)
        b = tape.leaf(b_vals, requires_grad=True)
        loss = tape.sum(tape.add(tape.add(a, a), b))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[a], np.full_like(a_vals, 2.0))
        np.testing.assert_array_equal(grads[b], np.ones_like(b_vals))
