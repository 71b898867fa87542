"""Tape and operator tests.

Gradient rules are verified two ways: small hand-derived cases with exact
expected arrays, and central finite differences (the independent oracle)
via run_op_checks and grad_check.
"""

import gc
import warnings
import weakref

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
    lstm_arena,
    registered_ops,
    run_op_checks,
)

EXPECTED_OPS = {
    "lstm",
    "matmul",
    "add_bias",
    "tanh",
    "windows",
    "weighted_mse",
    "sum",
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

    def test_tanh_at_zero_has_unit_slope(self):
        tape = Tape()
        x = tape.leaf([0.0], requires_grad=True)
        grads = tape.backward(tape.sum(tape.tanh(x)))
        np.testing.assert_array_equal(grads[x], [1.0])

    def test_weighted_mse_value_and_gradient(self):
        # columns: mean sq 2.5 and 4; loss 0.5 * 2.5 + 0.25 * 4 = 2.25;
        # d/d_out = 2 w (out - target) / rows
        def build(tape):
            t = tape.leaf([[0.0, 1.0], [1.0, 0.0]], requires_grad=True)
            o = tape.leaf([[1.0, 3.0], [3.0, 2.0]], requires_grad=True)
            return tape.weighted_mse(t, o, (0.5, 0.25)), t, o

        tape = Tape()
        loss, _, _ = build(tape)
        assert loss.item() == 2.25
        gt, go = grads_of(build)
        np.testing.assert_array_equal(go, [[0.5, 0.5], [1.0, 0.5]])
        np.testing.assert_array_equal(gt, -go)


    def test_add_bias_gradient_sums_over_rows(self):
        def build(tape):
            x = tape.leaf([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
            bias = tape.leaf([10.0, 20.0], requires_grad=True)
            return tape.sum(tape.add_bias(x, bias)), x, bias

        gx, gbias = grads_of(build)
        np.testing.assert_array_equal(gx, np.ones((2, 2)))
        np.testing.assert_array_equal(gbias, [2.0, 2.0])

    def test_windows_gradient_adds_every_window_cell(self):
        # each sample collects its coverage count: 1, 2, 3, 2, 1 for T=5
        # and 3 steps
        def build(tape):
            x = tape.leaf(np.arange(10.0).reshape(5, 2), requires_grad=True)
            return tape.sum(tape.windows(x, 3)), x

        (gx,) = grads_of(build)
        np.testing.assert_array_equal(gx, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0],
                                           [2.0, 2.0], [1.0, 1.0]])

    def test_reused_variable_accumulates_both_paths(self):
        # loss = sum(x @ x) + 2 sum(x): x enters the matmul twice and the
        # bias once; gradient (ones @ x.T + x.T @ ones) + 2 is exact for
        # these small integers
        def build(tape):
            x = tape.leaf([[1.0, 2.0], [-3.0, 0.5]], requires_grad=True)
            row_sums = tape.matmul(tape.matmul(x, x), tape.leaf(np.ones((2, 1))))
            return tape.sum(tape.add_bias(row_sums, tape.sum(x))), x

        (gx,) = grads_of(build)
        x = np.array([[1.0, 2.0], [-3.0, 0.5]])
        ones = np.ones((2, 2))
        np.testing.assert_array_equal(gx, ones @ x.T + x.T @ ones + 2.0)


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
        x = tape.leaf([[1.0]], requires_grad=True)
        w = tape.leaf([[2.0]], requires_grad=False)
        grads = tape.backward(tape.sum(tape.matmul(x, w)))
        assert x in grads
        assert w not in grads

    def test_gradient_arrays_are_independent_copies(self):
        tape = Tape()
        x = tape.leaf([[1.0, 1.0]], requires_grad=True)
        y = tape.weighted_mse(tape.leaf([[0.0, 0.0]]), x, (1.0, 1.0))
        grads_a = tape.backward(tape.sum(y))
        grads_b = tape.backward(tape.sum(y))
        grads_a[x][0, 0] = 17.0
        assert grads_b[x][0, 0] == 2.0

    def test_tape_with_grad_leaf_is_freed_without_cyclic_collection(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]], requires_grad=True)
        grads = tape.backward(tape.sum(x))
        ref = weakref.ref(tape)
        gc.disable()
        try:
            del tape, x, grads
            assert ref() is None
        finally:
            gc.enable()

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

    def test_mismatched_weighted_mse_raises(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0]])
        b = tape.leaf([[1.0], [2.0]])
        with pytest.raises(ShapeError):
            tape.weighted_mse(a, b, (1.0, 1.0))
        with pytest.raises(ShapeError):
            tape.weighted_mse(a, a, (1.0,))

    def test_mismatched_matmul_raises(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            tape.matmul(a, b)

    def test_windows_rejects_bad_step_count(self):
        tape = Tape()
        x = tape.leaf(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            tape.windows(x, 0)
        with pytest.raises(ShapeError):
            tape.windows(x, 5)
        with pytest.raises(ShapeError):
            tape.windows(tape.leaf(np.ones(4)), 2)

    def test_unknown_op_raises(self):
        tape = Tape()
        x = tape.leaf([1.0])
        with pytest.raises(KeyError):
            tape.apply("no_such_op", x)


def reference_lstm(x, wx, wh, bias, steps, g):
    """Per-step LSTM in plain numpy: forward, then backprop of upstream g.

    The algebra of a composite step: pre = x_t wx + h_{t-1} wh + bias, gate
    blocks (i, f, candidate, o), logistic gates, c_t = f c_{t-1} + i cand,
    h_t = o tanh(c_t), zero initial state. Returns the stacked hidden
    states and the gradients of x, wx, wh and bias.
    """
    batch, h = x.shape[0] // steps, wh.shape[0]

    def logistic(z):
        return 1.0 / (1.0 + np.exp(-z))

    hs, cs, cache = [np.zeros((batch, h))], [np.zeros((batch, h))], []
    for t in range(steps):
        pre = x[t * batch:(t + 1) * batch] @ wx + hs[-1] @ wh + bias
        i, f = logistic(pre[:, :h]), logistic(pre[:, h:2 * h])
        cand, o = np.tanh(pre[:, 2 * h:3 * h]), logistic(pre[:, 3 * h:])
        c = f * cs[-1] + i * cand
        cache.append((i, f, cand, o, np.tanh(c)))
        cs.append(c)
        hs.append(o * np.tanh(c))

    gx, gwx = np.zeros_like(x), np.zeros_like(wx)
    gwh, gb = np.zeros_like(wh), np.zeros_like(bias)
    dh_next, dc_next = np.zeros((batch, h)), np.zeros((batch, h))
    for t in reversed(range(steps)):
        rows = slice(t * batch, (t + 1) * batch)
        i, f, cand, o, tanh_c = cache[t]
        dh = g[rows] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
        dpre = np.concatenate([
            dc * cand * i * (1.0 - i),
            dc * cs[t] * f * (1.0 - f),
            dc * i * (1.0 - cand ** 2),
            dh * tanh_c * o * (1.0 - o),
        ], axis=1)
        gx[rows] = dpre @ wx.T
        gwx += x[rows].T @ dpre
        gwh += hs[t].T @ dpre
        gb += dpre.sum(axis=0)
        dh_next, dc_next = dpre @ wh.T, dc * f
    return np.concatenate(hs[1:]), (gx, gwx, gwh, gb)


def relative_error(got, expected):
    """Max abs difference over the reference's max magnitude (absolute if 0:
    with one step, wh never multiplies a nonzero state)."""
    scale = np.abs(expected).max()
    return float(np.abs(got - expected).max() / (scale if scale else 1.0))


class TestLSTMOp:
    @pytest.mark.parametrize("steps", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "batch,n_in,h,lifted",
        [(1, 3, 4, False), (4, 3, 4, False),
         # the production width, wx and wh passed the way lift_params
         # passes them: transposes of [4h, in] and [4h, h] storage arrays
         (4, 4, 16, True), (4, 2, 16, True)],
        ids=["1", "4", "lifted-in4-h16", "lifted-in2-h16"])
    @pytest.mark.parametrize("wrt", ["x", "weights"])
    def test_matches_per_step_reference(self, steps, batch, n_in, h, lifted, wrt):
        rng = np.random.default_rng(100 * steps + batch)
        x = rng.uniform(-1.0, 1.0, (steps * batch, n_in))
        if lifted:
            wx = rng.uniform(-0.8, 0.8, (4 * h, n_in)).T
            wh = rng.uniform(-0.8, 0.8, (4 * h, h)).T
        else:
            wx = rng.uniform(-0.8, 0.8, (n_in, 4 * h))
            wh = rng.uniform(-0.8, 0.8, (h, 4 * h))
        inputs = [x, wx, wh, rng.uniform(-0.5, 0.5, 4 * h)]
        # the loss is weighted_mse(target, out, ones), whose gradient on out
        # is 2 (out - target) / rows; the reference backprops that upstream
        target = rng.uniform(-1.0, 1.0, (steps * batch, h))
        expected_out, _ = reference_lstm(*inputs, steps, np.zeros_like(target))
        upstream = 2.0 * (expected_out - target) / target.shape[0]
        _, expected_grads = reference_lstm(*inputs, steps, upstream)

        tape = Tape()
        needs = [wrt == "x", wrt == "weights", wrt == "weights", wrt == "weights"]
        leaves = [tape.leaf(v, requires_grad=r) for v, r in zip(inputs, needs)]
        out = tape.lstm(*leaves, steps=steps)
        grads = tape.backward(tape.weighted_mse(tape.leaf(target), out, np.ones(h)))

        assert relative_error(out.value, expected_out) <= 1e-12
        for leaf, need, expected in zip(leaves, needs, expected_grads):
            if need:
                assert relative_error(grads[leaf], expected) <= 1e-12
            else:
                assert leaf not in grads

    def test_zero_state_step_never_reads_the_forget_gate(self):
        # one step from a zero state: the forget gate multiplies a zero cell,
        # so its weights cannot reach the output or the x gradient by a bit,
        # and its gradient columns are exactly zero
        rng = np.random.default_rng(9)
        h, forget = 3, slice(3, 6)  # GATE_ORDER block 1
        x = rng.uniform(-1.0, 1.0, (4, 2))
        wx, wh = rng.uniform(-0.8, 0.8, (2, 4 * h)), rng.uniform(-0.8, 0.8, (h, 4 * h))
        bias = rng.uniform(-0.5, 0.5, 4 * h)

        def run(wx, wh, bias):
            tape = Tape()
            leaves = [tape.leaf(v, requires_grad=True) for v in (x, wx, wh, bias)]
            out = tape.lstm(*leaves, steps=1)
            grads = tape.backward(tape.sum(out))
            return out.value, [grads[leaf] for leaf in leaves]

        out, grads = run(wx, wh, bias)
        other = [w.copy() for w in (wx, wh, bias)]
        for w in other:
            w[..., forget] = rng.uniform(-50.0, 50.0, w[..., forget].shape)
        other_out, other_grads = run(*other)
        np.testing.assert_array_equal(other_out, out)
        np.testing.assert_array_equal(other_grads[0], grads[0])
        for g in grads[1:] + other_grads[1:]:
            assert not g[..., forget].any()

    def test_arena_residuals_expire_at_the_next_opening(self):
        tape = Tape()
        inputs = (np.ones((4, 2)), np.full((2, 8), 0.1), np.full((2, 8), 0.1), np.zeros(8))
        leaves = [tape.leaf(v, requires_grad=True) for v in inputs]
        with lstm_arena():
            loss = tape.sum(tape.lstm(*leaves, steps=2))
            with pytest.raises(RuntimeError):
                with lstm_arena():
                    pass
        tape.backward(loss)  # no later opening yet: the residuals are intact
        with lstm_arena():
            pass
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_saturated_gates_stay_finite_without_warnings(self):
        # pre-activations of +-800: every gate and the candidate saturate
        h = 2
        tape = Tape()
        x = tape.leaf(np.ones((6, 1)), requires_grad=True)
        wx = tape.leaf(np.zeros((1, 4 * h)), requires_grad=True)
        wh = tape.leaf(np.zeros((h, 4 * h)), requires_grad=True)
        bias = tape.leaf(np.tile([800.0, -800.0], 4 * h // 2), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = tape.lstm(x, wx, wh, bias, steps=3)
            grads = tape.backward(tape.sum(out))
        assert np.isfinite(out.value).all()
        for leaf in (x, wx, wh, bias):
            assert np.isfinite(grads[leaf]).all()

    @pytest.mark.parametrize(
        "x_shape,wx_shape,wh_shape,bias_shape,steps",
        [
            ((6, 3), (3, 8), (2, 8), (8,), 4),  # rows do not split into steps
            ((6, 3), (3, 8), (2, 8), (8,), 0),
            ((6, 3), (2, 8), (2, 8), (8,), 3),  # wx rows != input width
            ((6, 3), (3, 8), (2, 6), (8,), 3),  # wh not [h, 4h]
            ((6, 3), (3, 8), (2, 8), (6,), 3),  # bias not [4h]
            ((6,), (3, 8), (2, 8), (8,), 3),
        ],
    )
    def test_wrong_shapes_raise(self, x_shape, wx_shape, wh_shape, bias_shape, steps):
        tape = Tape()
        args = [tape.leaf(np.ones(s)) for s in (x_shape, wx_shape, wh_shape, bias_shape)]
        with pytest.raises(ShapeError):
            tape.lstm(*args, steps=steps)


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
            gate = tape.tanh(tape.matmul(h, w))
            readout = tape.leaf([[0.4, -0.6, 0.8, 0.1], [-0.5, 0.3, 0.2, 0.9]])
            target = tape.leaf(np.full((3, 4), 0.25))
            return tape.weighted_mse(target, tape.matmul(gate, readout),
                                     (0.5, 1.5, 1.0, 0.25))

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
        # weights that split the columns into two disjoint sets: each loss
        # reaches its own columns only, and the two gradients add up to the
        # gradient under all weights exactly
        def grad(weights):
            tape = Tape()
            x = tape.leaf(values, requires_grad=True)
            loss = tape.weighted_mse(tape.leaf(np.zeros_like(values)), x, weights)
            return tape.backward(loss)[x]

        left, right, full = grad((1.0, 0.0, 0.0)), grad((0.0, 1.0, 1.0)), grad((1.0,) * 3)
        np.testing.assert_array_equal(left[:, 1:], 0.0)
        np.testing.assert_array_equal(right[:, 0], 0.0)
        np.testing.assert_array_equal(left + right, full)

    @given(
        arrays(np.float64, (2, 3), elements=finite_floats),
        arrays(np.float64, (2, 3), elements=finite_floats),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_of_accumulation(self, a_vals, b_vals):
        # loss = sum(row sums of a + sum(a)) + 2 sum(b) = 3 sum(a) + 2 sum(b):
        # the two paths from a add to exactly 3, and b's bias path to 2
        tape = Tape()
        a = tape.leaf(a_vals, requires_grad=True)
        b = tape.leaf(b_vals, requires_grad=True)
        row_sums = tape.matmul(a, tape.leaf(np.ones((3, 1))))
        loss = tape.sum(tape.add_bias(tape.add_bias(row_sums, tape.sum(a)), tape.sum(b)))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[a], np.full_like(a_vals, 3.0))
        np.testing.assert_array_equal(grads[b], np.full_like(b_vals, 2.0))
