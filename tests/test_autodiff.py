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

EXPECTED_OPS = {"lstm", "windows", "weighted_mse", "sum"}

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def grads_of(build):
    """Run build(tape) -> (loss, leaves...) and return leaf gradients."""
    tape = Tape()
    loss, *leaves = build(tape)
    grads = tape.backward(loss)
    return [grads[leaf] for leaf in leaves]


def zero_lstm(tape, x, h, b_head, requires_grad=False):
    """The six inputs of an ``lstm`` whose four weight leaves (made here) are
    all 0, so every hidden state is exactly 0 (gates 0.5, candidate 0) and
    the output is ``b_head`` in every row, squashed or not."""
    shapes = ((x.shape[1], 4 * h), (h, 4 * h), (4 * h,), (h, b_head.shape[0]))
    return [x, *(tape.leaf(np.zeros(s), requires_grad=requires_grad) for s in shapes),
            b_head]


class TestOperatorSet:
    def test_registered_ops_are_the_closed_set(self):
        assert set(registered_ops()) == EXPECTED_OPS

    def test_finite_difference_sweep_covers_every_op(self):
        worst = run_op_checks(seed=0, samples_per_op=3)
        assert set(worst) == EXPECTED_OPS
        for op, err in worst.items():
            assert err < 1e-5, f"{op} gradient mismatch {err:.3e}"


class TestHandDerivedGradients:
    def test_head_gradients_through_sum(self):
        # pre-activations of +-800 saturate every gate: i = o = 1, f = 0
        # and the candidate 1, exactly, so c = 1 and h = tanh(1) at both
        # steps, and every gate slope is exactly 0. loss = sum(hs @ w_head +
        # b_head) then gives w_head the column sums of hs, 2 tanh(1), b_head
        # the row count, and every lstm input exactly 0.
        h, p = 2, 3
        bias = np.zeros(4 * h)
        bias[:h], bias[h:2 * h], bias[3 * h:] = 800.0, -800.0, 800.0  # i, f, o
        wx = np.zeros((1, 4 * h))
        wx[0, 2 * h:3 * h] = 800.0  # candidate
        inputs = [np.ones((2, 1)), wx, np.full((h, 4 * h), 0.5), bias,
                  np.arange(h * p, dtype=float).reshape(h, p), np.full(p, -1.0)]

        def build(tape):
            leaves = [tape.leaf(v, requires_grad=True) for v in inputs]
            return tape.sum(tape.lstm(*leaves, steps=2, squash=False)), *leaves

        gx, gwx, gwh, gbias, gw_head, gb_head = grads_of(build)
        np.testing.assert_array_equal(gw_head, np.full((h, p), 2.0 * np.tanh(1.0)))
        np.testing.assert_array_equal(gb_head, [2.0, 2.0, 2.0])
        for grad, value in zip((gx, gwx, gwh, gbias), inputs):
            np.testing.assert_array_equal(grad, np.zeros_like(value))

    def test_tanh_at_zero_has_unit_slope(self):
        # the squashed head of an all-zero lstm is tanh(0 + b_head) = tanh(0)
        tape = Tape()
        b_head = tape.leaf([0.0], requires_grad=True)
        x = tape.leaf(np.ones((1, 2)))
        out = tape.lstm(*zero_lstm(tape, x, 3, b_head), steps=1, squash=True)
        grads = tape.backward(tape.sum(out))
        np.testing.assert_array_equal(grads[b_head], [1.0])

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


    def test_head_bias_gradient_sums_over_rows(self):
        # an all-zero lstm outputs b_head in both rows; against the target
        # rows (0, 0) and (2, 4) the output gradients are (10, 20) and
        # (8, 16), which sum to the b_head gradient, and w_head meets hs = 0
        def build(tape):
            b_head = tape.leaf([10.0, 20.0], requires_grad=True)
            x = tape.leaf(np.ones((2, 1)), requires_grad=True)
            leaves = zero_lstm(tape, x, 2, b_head, requires_grad=True)
            out = tape.lstm(*leaves, steps=2, squash=False)
            target = tape.leaf([[0.0, 0.0], [2.0, 4.0]])
            return tape.weighted_mse(target, out, (1.0, 1.0)), b_head, leaves[4]

        gb_head, gw_head = grads_of(build)
        np.testing.assert_array_equal(gb_head, [18.0, 36.0])
        np.testing.assert_array_equal(gw_head, np.zeros((2, 2)))

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
        # with in = h, one leaf can be both wx and wh: its gradient is the
        # sum of the two paths', bit for bit against two separate leaves
        # holding the same values, and to rounding against the reference
        rng = np.random.default_rng(5)
        h, steps = 2, 3
        x, w = rng.uniform(-1.0, 1.0, (2 * steps, h)), rng.uniform(-0.8, 0.8, (h, 4 * h))
        bias, w_head = rng.uniform(-0.5, 0.5, 4 * h), rng.uniform(-0.8, 0.8, (h, 2))
        b_head = rng.uniform(-0.5, 0.5, 2)

        def build(tape, shared):
            wx = tape.leaf(w, requires_grad=True)
            wh = wx if shared else tape.leaf(w, requires_grad=True)
            leaves = [tape.leaf(x), wx, wh] + [tape.leaf(v) for v in (bias, w_head, b_head)]
            return tape.sum(tape.lstm(*leaves, steps=steps, squash=False)), wx, wh

        shared, _ = grads_of(lambda tape: build(tape, True))
        gwx, gwh = grads_of(lambda tape: build(tape, False))
        np.testing.assert_array_equal(shared, gwx + gwh)
        _, ref = reference_lstm(x, w, w, bias, w_head, b_head, steps, False,
                                np.ones((2 * steps, 2)))
        assert relative_error(shared, ref[1] + ref[2]) <= 1e-12


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
        x = tape.leaf(np.ones((2, 1)), requires_grad=True)
        x, *frozen = zero_lstm(tape, x, 1, tape.leaf([2.0], requires_grad=False))
        grads = tape.backward(tape.sum(tape.lstm(x, *frozen, steps=2, squash=True)))
        assert x in grads
        for w in frozen:
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


def reference_lstm(x, wx, wh, bias, w_head, b_head, steps, squash, g):
    """Per-step LSTM and its head in plain numpy: forward, then backprop of g.

    The algebra of a composite step: pre = x_t wx + h_{t-1} wh + bias, gate
    blocks (i, f, candidate, o), logistic gates, c_t = f c_{t-1} + i cand,
    h_t = o tanh(c_t), zero initial state. The head maps the stacked hidden
    states to hs w_head + b_head, through tanh if ``squash``. Returns that
    output and the gradients of x, wx, wh, bias, w_head and b_head.
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
    hs_stack = np.concatenate(hs[1:])
    out = hs_stack @ w_head + b_head
    if squash:
        out = np.tanh(out)
        g = g * (1.0 - out ** 2)
    gw_head, gb_head = hs_stack.T @ g, g.sum(axis=0)
    g = g @ w_head.T

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
    return out, (gx, gwx, gwh, gb, gw_head, gb_head)


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
        p = 3
        x = rng.uniform(-1.0, 1.0, (steps * batch, n_in))
        if lifted:
            wx = rng.uniform(-0.8, 0.8, (4 * h, n_in)).T
            wh = rng.uniform(-0.8, 0.8, (4 * h, h)).T
            w_head = rng.uniform(-0.8, 0.8, (p, h)).T
        else:
            wx = rng.uniform(-0.8, 0.8, (n_in, 4 * h))
            wh = rng.uniform(-0.8, 0.8, (h, 4 * h))
            w_head = rng.uniform(-0.8, 0.8, (h, p))
        inputs = [x, wx, wh, rng.uniform(-0.5, 0.5, 4 * h), w_head,
                  rng.uniform(-0.5, 0.5, p)]
        # the loss is weighted_mse(target, out, ones), whose gradient on out
        # is 2 (out - target) / rows; the reference backprops that upstream
        target = rng.uniform(-1.0, 1.0, (steps * batch, p))
        for squash in (True, False):
            expected_out, _ = reference_lstm(*inputs, steps, squash, np.zeros_like(target))
            upstream = 2.0 * (expected_out - target) / target.shape[0]
            _, expected_grads = reference_lstm(*inputs, steps, squash, upstream)

            tape = Tape()
            needs = [wrt == "x"] + [wrt == "weights"] * 5
            leaves = [tape.leaf(v, requires_grad=r) for v, r in zip(inputs, needs)]
            out = tape.lstm(*leaves, steps=steps, squash=squash)
            grads = tape.backward(tape.weighted_mse(tape.leaf(target), out, np.ones(p)))

            assert relative_error(out.value, expected_out) <= 1e-12
            for leaf, need, expected in zip(leaves, needs, expected_grads, strict=True):
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
            # the identity head returns the hidden states bit for bit
            tape = Tape()
            leaves = [tape.leaf(v, requires_grad=True) for v in (x, wx, wh, bias)]
            head = [tape.leaf(np.eye(h)), tape.leaf(np.zeros(h))]
            out = tape.lstm(*leaves, *head, steps=1, squash=False)
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
        inputs = (np.ones((4, 2)), np.full((2, 8), 0.1), np.full((2, 8), 0.1), np.zeros(8),
                  np.full((2, 1), 0.1), np.zeros(1))
        leaves = [tape.leaf(v, requires_grad=True) for v in inputs]
        with lstm_arena():
            loss = tape.sum(tape.lstm(*leaves, steps=2, squash=True))
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
        # the identity head returns the hidden states bit for bit
        w_head = tape.leaf(np.eye(h), requires_grad=True)
        b_head = tape.leaf(np.zeros(h), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = tape.lstm(x, wx, wh, bias, w_head, b_head, steps=3, squash=False)
            grads = tape.backward(tape.sum(out))
        assert np.isfinite(out.value).all()
        for leaf in (x, wx, wh, bias, w_head, b_head):
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
        args = [tape.leaf(np.ones(s)) for s in (x_shape, wx_shape, wh_shape, bias_shape,
                                                (wh_shape[0], 3), (3,))]
        with pytest.raises(ShapeError):
            tape.lstm(*args, steps=steps, squash=True)

    @pytest.mark.parametrize(
        "w_head_shape,b_head_shape",
        [((3, 2), (2,)), ((2,), (2,)), ((2, 2), (3,)), ((2, 2), (1, 2))],
        ids=["w_head-rows", "w_head-1d", "b_head-width", "b_head-2d"])
    def test_wrong_head_shapes_raise(self, w_head_shape, b_head_shape):
        # an lstm of h = 2 over 3 inputs; only the head does not conform
        tape = Tape()
        args = [tape.leaf(np.ones(s)) for s in ((6, 3), (3, 8), (2, 8), (8,),
                                                w_head_shape, b_head_shape)]
        with pytest.raises(ShapeError):
            tape.lstm(*args, steps=3, squash=True)


class TestGradCheckHarness:
    def test_eps_outside_allowed_band_raises(self):
        def f(tape, x):
            return tape.sum(x)

        with pytest.raises(ValueError):
            grad_check(f, np.ones(3), eps=1e-2)
        with pytest.raises(ValueError):
            grad_check(f, np.ones(3), eps=1e-12)

    def test_composite_network_style_function(self):
        # the autoencoder's four ops on a [5, 4] series: windows of 2 steps,
        # an encoder with a squashed 1-wide head, a decoder with a linear
        # readout, and the weighted loss against the windows themselves
        rng = np.random.default_rng(11)
        h = 3
        enc = [rng.uniform(-0.8, 0.8, s) for s in ((4, 4 * h), (h, 4 * h), (4 * h,),
                                                   (h, 1), (1,))]
        dec = [rng.uniform(-0.8, 0.8, s) for s in ((1, 4 * h), (h, 4 * h), (4 * h,),
                                                   (h, 4), (4,))]

        def f(tape, series):
            x = tape.windows(series, 2)
            latent = tape.lstm(x, *map(tape.leaf, enc), steps=2, squash=True)
            y = tape.lstm(latent, *map(tape.leaf, dec), steps=2, squash=False)
            return tape.weighted_mse(x, y, (0.5, 1.5, 1.0, 0.25))

        err = grad_check(f, rng.uniform(-1.0, 1.0, (5, 4)), eps=1e-6)
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
        arrays(np.float64, (3,), elements=finite_floats),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_of_accumulation(self, a_vals, b_vals):
        # b is the head bias of both lstm ops of loss = sum(dec(enc(a))): its
        # gradient is the encoder's path plus the decoder's, bit for bit
        # against two separate leaves, and the decoder's path is exactly
        # the row count, 2, since sum passes ones through a linear head
        rng = np.random.default_rng(3)
        h = 2
        weights = [[rng.uniform(-0.8, 0.8, s) for s in ((3, 4 * h), (h, 4 * h), (4 * h,),
                                                         (h, 3))] for _ in range(2)]

        def bias_grads(shared):
            tape = Tape()
            a = tape.leaf(a_vals, requires_grad=True)
            b_enc = tape.leaf(b_vals, requires_grad=True)
            b_dec = b_enc if shared else tape.leaf(b_vals, requires_grad=True)
            enc, dec = ([tape.leaf(w, requires_grad=True) for w in ws] for ws in weights)
            latent = tape.lstm(a, *enc, b_enc, steps=2, squash=True)
            grads = tape.backward(tape.sum(tape.lstm(latent, *dec, b_dec, steps=2,
                                                     squash=False)))
            return grads[b_enc], grads[b_dec]

        shared, _ = bias_grads(True)
        g_enc, g_dec = bias_grads(False)
        np.testing.assert_array_equal(g_dec, np.full(3, 2.0))
        np.testing.assert_array_equal(shared, g_enc + g_dec)
