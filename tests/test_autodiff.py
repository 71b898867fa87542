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

from tracefill import autodiff
from tracefill.autodiff import (
    NonFiniteError,
    ShapeError,
    Tape,
    grad_check,
    lstm_arena,
    registered_ops,
    run_op_checks,
)
from tracefill.nn import NetConfig, init_params, lift_params, windowed_loss

EXPECTED_OPS = {"lstm", "windows", "weighted_mse", "sum"}

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def grads_of(build):
    """Run build(tape) -> (loss, leaves...) and return leaf gradients."""
    tape = Tape()
    loss, *leaves = build(tape)
    return tape.backward(loss, leaves)


def zero_lstm(tape, x, h, b_head):
    """The six inputs of an ``lstm`` whose four weight leaves (made here) are
    all 0, so every hidden state is exactly 0 (gates 0.5, candidate 0) and
    the output is ``b_head`` in every row, squashed or not."""
    shapes = ((4 * h, x.shape[1]), (4 * h, h), (4 * h,), (b_head.shape[0], h))
    return [x, *(tape.leaf(np.zeros(s)) for s in shapes), b_head]


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
        # steps, and every gate slope is exactly 0. loss = sum(hs @ w_head.T
        # + b_head) then gives each row of w_head the column sums of hs,
        # 2 tanh(1), b_head the row count, and every lstm input exactly 0.
        h, p = 2, 3
        bias = np.zeros(4 * h)
        bias[:h], bias[h:2 * h], bias[3 * h:] = 800.0, -800.0, 800.0  # i, f, o
        wx = np.zeros((4 * h, 1))
        wx[2 * h:3 * h, 0] = 800.0  # candidate
        inputs = [np.ones((2, 1)), wx, np.full((4 * h, h), 0.5), bias,
                  np.arange(p * h, dtype=float).reshape(p, h), np.full(p, -1.0)]

        def build(tape):
            leaves = [tape.leaf(v) for v in inputs]
            return tape.sum(tape.lstm(*leaves, steps=2, squash=False)), *leaves

        gx, gwx, gwh, gbias, gw_head, gb_head = grads_of(build)
        np.testing.assert_array_equal(gw_head, np.full((p, h), 2.0 * np.tanh(1.0)))
        np.testing.assert_array_equal(gb_head, [2.0, 2.0, 2.0])
        for grad, value in zip((gx, gwx, gwh, gbias), inputs):
            np.testing.assert_array_equal(grad, np.zeros_like(value))

    def test_tanh_at_zero_has_unit_slope(self):
        # the squashed head of an all-zero lstm is tanh(0 + b_head) = tanh(0)
        tape = Tape()
        b_head = tape.leaf([0.0])
        x = tape.leaf(np.ones((1, 2)))
        out = tape.lstm(*zero_lstm(tape, x, 3, b_head), steps=1, squash=True)
        (grad,) = tape.backward(tape.sum(out), [b_head])
        np.testing.assert_array_equal(grad, [1.0])

    def test_weighted_mse_value_and_gradient(self):
        # columns: mean sq 2.5 and 4; loss 0.5 * 2.5 + 0.25 * 4 = 2.25;
        # d/d_out = 2 w (out - target) / rows
        def build(tape):
            t = tape.leaf([[0.0, 1.0], [1.0, 0.0]])
            o = tape.leaf([[1.0, 3.0], [3.0, 2.0]])
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
            b_head = tape.leaf([10.0, 20.0])
            x = tape.leaf(np.ones((2, 1)))
            leaves = zero_lstm(tape, x, 2, b_head)
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
            x = tape.leaf(np.arange(10.0).reshape(5, 2))
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
        x, w = rng.uniform(-1.0, 1.0, (2 * steps, h)), rng.uniform(-0.8, 0.8, (4 * h, h))
        bias, w_head = rng.uniform(-0.5, 0.5, 4 * h), rng.uniform(-0.8, 0.8, (2, h))
        b_head = rng.uniform(-0.5, 0.5, 2)

        def build(tape, shared):
            wx = tape.leaf(w)
            wh = wx if shared else tape.leaf(w)
            leaves = [tape.leaf(x), wx, wh] + [tape.leaf(v) for v in (bias, w_head, b_head)]
            return tape.sum(tape.lstm(*leaves, steps=steps, squash=False)), wx, wh

        shared, shared_again = grads_of(lambda tape: build(tape, True))
        gwx, gwh = grads_of(lambda tape: build(tape, False))
        np.testing.assert_array_equal(shared_again, shared)
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
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ShapeError):
            tape.backward(x, [x])

    def test_backward_returns_zeros_for_unreached_leaf(self):
        tape = Tape()
        x = tape.leaf([1.0])
        unused = tape.leaf([[1.0, 2.0]])
        grad_x, grad_unused = tape.backward(tape.sum(x), [x, unused])
        np.testing.assert_array_equal(grad_x, [1.0])
        np.testing.assert_array_equal(grad_unused, [[0.0, 0.0]])

    def test_gradients_come_back_in_wrt_order(self):
        # d/d_out = 2 (out - target) / rows and d/d_target its negative
        tape = Tape()
        target = tape.leaf([[0.0, 0.0]])
        output = tape.leaf([[1.0, 3.0]])
        loss = tape.weighted_mse(target, output, (1.0, 1.0))
        grad_o, grad_t = tape.backward(loss, [output, target])
        np.testing.assert_array_equal(grad_o, [[2.0, 6.0]])
        np.testing.assert_array_equal(grad_t, [[-2.0, -6.0]])
        grad_t2, grad_o2 = tape.backward(loss, [target, output])
        np.testing.assert_array_equal(grad_t2, grad_t)
        np.testing.assert_array_equal(grad_o2, grad_o)

    def test_leaf_listed_twice_gets_two_independent_arrays(self):
        tape = Tape()
        x = tape.leaf([[1.0, 1.0]])
        loss = tape.weighted_mse(tape.leaf([[0.0, 0.0]]), x, (1.0, 1.0))
        first, second = tape.backward(loss, [x, x])
        np.testing.assert_array_equal(first, [[2.0, 2.0]])
        np.testing.assert_array_equal(second, first)
        first[0, 0] = 17.0
        assert second[0, 0] == 2.0

    def test_foreign_or_non_leaf_wrt_raises(self):
        tape, other = Tape(), Tape()
        x = tape.leaf([[1.0, 2.0]])
        y = tape.weighted_mse(tape.leaf([[0.0, 0.0]]), x, (1.0, 1.0))
        loss = tape.sum(y)
        with pytest.raises(ValueError, match="not a leaf of this tape"):
            tape.backward(loss, [x, other.leaf([[1.0, 2.0]])])
        with pytest.raises(ValueError, match="not a leaf of this tape"):
            tape.backward(loss, [y])

    @pytest.mark.parametrize("wrt", ["series", "params"])
    def test_rules_are_asked_only_for_inputs_that_reach_wrt(self, monkeypatch, wrt):
        # the autoencoder's two lstm ops: by the series, no weight gradient
        # is asked of either; by the weights, the encoder's input gradient
        # is not, while the decoder's input, the latent stack, depends on
        # the encoder's weights and is
        needs_by_op, rule = {}, autodiff._OPS["lstm"]

        def backward(g, out, saved, values, needs, kwargs):
            needs_by_op["encoder" if kwargs["squash"] else "decoder"] = list(needs)
            return rule.backward(g, out, saved, values, needs, kwargs)

        monkeypatch.setitem(autodiff._OPS, "lstm", autodiff._OpRule(rule.forward, backward))
        config = NetConfig(n_features=3, seq_len=2, lstm_hidden=4, latent_dim=2)
        tape = Tape()
        net = lift_params(tape, init_params(config, seed=1))
        series = tape.leaf(np.linspace(0.0, 1.0, 15).reshape(5, 3))
        loss, _ = windowed_loss(tape, net, series, config.seq_len, (1.0, 0.0, 1.0))
        grads = tape.backward(loss, [series] if wrt == "series" else list(net.values()))
        if wrt == "series":
            assert needs_by_op == {"encoder": [True] + [False] * 5,
                                   "decoder": [True] + [False] * 5}
            assert grads[0].any()
        else:
            assert needs_by_op == {"encoder": [False] + [True] * 5, "decoder": [True] * 6}
            assert len(grads) == 10 and all(g.any() for g in grads)

    def test_gradient_arrays_are_independent_copies(self):
        tape = Tape()
        x = tape.leaf([[1.0, 1.0]])
        y = tape.weighted_mse(tape.leaf([[0.0, 0.0]]), x, (1.0, 1.0))
        (grad_a,) = tape.backward(tape.sum(y), [x])
        (grad_b,) = tape.backward(tape.sum(y), [x])
        grad_a[0, 0] = 17.0
        assert grad_b[0, 0] == 2.0

    def test_tape_with_grad_leaf_is_freed_without_cyclic_collection(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        grads = tape.backward(tape.sum(x), [x])
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

    The weights are in the model file's layout: wx [4h, in], wh [4h, h],
    w_head [p, h]. The algebra of a composite step: pre = x_t wx^T +
    h_{t-1} wh^T + bias, gate blocks (i, f, candidate, o), logistic gates,
    c_t = f c_{t-1} + i cand, h_t = o tanh(c_t), zero initial state. The
    head maps the stacked hidden states to hs w_head^T + b_head, through
    tanh if ``squash``. Returns that output and the gradients of x, wx, wh,
    bias, w_head and b_head.
    """
    batch, h = x.shape[0] // steps, wh.shape[1]

    def logistic(z):
        return 1.0 / (1.0 + np.exp(-z))

    hs, cs, cache = [np.zeros((batch, h))], [np.zeros((batch, h))], []
    for t in range(steps):
        pre = x[t * batch:(t + 1) * batch] @ wx.T + hs[-1] @ wh.T + bias
        i, f = logistic(pre[:, :h]), logistic(pre[:, h:2 * h])
        cand, o = np.tanh(pre[:, 2 * h:3 * h]), logistic(pre[:, 3 * h:])
        c = f * cs[-1] + i * cand
        cache.append((i, f, cand, o, np.tanh(c)))
        cs.append(c)
        hs.append(o * np.tanh(c))
    hs_stack = np.concatenate(hs[1:])
    out = hs_stack @ w_head.T + b_head
    if squash:
        out = np.tanh(out)
        g = g * (1.0 - out ** 2)
    gw_head, gb_head = g.T @ hs_stack, g.sum(axis=0)
    g = g @ w_head

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
        gx[rows] = dpre @ wx
        gwx += dpre.T @ x[rows]
        gwh += dpre.T @ hs[t]
        gb += dpre.sum(axis=0)
        dh_next, dc_next = dpre @ wh, dc * f
    return out, (gx, gwx, gwh, gb, gw_head, gb_head)


# x, wx, wh, bias, w_head and b_head of an lstm of h = 2 over 3 inputs with
# a head of width 3, in the storage layout; rows split into 3 steps
CONFORMING_LSTM_SHAPES = ((6, 3), (8, 3), (8, 2), (8,), (3, 2), (3,))


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
         # the production width, the weights drawn in the storage layout
         # lift_params passes on; the others are drawn [in, 4h], [h, 4h]
         # and [h, p] and passed as their transposes, which are views
         (4, 4, 16, True), (4, 2, 16, True)],
        ids=["1", "4", "lifted-in4-h16", "lifted-in2-h16"])
    @pytest.mark.parametrize("wrt", ["x", "weights"])
    def test_matches_per_step_reference(self, steps, batch, n_in, h, lifted, wrt):
        rng = np.random.default_rng(100 * steps + batch)
        p = 3
        x = rng.uniform(-1.0, 1.0, (steps * batch, n_in))
        if lifted:
            wx = rng.uniform(-0.8, 0.8, (4 * h, n_in))
            wh = rng.uniform(-0.8, 0.8, (4 * h, h))
            w_head = rng.uniform(-0.8, 0.8, (p, h))
        else:
            wx = rng.uniform(-0.8, 0.8, (n_in, 4 * h)).T
            wh = rng.uniform(-0.8, 0.8, (h, 4 * h)).T
            w_head = rng.uniform(-0.8, 0.8, (h, p)).T
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
            leaves = [tape.leaf(v) for v in inputs]
            out = tape.lstm(*leaves, steps=steps, squash=squash)
            wrt = [leaf for leaf, need in zip(leaves, needs) if need]
            loss = tape.weighted_mse(tape.leaf(target), out, np.ones(p))
            grads = tape.backward(loss, wrt)

            assert relative_error(out.value, expected_out) <= 1e-12
            expected = [grad for grad, need in zip(expected_grads, needs) if need]
            for got, want in zip(grads, expected, strict=True):
                assert relative_error(got, want) <= 1e-12

    # float32 against float64, relative to each array's largest magnitude
    F32_TOL = 2e-6

    @pytest.mark.parametrize("shapes", [
        CONFORMING_LSTM_SHAPES,
        # the production encoder and decoder: hidden 16, 4 features, latent
        # 2, 3 steps of 64 windows
        ((192, 4), (64, 4), (64, 16), (64,), (2, 16), (2,)),
        ((192, 2), (64, 2), (64, 16), (64,), (4, 16), (4,)),
    ], ids=["sweep", "encoder-h16", "decoder-h16"])
    @pytest.mark.parametrize("squash", [True, False])
    def test_float32_matches_float64(self, shapes, squash):
        # the op computes in x's dtype: a float32 x gives a float32 output
        # and six float32 gradients within F32_TOL of float64's, and float64
        # weights are cast inside, to the same bits as float32 ones
        rng = np.random.default_rng(shapes[0][0])
        inputs = [rng.uniform(-0.8, 0.8, shape) for shape in shapes]
        target = rng.uniform(-1.0, 1.0, (shapes[0][0], shapes[-1][0]))

        def run(x_dtype, w_dtype):
            tape = Tape()
            leaves = [tape.leaf(inputs[0].astype(x_dtype))]
            leaves += [tape.leaf(w.astype(w_dtype)) for w in inputs[1:]]
            out = tape.lstm(*leaves, steps=3, squash=squash)
            loss = tape.weighted_mse(tape.leaf(target.astype(x_dtype)), out,
                                     np.ones(target.shape[1]))
            return [out.value, *tape.backward(loss, leaves)]

        want = run(np.float64, np.float64)
        got = run(np.float32, np.float32)
        for got_array, want_array in zip(got, want, strict=True):
            assert got_array.dtype == np.float32
            assert relative_error(got_array, want_array) <= self.F32_TOL
        for got_array, master in zip(got, run(np.float32, np.float64), strict=True):
            np.testing.assert_array_equal(master, got_array)

    def test_zero_state_step_never_reads_the_forget_gate(self):
        # one step from a zero state: the forget gate multiplies a zero cell,
        # so its weights cannot reach the output or the x gradient by a bit,
        # and its gradient rows are exactly zero
        rng = np.random.default_rng(9)
        h, forget = 3, slice(3, 6)  # GATE_ORDER block 1
        x = rng.uniform(-1.0, 1.0, (4, 2))
        wx, wh = rng.uniform(-0.8, 0.8, (4 * h, 2)), rng.uniform(-0.8, 0.8, (4 * h, h))
        bias = rng.uniform(-0.5, 0.5, 4 * h)

        def run(wx, wh, bias):
            # the identity head returns the hidden states bit for bit
            tape = Tape()
            leaves = [tape.leaf(v) for v in (x, wx, wh, bias)]
            head = [tape.leaf(np.eye(h)), tape.leaf(np.zeros(h))]
            out = tape.lstm(*leaves, *head, steps=1, squash=False)
            return out.value, tape.backward(tape.sum(out), leaves)

        out, grads = run(wx, wh, bias)
        other = [w.copy() for w in (wx, wh, bias)]
        for w in other:
            w[forget] = rng.uniform(-50.0, 50.0, w[forget].shape)
        other_out, other_grads = run(*other)
        np.testing.assert_array_equal(other_out, out)
        np.testing.assert_array_equal(other_grads[0], grads[0])
        for g in grads[1:] + other_grads[1:]:
            assert not g[forget].any()

    def test_arena_residuals_expire_at_the_next_opening(self):
        tape = Tape()
        inputs = (np.ones((4, 2)), np.full((8, 2), 0.1), np.full((8, 2), 0.1), np.zeros(8),
                  np.full((1, 2), 0.1), np.zeros(1))
        leaves = [tape.leaf(v) for v in inputs]
        with lstm_arena():
            loss = tape.sum(tape.lstm(*leaves, steps=2, squash=True))
            with pytest.raises(RuntimeError):
                with lstm_arena():
                    pass
        tape.backward(loss, leaves)  # no later opening yet: the residuals are intact
        with lstm_arena():
            pass
        with pytest.raises(RuntimeError):
            tape.backward(loss, leaves)

    def test_saturated_gates_stay_finite_without_warnings(self):
        # pre-activations of +-800: every gate and the candidate saturate
        h = 2
        tape = Tape()
        x = tape.leaf(np.ones((6, 1)))
        wx = tape.leaf(np.zeros((4 * h, 1)))
        wh = tape.leaf(np.zeros((4 * h, h)))
        bias = tape.leaf(np.tile([800.0, -800.0], 4 * h // 2))
        # the identity head returns the hidden states bit for bit
        w_head = tape.leaf(np.eye(h))
        b_head = tape.leaf(np.zeros(h))
        leaves = [x, wx, wh, bias, w_head, b_head]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = tape.lstm(*leaves, steps=3, squash=False)
            grads = tape.backward(tape.sum(out), leaves)
        assert np.isfinite(out.value).all()
        for grad in grads:
            assert np.isfinite(grad).all()

    def test_conforming_shapes_record(self):
        # the set every shape case below changes in one place: h = 2 over 3
        # inputs, a head of width 3, 3 steps of 2 rows
        tape = Tape()
        out = tape.lstm(*(tape.leaf(np.ones(s)) for s in CONFORMING_LSTM_SHAPES),
                        steps=3, squash=True)
        assert out.shape == (6, 3)

    @pytest.mark.parametrize(
        "x_shape,wx_shape,wh_shape,bias_shape,steps",
        [
            ((6, 3), (8, 3), (8, 2), (8,), 4),  # rows do not split into steps
            ((6, 3), (8, 3), (8, 2), (8,), 0),  # no step
            ((6, 3), (8, 2), (8, 2), (8,), 3),  # wx columns != input width
            ((6, 3), (8, 3), (6, 2), (8,), 3),  # wh not [4h, h]
            ((6, 3), (8, 3), (8, 2), (6,), 3),  # bias not [4h]
            ((6,), (8, 3), (8, 2), (8,), 3),  # x not 2-D
        ],
    )
    def test_wrong_shapes_raise(self, x_shape, wx_shape, wh_shape, bias_shape, steps):
        tape = Tape()
        head = CONFORMING_LSTM_SHAPES[4:]
        args = [tape.leaf(np.ones(s))
                for s in (x_shape, wx_shape, wh_shape, bias_shape, *head)]
        with pytest.raises(ShapeError):
            tape.lstm(*args, steps=steps, squash=True)

    @pytest.mark.parametrize(
        "w_head_shape,b_head_shape",
        # w_head-rows: rows of 3 weights, not h = 2
        [((3, 3), (3,)), ((3,), (3,)), ((3, 2), (2,)), ((3, 2), (1, 3))],
        ids=["w_head-rows", "w_head-1d", "b_head-width", "b_head-2d"])
    def test_wrong_head_shapes_raise(self, w_head_shape, b_head_shape):
        # only the head does not conform
        tape = Tape()
        args = [tape.leaf(np.ones(s))
                for s in (*CONFORMING_LSTM_SHAPES[:4], w_head_shape, b_head_shape)]
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
        enc = [rng.uniform(-0.8, 0.8, s) for s in ((4 * h, 4), (4 * h, h), (4 * h,),
                                                   (1, h), (1,))]
        dec = [rng.uniform(-0.8, 0.8, s) for s in ((4 * h, 1), (4 * h, h), (4 * h,),
                                                   (4, h), (4,))]

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
        x = tape.leaf(values)
        (grad,) = tape.backward(tape.sum(x), [x])
        np.testing.assert_array_equal(grad, np.ones_like(values))

    @given(arrays(np.float64, (4, 3), elements=finite_floats))
    @settings(max_examples=25, deadline=None)
    def test_column_partition_gradients_cover_input_once(self, values):
        # weights that split the columns into two disjoint sets: each loss
        # reaches its own columns only, and the two gradients add up to the
        # gradient under all weights exactly
        def grad(weights):
            tape = Tape()
            x = tape.leaf(values)
            loss = tape.weighted_mse(tape.leaf(np.zeros_like(values)), x, weights)
            return tape.backward(loss, [x])[0]

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
        weights = [[rng.uniform(-0.8, 0.8, s) for s in ((4 * h, 3), (4 * h, h), (4 * h,),
                                                         (3, h))] for _ in range(2)]

        def bias_grads(shared):
            tape = Tape()
            a = tape.leaf(a_vals)
            b_enc = tape.leaf(b_vals)
            b_dec = b_enc if shared else tape.leaf(b_vals)
            enc, dec = ([tape.leaf(w) for w in ws] for ws in weights)
            latent = tape.lstm(a, *enc, b_enc, steps=2, squash=True)
            loss = tape.sum(tape.lstm(latent, *dec, b_dec, steps=2, squash=False))
            return tape.backward(loss, [b_enc, b_dec])

        shared, _ = bias_grads(True)
        g_enc, g_dec = bias_grads(False)
        np.testing.assert_array_equal(g_dec, np.full(3, 2.0))
        np.testing.assert_array_equal(shared, g_enc + g_dec)
