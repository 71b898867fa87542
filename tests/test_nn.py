"""LSTM autoencoder tests: cell algebra, initialization, shapes, gradients."""

import contextlib
import math
import multiprocessing
import os
from pathlib import Path
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from tracefill import autodiff, nn, training
from tracefill.autodiff import Tape, grad_check
from tracefill.nn import (
    GATE_ORDER,
    AutoencoderParams,
    NetConfig,
    forward_steps,
    init_params,
    lift_params,
    param_shapes,
    windowed_loss,
    windowed_objective,
)
from tracefill.preprocess import coverage_counts, overlap_mean_values, window_sum


def forward_window(tape, net, window):
    """Forward one [seq_len, n] window as a batch of one; [seq_len, n] out."""
    steps = window.shape[0]
    return forward_steps(tape, net, tape.windows(window, steps), steps)


def zero_params(config: NetConfig) -> AutoencoderParams:
    template = init_params(config, seed=0)
    return AutoencoderParams.from_dict(
        {name: np.zeros_like(arr) for name, arr in template.as_dict().items()}
    )


class TestConfig:
    def test_defaults(self):
        config = NetConfig()
        assert (config.n_features, config.seq_len) == (4, 3)
        assert (config.lstm_hidden, config.latent_dim) == (16, 2)

    def test_latent_must_be_narrower_than_hidden(self):
        with pytest.raises(ValueError):
            NetConfig(lstm_hidden=4, latent_dim=4)

    def test_needs_at_least_two_features(self):
        with pytest.raises(ValueError):
            NetConfig(n_features=1)

    def test_gate_order_is_fixed(self):
        assert GATE_ORDER == ("input", "forget", "candidate", "output")


class TestParamCount:
    @pytest.mark.parametrize("hidden,latent,n", [(4, 2, 4), (8, 3, 4), (5, 1, 2)])
    def test_formula_matches_actual_arrays(self, hidden, latent, n):
        config = NetConfig(n_features=n, lstm_hidden=hidden, latent_dim=latent)
        params = init_params(config, seed=1)
        assert {k: v.shape for k, v in params.as_dict().items()} == param_shapes(config)


class TestInitialization:
    def test_same_seed_is_bit_identical(self):
        a = init_params(NetConfig(), seed=5)
        b = init_params(NetConfig(), seed=5)
        for name in a.as_dict():
            np.testing.assert_array_equal(a.as_dict()[name], b.as_dict()[name])

    def test_different_seeds_differ(self):
        a = init_params(NetConfig(), seed=5)
        b = init_params(NetConfig(), seed=6)
        assert any(
            not np.array_equal(a.as_dict()[n], b.as_dict()[n]) for n in a.as_dict()
        )

    def test_weights_bounded_by_fan_in_and_biases_zero(self):
        config = NetConfig(lstm_hidden=8, latent_dim=3)
        params = init_params(config, seed=2)
        for name, arr in params.as_dict().items():
            if name.endswith("bias"):
                np.testing.assert_array_equal(arr, np.zeros_like(arr))
            else:
                bound = 1.0 / math.sqrt(arr.shape[1])
                assert np.abs(arr).max() <= bound

    def test_lifted_leaves_follow_the_table_in_storage_layout(self):
        config = NetConfig(n_features=3, lstm_hidden=5, latent_dim=2)
        params = init_params(config, seed=3)
        net = lift_params(Tape(), params)
        assert list(net) == list(params.as_dict()) == list(param_shapes(config))
        # every array goes on the tape as stored, the layout the lstm op takes
        for name, arr in params.items():
            np.testing.assert_array_equal(net[name].value, arr)

    def test_from_dict_orders_by_the_table_and_rejects_a_missing_array(self):
        arrays = init_params(NetConfig(), seed=3).as_dict()
        shuffled = dict(reversed(list(arrays.items())))
        assert list(AutoencoderParams.from_dict(shuffled)) == list(arrays)
        del arrays["decoder.wh"]
        with pytest.raises(KeyError, match="decoder.wh"):
            AutoencoderParams.from_dict(arrays)

    def test_round_trip_through_dict(self):
        params = init_params(NetConfig(), seed=3)
        again = AutoencoderParams.from_dict(params.as_dict())
        for name in params.as_dict():
            np.testing.assert_array_equal(
                params.as_dict()[name], again.as_dict()[name]
            )


def encoder_states(tape, net, x, steps):
    """The encoder's hidden states: its ``lstm`` op with an identity head,
    ``hs @ I + 0`` without a squash, which returns them bit for bit."""
    h = net["encoder.wh"].shape[1]
    return tape.lstm(x, net["encoder.wx"], net["encoder.wh"], net["encoder.bias"],
                     tape.leaf(np.eye(h)), tape.leaf(np.zeros(h)), steps, squash=False)


class TestLSTMStep:
    """Cell algebra of the fused ``lstm`` op, read through the stored layout."""

    @staticmethod
    def _run(params, x_val, steps):
        tape = Tape()
        net = lift_params(tape, params)
        x = tape.leaf(np.asarray(x_val, dtype=float))
        return encoder_states(tape, net, x, steps).value

    def test_zero_params_zero_state_gives_zero_output(self):
        # gates are 0.5 and the candidate 0, so c and h stay 0 at every step
        config = NetConfig(n_features=4, lstm_hidden=4, latent_dim=2)
        h = self._run(zero_params(config), np.ones((3, 4)), steps=3)
        np.testing.assert_array_equal(h, np.zeros((3, 4)))

    def test_zero_params_unit_cell_state(self):
        # step 0 loads c ~ 1 (input gate and candidate driven to saturation
        # by x); at step 1, x = 0 and every other parameter is 0, so the
        # gates are 0.5 and the candidate 0: c = 0.5 * 1, h = 0.5 * tanh(0.5)
        config = NetConfig(n_features=4, lstm_hidden=4, latent_dim=2)
        arrays = zero_params(config).as_dict()
        wx = np.zeros((16, 4))
        wx[0:4, 0] = 40.0    # input gate
        wx[8:12, 0] = 40.0   # candidate
        arrays["encoder.wx"] = wx
        x = np.zeros((2, 4))
        x[0, 0] = 1.0
        h = self._run(AutoencoderParams.from_dict(arrays), x, steps=2)
        np.testing.assert_allclose(h[1], np.full(4, 0.5 * math.tanh(0.5)), rtol=1e-12)

    def test_forget_bias_preserves_cell_state(self):
        # a forget bias of 30 pins f ~ 1; x feeds the candidate only at step
        # 0, so the cell state, and with the output gate at 0.5 also h,
        # carries over unchanged through the later steps
        config = NetConfig(n_features=4, lstm_hidden=4, latent_dim=2)
        arrays = zero_params(config).as_dict()
        arrays["encoder.bias"] = arrays["encoder.bias"].copy()
        arrays["encoder.bias"][4:8] = 30.0
        wx = np.zeros((16, 4))
        wx[8:12] = np.diag([0.3, -0.6, 1.2, 0.9])
        arrays["encoder.wx"] = wx
        x = np.zeros((4, 4))
        x[0] = 1.0
        h = self._run(AutoencoderParams.from_dict(arrays), x, steps=4)
        assert np.abs(h[0]).min() > 0.05
        for t in range(1, 4):
            np.testing.assert_allclose(h[t], h[0], rtol=1e-12)

    def test_gradient_through_cell(self):
        config = NetConfig(n_features=2, lstm_hidden=3, latent_dim=1)
        params = init_params(config, seed=4)

        def f(tape, x):
            net = lift_params(tape, params)
            h = encoder_states(tape, net, x, steps=2)
            return tape.weighted_mse(tape.leaf(np.zeros((2, 3))), h, np.ones(3))

        err = grad_check(f, np.array([[0.4, -0.7], [0.1, 0.5]]), eps=1e-6)
        assert err < 1e-5


class TestAutoencoderForward:
    def test_output_shape_matches_input(self):
        config = NetConfig(n_features=4, seq_len=3, lstm_hidden=5, latent_dim=2)
        params = init_params(config, seed=7)
        tape = Tape()
        net = lift_params(tape, params)
        window = tape.leaf(np.linspace(0, 1, 12).reshape(3, 4))
        out = forward_window(tape, net, window)
        assert out.shape == (3, 4)

    def test_zero_params_give_zero_output(self):
        config = NetConfig(n_features=4, seq_len=3, lstm_hidden=4, latent_dim=2)
        params = zero_params(config)
        tape = Tape()
        net = lift_params(tape, params)
        window = tape.leaf(np.random.default_rng(0).uniform(-1, 1, (3, 4)))
        out = forward_window(tape, net, window)
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_batched_steps_match_single_window(self):
        # running each window alone must equal the batched all-windows pass
        config = NetConfig(n_features=4, seq_len=3, lstm_hidden=5, latent_dim=2)
        params = init_params(config, seed=9)
        series = np.random.default_rng(1).uniform(0, 1, (6, 4))

        tape = Tape()
        net = lift_params(tape, params)
        num = series.shape[0] - config.seq_len + 1
        x = tape.leaf(np.concatenate([series[t : t + num] for t in range(config.seq_len)]))
        batched = forward_steps(tape, net, x, config.seq_len).value.reshape(
            config.seq_len, num, -1
        )

        for w in range(num):
            tape_w = Tape()
            net_w = lift_params(tape_w, params)
            window = tape_w.leaf(series[w : w + config.seq_len])
            out = forward_window(tape_w, net_w, window)
            for t in range(config.seq_len):
                # BLAS may pick different kernels for the two shapes, so
                # agreement is to rounding, not bitwise
                np.testing.assert_allclose(
                    out.value[t], batched[t][w], rtol=1e-12, atol=1e-15
                )

    def test_full_gradient_passes_finite_differences(self):
        config = NetConfig(n_features=3, seq_len=3, lstm_hidden=4, latent_dim=2)
        params = init_params(config, seed=12)

        def f(tape, window):
            net = lift_params(tape, params)
            out = forward_window(tape, net, window)
            target = tape.leaf(np.full((3, 3), 0.3))
            return tape.weighted_mse(target, out, np.ones(3))

        x0 = np.random.default_rng(3).uniform(0, 1, (3, 3))
        assert grad_check(f, x0, eps=1e-6) < 1e-5

    def test_parameter_gradients_pass_finite_differences(self):
        # flatten one weight matrix into the checked variable; everything else fixed
        config = NetConfig(n_features=2, seq_len=3, lstm_hidden=3, latent_dim=1)
        base = init_params(config, seed=15)
        window = np.random.default_rng(4).uniform(0, 1, (3, 2))

        def f(tape, wx):
            net = lift_params(tape, base)
            # swap the encoder input weights, lifted as stored, for the checked leaf
            net["encoder.wx"] = wx
            out = forward_window(tape, net, tape.leaf(window))
            return tape.weighted_mse(tape.leaf(np.zeros((3, 2))), out, np.ones(2))

        err = grad_check(f, base["encoder.wx"], eps=1e-6)
        assert err < 1e-5


def whole_series(params, series, seq_len, weights, wrt):
    """``windowed_objective``'s result from one ``windowed_loss`` tape."""
    tape = Tape()
    net = lift_params(tape, params)
    x = tape.leaf(series)
    loss, y = windowed_loss(tape, net, x, seq_len, weights)
    if wrt is None:
        return loss.item(), overlap_mean_values(y.value, seq_len)
    if wrt == "series":
        return loss.item(), tape.backward(loss, [x])[0]
    return loss.item(), dict(zip(net, tape.backward(loss, list(net.values()))))


# every wrt on a float64 and on a float32 series; the float64 ids are the
# bare wrt names
WRT_AND_DTYPE = pytest.mark.parametrize("wrt,dtype", [
    pytest.param(wrt, dtype, id=str(wrt) if dtype is np.float64 else f"{wrt}-float32")
    for dtype in (np.float64, np.float32) for wrt in ("params", "series", None)])


def arrays(result):
    """The arrays of a ``windowed_objective`` result, in a fixed order."""
    return list(result.values()) if isinstance(result, dict) else [result]


class TestWindowedObjective:
    """The chunk loop against one whole-series tape."""

    NET = NetConfig(n_features=4, seq_len=3, lstm_hidden=8, latent_dim=2)
    WEIGHTS = (1.5, 0.0, 0.5, 2.0)

    def setup(self, T):
        params = init_params(self.NET, seed=4)
        series = np.random.default_rng(T).uniform(0.0, 1.0, (T, 4))
        return params, series

    def test_chunks_cover_the_windows_once(self, monkeypatch):
        # 1998 windows: chunks of 512, 512, 512 and 462, each with the
        # seq_len - 1 samples of overlap its last windows need
        seen = []

        def recording(tape, net, series, seq_len, weights):
            seen.append((series.shape[0], weights[0]))
            return windowed_loss(tape, net, series, seq_len, weights)

        monkeypatch.setattr(nn, "windowed_loss", recording)
        params, series = self.setup(2000)
        windowed_objective(params, series, 3, self.WEIGHTS, "series")
        assert [rows for rows, _ in seen] == [514, 514, 514, 464]
        assert [w for _, w in seen] == [1.5 * (512 / 1998)] * 3 + [1.5 * (462 / 1998)]

    @pytest.mark.parametrize("wrt", ["params", "series"])
    def test_gradients_match_one_tape(self, wrt):
        params, series = self.setup(2000)
        loss, grads = windowed_objective(params, series, 3, self.WEIGHTS, wrt)
        ref_loss, ref = whole_series(params, series, 3, self.WEIGHTS, wrt)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for got, want in zip(arrays(grads), arrays(ref), strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_forward_only_output_matches_overlap_mean(self):
        params, series = self.setup(2000)
        loss, out = windowed_objective(params, series, 3, self.WEIGHTS)
        ref_loss, ref = whole_series(params, series, 3, self.WEIGHTS, None)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("T", [3, 40, 514])
    @WRT_AND_DTYPE
    def test_one_chunk_is_bit_identical_to_one_tape(self, T, wrt, dtype):
        # at most CHUNK_WINDOWS windows: one chunk with share 1.0; a float32
        # series runs the kernel in float32 on either side, and the result
        # comes back float64
        params, series = self.setup(T)
        series = series.astype(dtype)
        loss, got = windowed_objective(params, series, 3, self.WEIGHTS, wrt)
        ref_loss, ref = whole_series(params, series, 3, self.WEIGHTS, wrt)
        assert loss == ref_loss
        for got_array, ref_array in zip(arrays(got), arrays(ref), strict=True):
            assert got_array.dtype == np.float64
            np.testing.assert_array_equal(got_array, ref_array)

    @pytest.mark.parametrize("T", [40, 2000])
    def test_parameter_gradients_come_back_in_storage_layout(self, T):
        # one chunk (T=40) or four added in place (T=2000): each gradient is
        # a C-contiguous array of its parameter's shape, bit for bit the sum
        # of backward over leaves that lift_params makes of the stored arrays
        params, series = self.setup(T)
        loss, grads = windowed_objective(params, series, 3, self.WEIGHTS, "params")
        ref_loss, ref = chunk_by_chunk(params, series, 3, self.WEIGHTS, "params",
                                       nn.CHUNK_WINDOWS)
        assert loss == ref_loss and list(grads) == list(params)
        for name, grad in grads.items():
            assert grad.shape == params[name].shape and grad.flags.c_contiguous, name
            np.testing.assert_array_equal(grad, ref[name])

    def test_non_finite_loss_returns_before_backward(self, monkeypatch):
        params, series = self.setup(40)
        huge = AutoencoderParams.from_dict(
            {k: v * 1e300 for k, v in params.as_dict().items()})

        def no_backward(tape, loss):
            raise AssertionError("backward ran on a non-finite loss")

        monkeypatch.setattr(Tape, "backward", no_backward)
        loss, grads = windowed_objective(huge, series, 3, self.WEIGHTS, "params")
        assert not np.isfinite(loss) and grads is None

    @pytest.mark.parametrize("wrt", ["params", "series", None])
    def test_a_parameter_beyond_float32_is_a_non_finite_loss(self, monkeypatch, wrt):
        # 1e39 is finite in the float64 master copy but not in float32: the
        # call ends as a diverged one, with no cast warning (an error under
        # this suite's filter), no NonFiniteError from a leaf and no backward
        params, series = self.setup(40)
        params["decoder.wh"][3, 1] = 1e39

        def no_backward(tape, loss, wrt):
            raise AssertionError("backward ran on a non-finite loss")

        monkeypatch.setattr(Tape, "backward", no_backward)
        loss, result = windowed_objective(params, series.astype(np.float32), 3,
                                          self.WEIGHTS, wrt)
        assert not np.isfinite(loss)
        if wrt is None:
            assert result.shape == series.shape and np.isnan(result).all()
        else:
            assert result is None

    def test_rejects_bad_wrt_and_short_series(self):
        params, series = self.setup(40)
        with pytest.raises(ValueError):
            windowed_objective(params, series, 3, self.WEIGHTS, "weights")
        with pytest.raises(ValueError):
            windowed_objective(params, series[:2], 3, self.WEIGHTS)

    def test_memory_is_flat_in_series_length(self):
        self.assert_flat_memory(contextlib.nullcontext)

    def test_memory_is_flat_in_series_length_in_float32(self):
        self.assert_flat_memory(contextlib.nullcontext, np.float32)

    def test_memory_is_flat_inside_the_helper_scope(self):
        # the same bound with the helper, forked by the first 2k call
        with deadline(HELPER_DEADLINE_S):
            self.assert_flat_memory(nn.chunk_helper)

    def assert_flat_memory(self, scope, dtype=np.float64):
        # the tracemalloc peak of one reconstruction objective at 20k and
        # 200k samples stays within 1.2x the 2k peak, plus the [T, n]
        # gradient the loop returns
        params = init_params(NetConfig(n_features=4, seq_len=3, lstm_hidden=4,
                                       latent_dim=2), seed=0)
        peaks = {}
        with scope():
            # the second 2k call overwrites the first one's peak, so the
            # baseline never includes the arena's first allocation or the
            # helper's fork, whatever ran before in the process
            for T in (2_000, 2_000, 20_000, 200_000):
                series = np.random.default_rng(0).uniform(0.0, 1.0, (T, 4)).astype(dtype)
                tracemalloc.start()
                try:
                    windowed_objective(params, series, 3, self.WEIGHTS, "series")
                    peaks[T] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for T in (20_000, 200_000):
            assert peaks[T] <= 1.2 * peaks[2_000] + T * 4 * 8, peaks


def chunk_by_chunk(params, series, seq_len, weights, wrt, chunk):
    """``windowed_objective``'s result summed from fresh ``windowed_loss`` tapes."""
    num_windows = series.shape[0] - seq_len + 1
    weights = np.asarray(weights, dtype=np.float64)
    loss_sum, result = 0.0, None if wrt == "params" else np.zeros(series.shape)
    for w0 in range(0, num_windows, chunk):
        w1 = min(w0 + chunk, num_windows)
        rows = slice(w0, w1 + seq_len - 1)
        tape = Tape()
        net = lift_params(tape, params)
        x = tape.leaf(series[rows])
        loss, y = windowed_loss(tape, net, x, seq_len, weights * ((w1 - w0) / num_windows))
        loss_sum += loss.item()
        if wrt is None:
            result[rows] += window_sum(y.value, seq_len)
            continue
        if wrt == "series":
            result[rows] += tape.backward(loss, [x])[0]
            continue
        grads = dict(zip(net, tape.backward(loss, list(net.values()))))
        if result is None:  # the sum is float64 whatever the kernel's dtype
            result = {name: grad.astype(np.float64) for name, grad in grads.items()}
        else:
            for name, grad in grads.items():
                result[name] += grad
    if wrt is None:
        result /= coverage_counts(series.shape[0], seq_len)[:, None]
    return loss_sum, result


def record_lstm(monkeypatch) -> list:
    """Make every ``lstm`` forward append its ``(output, residuals)`` to a list."""
    calls, rule = [], autodiff._OPS["lstm"]

    def forward(values, kwargs):
        out, saved = rule.forward(values, kwargs)
        calls.append((out, saved))
        return out, saved

    monkeypatch.setitem(autodiff._OPS, "lstm", autodiff._OpRule(forward, rule.backward))
    return calls


class TestLSTMArena:
    """``windowed_objective`` reuses the ``lstm`` working arrays across chunks."""

    NET = TestWindowedObjective.NET
    WEIGHTS = TestWindowedObjective.WEIGHTS
    setup = TestWindowedObjective.setup

    @WRT_AND_DTYPE
    def test_short_last_chunk_is_bit_identical_to_fresh_tapes(self, monkeypatch, wrt, dtype):
        # 38 windows in chunks of 16: the last chunk of 6 takes leading views
        monkeypatch.setattr(nn, "CHUNK_WINDOWS", 16)
        params, series = self.setup(40)
        series = series.astype(dtype)
        loss, got = windowed_objective(params, series, 3, self.WEIGHTS, wrt)
        ref_loss, ref = chunk_by_chunk(params, series, 3, self.WEIGHTS, wrt, 16)
        assert loss == ref_loss
        for got_array, ref_array in zip(arrays(got), arrays(ref), strict=True):
            np.testing.assert_array_equal(got_array, ref_array)

    @pytest.mark.parametrize("wrt", ["params", "series", None])
    def test_tapes_outside_the_arena_keep_their_values(self, monkeypatch, wrt):
        calls = record_lstm(monkeypatch)
        params, series = self.setup(40)
        tape = Tape()
        net = lift_params(tape, params)
        x = tape.leaf(series)
        leaves = [*net.values(), x]
        loss, y = windowed_loss(tape, net, x, 3, self.WEIGHTS)
        values = [out for out, _ in calls] + [y.value]
        before = [v.copy() for v in values]
        grads_before = tape.backward(loss, leaves)
        windowed_objective(params, self.setup(600)[1], 3, self.WEIGHTS, wrt)
        for value, copy in zip(values, before, strict=True):
            np.testing.assert_array_equal(value, copy)
        # the residuals are intact too: the backward gives the same gradients
        grads_after = tape.backward(loss, leaves)
        for grad_after, grad in zip(grads_after, grads_before, strict=True):
            np.testing.assert_array_equal(grad_after, grad)

    def test_second_call_reuses_the_arrays_of_the_first(self, monkeypatch):
        calls = record_lstm(monkeypatch)
        monkeypatch.setattr(autodiff._arena, "buffers", {})
        params, series = self.setup(40)
        windowed_objective(params, series, 3, self.WEIGHTS, "params")
        dhs = autodiff._arena.buffers["dhs", np.dtype(np.float64)]
        windowed_objective(params, series[:30], 3, self.WEIGHTS, "series")
        (enc_a, saved_a), (dec_a, saved_dec), (enc_b, saved_b), (dec_b, _) = calls
        # xa, acts, cs, tanh_cs and hs
        for first, second in zip(saved_a[:5], saved_b[:5], strict=True):
            assert np.shares_memory(first, second)
        # the hidden-state gradient buffer of the backward
        assert autodiff._arena.buffers["dhs", np.dtype(np.float64)] is dhs
        # one set of residuals per call position, and fresh outputs
        for first, dec in zip(saved_a[:5], saved_dec[:5], strict=True):
            assert not np.shares_memory(first, dec)
        assert not np.shares_memory(enc_a, enc_b) and not np.shares_memory(dec_a, dec_b)


needs_two_cpus = pytest.mark.skipif(
    nn._cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods(),
    reason="the chunk helper needs fork and a second CPU")


def assert_same_bits(got, want):
    assert got[0] == want[0]
    for got_array, want_array in zip(arrays(got[1]), arrays(want[1]), strict=True):
        np.testing.assert_array_equal(got_array, want_array)


HELPER_DEADLINE_S = 60


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block if it runs longer than ``seconds``.

    The timer fires again every second after that, so a ``finally`` that
    blocks on the same pipe is interrupted too.
    """

    def expired(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def helper_pid_in_errors(monkeypatch):
    """Make every chunk's NonFiniteError name the process that ran it."""
    chunk = nn._chunk

    def tagged(*job):
        try:
            return chunk(*job)
        except autodiff.NonFiniteError as exc:
            raise autodiff.NonFiniteError(f"{exc} in pid {os.getpid()}") from None

    monkeypatch.setattr(nn, "_chunk", tagged)


@needs_two_cpus
class TestChunkHelper:
    """``windowed_objective`` inside ``chunk_helper`` against the serial loop."""

    NET = TestWindowedObjective.NET
    WEIGHTS = TestWindowedObjective.WEIGHTS
    setup = TestWindowedObjective.setup

    @pytest.fixture(autouse=True)
    def no_hang(self):
        # tier-1 has no per-test timeout, so a helper that never answers
        # would block the suite instead of failing this test
        with deadline(HELPER_DEADLINE_S):
            yield

    @pytest.mark.parametrize("T,chunk", [(2000, 512), (40, 16)])
    @WRT_AND_DTYPE
    def test_bit_identical_to_the_serial_loop(self, monkeypatch, T, chunk, wrt, dtype):
        # 40 samples in chunks of 16: three chunks, the last one short and
        # the helper's
        monkeypatch.setattr(nn, "CHUNK_WINDOWS", chunk)
        params, series = self.setup(T)
        series = series.astype(dtype)
        serial = windowed_objective(params, series, 3, self.WEIGHTS, wrt)
        with nn.chunk_helper():
            for _ in range(2):  # the call that forks, and a warm one
                assert_same_bits(windowed_objective(params, series, 3, self.WEIGHTS, wrt),
                                 serial)
            assert nn._helper.process.is_alive()

    def test_helper_chunk_error_is_raised_with_its_type(self, monkeypatch):
        helper_pid_in_errors(monkeypatch)
        params, series = self.setup(2000)
        nan = AutoencoderParams.from_dict({k: v * np.nan for k, v in params.items()})
        serial = windowed_objective(params, series, 3, self.WEIGHTS, "params")
        with nn.chunk_helper():
            with pytest.raises(autodiff.NonFiniteError) as info:
                windowed_objective(nan, series, 3, self.WEIGHTS, "params")
            assert f"in pid {nn._helper.process.pid}" in str(info.value)
            assert_same_bits(windowed_objective(params, series, 3, self.WEIGHTS, "params"),
                             serial)

    @pytest.mark.parametrize("end", ["own chunk raises", "loss is not finite",
                                     "helper's loss is not finite"])
    def test_an_early_end_leaves_the_pipe_in_step(self, monkeypatch, end):
        # an early end at the caller's chunk leaves the helper running its
        # third chunk, and one at the helper's leaves its end marker in the
        # pipe; a stale message would be read as the next call's first
        params, series = self.setup(2000)
        serial = windowed_objective(params, series, 3, self.WEIGHTS, "series")
        with nn.chunk_helper():
            windowed_objective(params, series, 3, self.WEIGHTS, "series")  # forks
            if end == "own chunk raises":
                with monkeypatch.context() as patch:
                    patch.setattr(nn, "_chunk", lambda *job: 1 / 0)
                    with pytest.raises(ZeroDivisionError):
                        windowed_objective(params, series, 3, self.WEIGHTS, "series")
            else:
                bad = series.copy()
                # the second chunk's loss overflows, or the first's, the helper's
                bad[520 if end == "loss is not finite" else 10] = 1e300
                loss, grad = windowed_objective(params, bad, 3, self.WEIGHTS, "series")
                assert not np.isfinite(loss) and grad is None
            assert_same_bits(windowed_objective(params, series, 3, self.WEIGHTS, "series"),
                             serial)

    def test_calls_of_any_size_and_dtype_in_one_scope_give_the_serial_bits(self):
        # one helper serves calls whose series grow and shrink and switch
        # dtype, and each call's series arrives with its own shape and dtype
        params = self.setup(40)[0]
        calls = [(T, dtype, wrt) for T, dtype in [(1200, np.float32), (2000, np.float64),
                                                  (600, np.float32), (1100, np.float64)]
                 for wrt in ("params", "series", None)]
        serial = [windowed_objective(params, self.setup(T)[1].astype(dtype), 3,
                                     self.WEIGHTS, wrt) for T, dtype, wrt in calls]
        with nn.chunk_helper():
            for (T, dtype, wrt), want in zip(calls, serial, strict=True):
                got = windowed_objective(params, self.setup(T)[1].astype(dtype), 3,
                                         self.WEIGHTS, wrt)
                assert_same_bits(got, want)

    @pytest.mark.parametrize("layout", ["Fortran order", "column stride", "float32"])
    def test_any_series_layout_gives_the_serial_bits(self, layout):
        # the series reaches the helper as raw bytes in C order
        params, series = self.setup(2000)
        if layout == "Fortran order":
            series = np.asfortranarray(series)
        elif layout == "column stride":
            wide = np.repeat(series, 2, axis=1)
            wide[:, 1::2] = -1.0
            series = wide[:, ::2]
        else:
            series = series.astype(np.float32)
        serial = windowed_objective(params, series, 3, self.WEIGHTS, "series")
        with nn.chunk_helper():
            assert_same_bits(windowed_objective(params, series, 3, self.WEIGHTS, "series"),
                             serial)

    @pytest.mark.parametrize("end", ["chunk raises", "loss is not finite"])
    def test_the_helper_stops_at_its_own_early_end(self, monkeypatch, tmp_path, end):
        # four chunks; the call ends at the helper's first, so the helper
        # never runs the third, and the caller runs only the second
        log = tmp_path / "chunks.log"
        chunk = nn._chunk

        def logged(*job):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return chunk(*job)

        monkeypatch.setattr(nn, "_chunk", logged)  # before the fork: both processes log
        params, series = self.setup(2000)
        with nn.chunk_helper():
            if end == "chunk raises":
                nan = AutoencoderParams.from_dict({k: v * np.nan for k, v in params.items()})
                with pytest.raises(autodiff.NonFiniteError):
                    windowed_objective(nan, series, 3, self.WEIGHTS, "params")
            else:
                series[10] = 1e300
                loss, grad = windowed_objective(params, series, 3, self.WEIGHTS, "params")
                assert not np.isfinite(loss) and grad is None
            helper = nn._helper.process.pid
        assert sorted(log.read_text().split()) == sorted([str(helper), str(os.getpid())])

    def test_a_dead_helper_raises(self):
        params, series = self.setup(2000)
        with nn.chunk_helper():
            windowed_objective(params, series, 3, self.WEIGHTS, "series")
            process = nn._helper.process
            os.kill(process.pid, signal.SIGKILL)
            process.join(5)
            with pytest.raises(RuntimeError, match="chunk helper died"):
                windowed_objective(params, series, 3, self.WEIGHTS, "series")

    def test_a_job_and_a_reply_larger_than_the_pipe_buffer_pass(self):
        # hidden 96: the parameters, their gradient and so each job and
        # reply hold about 590 kB, more than a socket buffer
        params = init_params(NetConfig(n_features=4, seq_len=3, lstm_hidden=96,
                                       latent_dim=2), seed=1)
        series = self.setup(2000)[1]
        serial = windowed_objective(params, series, 3, self.WEIGHTS, "params")

        with nn.chunk_helper():
            got = windowed_objective(params, series, 3, self.WEIGHTS, "params")
        assert_same_bits(got, serial)

    def test_scope_exit_joins_the_helper_and_nesting_raises(self):
        params, series = self.setup(2000)
        with nn.chunk_helper():
            windowed_objective(params, series, 3, self.WEIGHTS, None)
            process = nn._helper.process
            with pytest.raises(RuntimeError, match="already open"):
                with nn.chunk_helper():
                    pass
            assert process.is_alive()
        assert process.exitcode == 0 and nn._helper.process is None

    def test_divergence_in_train_joins_the_helper(self, monkeypatch, toy_datasets):
        # 38 windows in chunks of 16: each update forks on its first call
        monkeypatch.setattr(nn, "CHUNK_WINDOWS", 16)
        helpers = []
        objective = training.windowed_objective

        def recording(*args):
            helpers.append(nn._helper.process)
            return objective(*args)

        monkeypatch.setattr(training, "windowed_objective", recording)
        config = training.TrainConfig(epochs=5, learning_rate=1e300, net=NetConfig(
            n_features=4, seq_len=3, lstm_hidden=4, latent_dim=2))
        with pytest.raises(training.DivergenceError):
            training.train(toy_datasets, config)
        helper = helpers[-1]
        assert helper is not None and helper.exitcode == 0
        assert not multiprocessing.active_children()

    def test_the_helper_exits_when_its_caller_is_killed(self):
        script = (
            "import sys, time\n"
            "import numpy as np\n"
            "from tracefill import nn\n"
            "params = nn.init_params(nn.NetConfig(lstm_hidden=4), seed=0)\n"
            "series = np.random.default_rng(0).uniform(0.0, 1.0, (2000, 4))\n"
            "with nn.chunk_helper():\n"
            "    nn.windowed_objective(params, series, 3, np.ones(4), 'series')\n"
            "    print(nn._helper.process.pid, flush=True)\n"
            "    time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(nn.__file__).parents[1]), os.environ.get("PYTHONPATH"))
            if p))
        caller = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
        try:
            pid = int(caller.stdout.readline())
        finally:
            caller.kill()
            caller.wait(5)
            caller.stdout.close()
        deadline = time.monotonic() + 5.0
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(pid)


def alive(pid: int) -> bool:
    """Whether ``pid`` names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
