"""LSTM autoencoder tests: cell algebra, initialization, shapes, gradients."""

import math
import tracemalloc

import numpy as np
import pytest

from tracefill import nn
from tracefill.autodiff import Tape, grad_check
from tracefill.nn import (
    GATE_ORDER,
    AutoencoderParams,
    NetConfig,
    forward_steps,
    init_params,
    lift_params,
    param_shapes,
    windowed_forward,
    windowed_loss,
    windowed_objective,
)
from tracefill.preprocess import overlap_mean_values


def forward_window(tape, net, window):
    """Forward one [seq_len, n] window as a batch of one; [seq_len, n] out."""
    return windowed_forward(tape, net, window, window.shape[0])[1]


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

    def test_lifted_leaves_follow_the_table_in_matmul_layout(self):
        config = NetConfig(n_features=3, lstm_hidden=5, latent_dim=2)
        params = init_params(config, seed=3)
        net = lift_params(Tape(), params, requires_grad=False)
        assert list(net) == list(params.as_dict()) == list(param_shapes(config))
        # matrices go on the tape as [in, out]; biases as stored
        for name, arr in params.items():
            np.testing.assert_array_equal(net[name].value, arr.T)

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


class TestLSTMStep:
    """Cell algebra of the fused ``lstm`` op, read through the stored layout."""

    @staticmethod
    def _run(params, x_val, steps):
        tape = Tape()
        net = lift_params(tape, params, requires_grad=False)
        x = tape.leaf(np.asarray(x_val, dtype=float))
        return tape.lstm(x, net["encoder.wx"], net["encoder.wh"], net["encoder.bias"],
                         steps).value

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
            net = lift_params(tape, params, requires_grad=False)
            h = tape.lstm(x, net["encoder.wx"], net["encoder.wh"], net["encoder.bias"],
                          steps=2)
            return tape.weighted_mse(tape.leaf(np.zeros((2, 3))), h, np.ones(3))

        err = grad_check(f, np.array([[0.4, -0.7], [0.1, 0.5]]), eps=1e-6)
        assert err < 1e-5


class TestAutoencoderForward:
    def test_output_shape_matches_input(self):
        config = NetConfig(n_features=4, seq_len=3, lstm_hidden=5, latent_dim=2)
        params = init_params(config, seed=7)
        tape = Tape()
        net = lift_params(tape, params, requires_grad=False)
        window = tape.leaf(np.linspace(0, 1, 12).reshape(3, 4))
        out = forward_window(tape, net, window)
        assert out.shape == (3, 4)

    def test_zero_params_give_zero_output(self):
        config = NetConfig(n_features=4, seq_len=3, lstm_hidden=4, latent_dim=2)
        params = zero_params(config)
        tape = Tape()
        net = lift_params(tape, params, requires_grad=False)
        window = tape.leaf(np.random.default_rng(0).uniform(-1, 1, (3, 4)))
        out = forward_window(tape, net, window)
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_batched_steps_match_single_window(self):
        # running each window alone must equal the batched all-windows pass
        config = NetConfig(n_features=4, seq_len=3, lstm_hidden=5, latent_dim=2)
        params = init_params(config, seed=9)
        series = np.random.default_rng(1).uniform(0, 1, (6, 4))

        tape = Tape()
        net = lift_params(tape, params, requires_grad=False)
        num = series.shape[0] - config.seq_len + 1
        x = tape.leaf(np.concatenate([series[t : t + num] for t in range(config.seq_len)]))
        batched = forward_steps(tape, net, x, config.seq_len).value.reshape(
            config.seq_len, num, -1
        )

        for w in range(num):
            tape_w = Tape()
            net_w = lift_params(tape_w, params, requires_grad=False)
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
            net = lift_params(tape, params, requires_grad=False)
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
            net = lift_params(tape, base, requires_grad=False)
            # swap the encoder input weights, lifted [in, 4h], for the checked leaf
            net["encoder.wx"] = wx
            out = forward_window(tape, net, tape.leaf(window))
            return tape.weighted_mse(tape.leaf(np.zeros((3, 2))), out, np.ones(2))

        err = grad_check(f, base["encoder.wx"].T, eps=1e-6)
        assert err < 1e-5


def whole_series(params, series, seq_len, weights, wrt):
    """``windowed_objective``'s result from one ``windowed_loss`` tape."""
    tape = Tape()
    net = lift_params(tape, params, requires_grad=wrt == "params")
    x = tape.leaf(series, requires_grad=wrt == "series")
    loss, y = windowed_loss(tape, net, x, seq_len, weights)
    if wrt is None:
        return loss.item(), overlap_mean_values(y.value, seq_len)
    grads = tape.backward(loss)
    if wrt == "series":
        return loss.item(), grads[x]
    return loss.item(), {name: grads[v].T for name, v in net.items()}


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
    @pytest.mark.parametrize("wrt", ["params", "series", None])
    def test_one_chunk_is_bit_identical_to_one_tape(self, T, wrt):
        # at most CHUNK_WINDOWS windows: one chunk with share 1.0
        params, series = self.setup(T)
        loss, got = windowed_objective(params, series, 3, self.WEIGHTS, wrt)
        ref_loss, ref = whole_series(params, series, 3, self.WEIGHTS, wrt)
        assert loss == ref_loss
        for got_array, ref_array in zip(arrays(got), arrays(ref), strict=True):
            np.testing.assert_array_equal(got_array, ref_array)

    def test_non_finite_loss_returns_before_backward(self, monkeypatch):
        params, series = self.setup(40)
        huge = AutoencoderParams.from_dict(
            {k: v * 1e300 for k, v in params.as_dict().items()})

        def no_backward(tape, loss):
            raise AssertionError("backward ran on a non-finite loss")

        monkeypatch.setattr(Tape, "backward", no_backward)
        loss, grads = windowed_objective(huge, series, 3, self.WEIGHTS, "params")
        assert not np.isfinite(loss) and grads is None

    def test_rejects_bad_wrt_and_short_series(self):
        params, series = self.setup(40)
        with pytest.raises(ValueError):
            windowed_objective(params, series, 3, self.WEIGHTS, "weights")
        with pytest.raises(ValueError):
            windowed_objective(params, series[:2], 3, self.WEIGHTS)

    def test_memory_is_flat_in_series_length(self):
        # the tracemalloc peak of one reconstruction objective at 20k and
        # 200k samples stays within 1.2x the 2k peak, plus the [T, n]
        # gradient the loop returns
        params = init_params(NetConfig(n_features=4, seq_len=3, lstm_hidden=4,
                                       latent_dim=2), seed=0)
        peaks = {}
        for T in (2_000, 20_000, 200_000):
            series = np.random.default_rng(0).uniform(0.0, 1.0, (T, 4))
            tracemalloc.start()
            try:
                windowed_objective(params, series, 3, self.WEIGHTS, "series")
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for T in (20_000, 200_000):
            assert peaks[T] <= 1.2 * peaks[2_000] + T * 4 * 8, peaks
