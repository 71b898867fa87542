"""LSTM autoencoder tests: cell algebra, initialization, shapes, gradients."""

import math

import numpy as np
import pytest

from tracefill.autodiff import Tape, grad_check
from tracefill.nn import (
    GATE_ORDER,
    AutoencoderParams,
    NetConfig,
    forward_steps,
    init_params,
    lift_params,
    param_count,
    param_shapes,
    windowed_forward,
)


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
    def test_default_config_count_frozen(self):
        # encoder 4h(n+h+1) = 64*21 = 1344; latent 2*16+2 = 34;
        # decoder 4h(z+h+1) = 64*19 = 1216; readout 4*16+4 = 68
        assert param_count(NetConfig()) == 2662

    @pytest.mark.parametrize("hidden,latent,n", [(4, 2, 4), (8, 3, 4), (5, 1, 2)])
    def test_formula_matches_actual_arrays(self, hidden, latent, n):
        config = NetConfig(n_features=n, lstm_hidden=hidden, latent_dim=latent)
        params = init_params(config, seed=1)
        total = sum(arr.size for arr in params.as_dict().values())
        assert param_count(config) == total
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
            return tape.sum(tape.mul(h, h))

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
            return tape.mean_sq_diff(out, target)

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
            return tape.sum(tape.mul(out, out))

        err = grad_check(f, base["encoder.wx"].T, eps=1e-6)
        assert err < 1e-5
