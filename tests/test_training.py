"""Training loop tests at toy scale."""

import gc
import weakref

import numpy as np
import pytest

from tracefill import nn
from tracefill.autodiff import Tape
from tracefill.nn import (
    AutoencoderParams,
    NetConfig,
    forward_steps,
    init_params,
    lift_params,
    windowed_loss,
    windowed_objective,
)
from tracefill.optim import mse
from tracefill.preprocess import TimeSeriesSet, transform, window_stack
from tracefill.reconstruct import ReconstructionSpec, reconstruct
from tracefill.training import (
    DivergenceError,
    TrainConfig,
    evaluate_model,
    reconstruct_series,
    train,
)

TOY_NET = NetConfig(n_features=4, seq_len=3, lstm_hidden=4, latent_dim=2)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.epochs == 1000
        assert config.learning_rate == 0.001
        assert config.net.seq_len == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)


class TestParameterGradients:
    def test_square_readout_gradient_is_in_storage_layout(self):
        # n_features == lstm_hidden makes readout.weight square, so a
        # transposed gradient would pass Adam's shape check
        assert TOY_NET.n_features == TOY_NET.lstm_hidden
        params = init_params(TOY_NET, seed=1)
        scaled = np.random.default_rng(0).uniform(0.0, 1.0, (12, 4))
        pooled = np.full(4, 0.25)  # the weights training uses
        _, grads = windowed_objective(params, scaled, TOY_NET.seq_len, pooled, "params")
        g = grads["readout.weight"]

        def loss_at(delta):
            arrays = params.as_dict()
            arrays["readout.weight"] = arrays["readout.weight"].copy()
            arrays["readout.weight"][0, 2] += delta
            return windowed_objective(AutoencoderParams.from_dict(arrays), scaled,
                                      TOY_NET.seq_len, pooled)[0]

        eps = 1e-6
        numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
        assert g[0, 2] == pytest.approx(numeric, rel=1e-6)
        # the mirrored entry is far off, so a transposed gradient would fail
        assert abs(g[2, 0] - numeric) > abs(numeric)


class TestTrain:
    def test_loss_drops_and_history_is_complete(self, toy_datasets):
        config = TrainConfig(epochs=25, seed=0, net=TOY_NET)
        model, history = train(toy_datasets, config)
        assert len(history) == 25 * len(toy_datasets)
        first = np.mean([r.loss for r in history[: len(toy_datasets)]])
        last = np.mean([r.loss for r in history[-len(toy_datasets) :]])
        assert last < first
        assert all(np.isfinite(r.loss) for r in history)
        assert len(model.final_losses) == len(toy_datasets)

    def test_dataset_rotation_order(self, toy_datasets):
        config = TrainConfig(epochs=3, seed=0, net=TOY_NET)
        _, history = train(toy_datasets, config)
        order = [r.dataset_index for r in history]
        # epoch e starts at dataset e % D and wraps around
        assert order == [0, 1, 2, 1, 2, 0, 2, 0, 1]
        epochs = [r.epoch for r in history]
        assert epochs == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_training_is_deterministic(self, toy_datasets):
        config = TrainConfig(epochs=8, seed=4, net=TOY_NET)
        model_a, hist_a = train(toy_datasets, config)
        model_b, hist_b = train(toy_datasets, config)
        for name, arr in model_a.params.as_dict().items():
            np.testing.assert_array_equal(arr, model_b.params.as_dict()[name])
        assert [r.loss for r in hist_a] == [r.loss for r in hist_b]

    def test_seed_changes_the_result(self, toy_datasets):
        config_a = TrainConfig(epochs=5, seed=1, net=TOY_NET)
        config_b = TrainConfig(epochs=5, seed=2, net=TOY_NET)
        model_a, _ = train(toy_datasets, config_a)
        model_b, _ = train(toy_datasets, config_b)
        assert any(
            not np.array_equal(
                model_a.params.as_dict()[n], model_b.params.as_dict()[n]
            )
            for n in model_a.params.as_dict()
        )

    def test_scaler_covers_all_training_data(self, toy_datasets):
        config = TrainConfig(epochs=2, seed=0, net=TOY_NET)
        model, _ = train(toy_datasets, config)
        stacked = np.vstack([d.values for d in toy_datasets])
        np.testing.assert_array_equal(model.scaler.mins, stacked.min(axis=0))
        np.testing.assert_array_equal(model.scaler.maxs, stacked.max(axis=0))

    def test_mismatched_feature_names_raise(self, toy_datasets):
        bad = TimeSeriesSet(
            ("a", "b", "c", "d"),
            0.0,
            1e-8,
            np.zeros((40, 4)) + np.linspace(0, 1, 40)[:, None],
        )
        with pytest.raises(ValueError):
            train([toy_datasets[0], bad], TrainConfig(epochs=1, net=TOY_NET))

    def test_too_short_series_raises(self, toy_datasets):
        short = toy_datasets[0].replace_values(toy_datasets[0].values[:2])
        with pytest.raises(ValueError):
            train([short], TrainConfig(epochs=1, net=TOY_NET))

    def test_feature_count_must_match_net(self, toy_datasets):
        config = TrainConfig(epochs=1, net=NetConfig(n_features=3, lstm_hidden=4, latent_dim=2))
        with pytest.raises(ValueError):
            train(toy_datasets, config)

    def test_uniform_windowed_loss_is_the_pooled_window_mse(self, toy_model, toy_datasets):
        # training's objective, windowed_loss with weights 1/n on the series,
        # equals the pooled MSE over precomputed window steps, bit for bit,
        # in the loss and in every parameter gradient
        model, _ = toy_model
        scaled = transform(model.scaler, toy_datasets[1]).values
        seq_len = model.net.seq_len

        def windowed(tape, net):
            weights = np.full(scaled.shape[1], 1.0 / scaled.shape[1])
            return windowed_loss(tape, net, tape.leaf(scaled), seq_len, weights)[0]

        def pooled(tape, net):
            x = tape.leaf(window_stack(scaled, seq_len))
            return mse(tape, x, forward_steps(tape, net, x, seq_len))

        results = []
        for build in (windowed, pooled):
            tape = Tape()
            net = lift_params(tape, model.params)
            loss = build(tape, net)
            grads = tape.backward(loss, list(net.values()))
            results.append((loss.item(), dict(zip(net, grads))))
        (loss_a, grads_a), (loss_b, grads_b) = results
        assert loss_a == loss_b
        for name in grads_a:
            np.testing.assert_array_equal(grads_a[name], grads_b[name])

    def test_divergence_names_the_dataset_and_epoch(self, toy_datasets):
        # the chunk loop stops before a backward on a non-finite loss, so
        # train, not the tape, reports the divergence
        config = TrainConfig(epochs=3, learning_rate=1e300, net=TOY_NET)
        with pytest.raises(DivergenceError,
                           match=r"non-finite loss on dataset \d+ in epoch \d+"):
            train(toy_datasets, config)

    def test_constant_series_reconstructs_well(self):
        # an autoencoder trained on constants should reproduce them closely
        values = np.full((30, 4), 1.0) * np.array([2.0, 0.5, -1.0, 3.0])
        noise = np.linspace(0, 0.05, 30)[:, None] * np.array([1.0, -1.0, 1.0, -1.0])
        data = TimeSeriesSet(("a", "b", "c", "d"), 0.0, 1.0, values + noise)
        config = TrainConfig(epochs=300, seed=0, learning_rate=0.03, net=TOY_NET)
        model, _ = train([data], config)
        report = evaluate_model(model, data)
        assert max(report.mse_scaled.values()) < 1e-3


class TestTapeLifetime:
    """No tape outlives its chunk.

    The lstm arena reuses a chunk's residual arrays, so each chunk's tape
    must be gone before the next one records.
    """

    @staticmethod
    def max_live_tapes(monkeypatch, run) -> int:
        live, peak = weakref.WeakSet(), [0]
        init = Tape.__init__

        def tracked(tape):
            init(tape)
            live.add(tape)
            peak[0] = max(peak[0], len(live))

        monkeypatch.setattr(Tape, "__init__", tracked)
        gc.disable()
        try:
            run()
        finally:
            gc.enable()
        return peak[0]

    def test_training(self, monkeypatch, toy_datasets):
        config = TrainConfig(epochs=3, net=TOY_NET)
        assert self.max_live_tapes(monkeypatch, lambda: train(toy_datasets, config)) <= 1

    def test_reconstruction(self, monkeypatch, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u2",), epochs=5)
        assert self.max_live_tapes(
            monkeypatch, lambda: reconstruct(model, toy_datasets[0], spec)) <= 1

    def test_many_chunks(self, monkeypatch, toy_model, toy_datasets):
        # 38 windows in chunks of 8: five tapes per update and per epoch
        monkeypatch.setattr(nn, "CHUNK_WINDOWS", 8)
        model, _ = toy_model
        config = TrainConfig(epochs=2, net=TOY_NET)
        spec = ReconstructionSpec(missing=("u2",), epochs=3)

        def run():
            train(toy_datasets, config)
            reconstruct(model, toy_datasets[0], spec)

        assert self.max_live_tapes(monkeypatch, run) <= 1


class TestEvaluation:
    def test_reconstruction_shape_and_determinism(self, toy_model, toy_datasets):
        model, _ = toy_model
        data = toy_datasets[0]
        report_a = evaluate_model(model, data)
        report_b = evaluate_model(model, data)
        assert report_a.reconstruction.values.shape == data.values.shape
        np.testing.assert_array_equal(
            report_a.reconstruction.values, report_b.reconstruction.values
        )
        assert report_a.mse_scaled == report_b.mse_scaled

    def test_reconstruct_series_round_trip_scale(self, toy_model, toy_datasets):
        model, _ = toy_model
        scaled = transform(model.scaler, toy_datasets[0])
        out = reconstruct_series(model, scaled.values)
        assert out.shape == scaled.values.shape
        assert np.isfinite(out).all()
