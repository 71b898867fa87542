"""Missing-feature reconstruction tests at toy scale.

The pivotal contracts: model parameters are frozen bits, the loss never
reads the data's missing columns, and the optimization actually moves
the missing series toward something the model can explain.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from tracefill import cli, nn, training
from tracefill.preprocess import transform
from tracefill.reconstruct import (
    DEFAULT_EPOCHS_MULTI_MISSING,
    DEFAULT_EPOCHS_ONE_MISSING,
    ReconstructionSpec,
    reconstruct,
)
from tracefill.training import (
    DivergenceError,
    TrainConfig,
    evaluate_model,
    reconstruct_series,
    train,
)


class TestSpecValidation:
    def test_defaults(self):
        spec = ReconstructionSpec(missing=("u1",))
        assert spec.learning_rate == 0.005
        assert spec.init == "zeros"
        assert spec.resolved_epochs() == DEFAULT_EPOCHS_ONE_MISSING == 300

    def test_multi_missing_default_epochs(self):
        spec = ReconstructionSpec(missing=("u1", "u2"))
        assert spec.resolved_epochs() == DEFAULT_EPOCHS_MULTI_MISSING == 3000

    def test_explicit_epochs_override(self):
        spec = ReconstructionSpec(missing=("u1",), epochs=12)
        assert spec.resolved_epochs() == 12

    def test_empty_missing_rejected(self):
        with pytest.raises(ValueError):
            ReconstructionSpec(missing=())

    def test_duplicate_missing_rejected(self):
        with pytest.raises(ValueError):
            ReconstructionSpec(missing=("u1", "u1"))

    def test_bad_init_mode_rejected(self):
        with pytest.raises(ValueError):
            ReconstructionSpec(missing=("u1",), init="random")

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_negative_or_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            ReconstructionSpec(missing=("u1",), weights={"u2": bad})

    def test_zero_weight_accepted(self):
        spec = ReconstructionSpec(missing=("u1",), weights={"u2": 0.0})
        assert spec.weights == {"u2": 0.0}

    def test_all_available_weights_zero_rejected(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(
            missing=("u1",), epochs=1, weights={"i1": 0.0, "u2": 0.0, "i2": 0.0}
        )
        with pytest.raises(ValueError):
            reconstruct(model, toy_datasets[0], spec)

    def test_unknown_feature_rejected(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("nope",), epochs=1)
        with pytest.raises(KeyError):
            reconstruct(model, toy_datasets[0], spec)

    def test_all_features_missing_rejected(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u1", "i1", "u2", "i2"), epochs=1)
        with pytest.raises(ValueError):
            reconstruct(model, toy_datasets[0], spec)

    def test_weight_for_missing_feature_rejected(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(
            missing=("u1",), epochs=1, weights={"u1": 2.0}
        )
        with pytest.raises(ValueError):
            reconstruct(model, toy_datasets[0], spec)

    def test_weight_for_unknown_feature_rejected(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(
            missing=("u1",), epochs=1, weights={"zz": 2.0}
        )
        with pytest.raises(ValueError):
            reconstruct(model, toy_datasets[0], spec)


class TestFrozenModel:
    def test_parameters_are_bitwise_unchanged(self, toy_model, toy_datasets):
        model, _ = toy_model
        before = {k: v.copy() for k, v in model.params.as_dict().items()}
        spec = ReconstructionSpec(missing=("u2",), epochs=5)
        reconstruct(model, toy_datasets[0], spec)
        after = model.params.as_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_loss_ignores_data_in_missing_columns(self, toy_model, toy_datasets):
        # overwriting the missing column in the input data must not change
        # a single bit of the optimization
        model, _ = toy_model
        data = toy_datasets[1]
        spec = ReconstructionSpec(missing=("i1",), epochs=4)
        res_a = reconstruct(model, data, spec)

        poisoned = data.values.copy()
        col = data.feature_names.index("i1")
        poisoned[:, col] = 1e6 * (1.0 + np.arange(len(poisoned)))
        res_b = reconstruct(model, data.replace_values(poisoned), spec)

        assert res_a.loss_history == res_b.loss_history
        assert res_a.initial_loss == res_b.initial_loss
        assert res_a.final_loss == res_b.final_loss
        np.testing.assert_array_equal(res_a.x_miss["i1"], res_b.x_miss["i1"])
        np.testing.assert_array_equal(
            res_a.x_hat_miss["i1"], res_b.x_hat_miss["i1"]
        )


class TestOptimization:
    def test_zero_epochs_returns_initialization(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u2",), epochs=0)
        res = reconstruct(model, toy_datasets[0], spec)
        # zeros init in scaled space maps back to the per-feature minimum
        col = model.feature_names.index("u2")
        expected = np.full(len(toy_datasets[0].values), model.scaler.mins[col])
        np.testing.assert_allclose(res.x_miss["u2"], expected, rtol=1e-12)
        assert res.loss_history == ()
        assert res.initial_loss == res.final_loss

    def test_midpoint_init_starts_at_range_center(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u2",), epochs=0, init="midpoint")
        res = reconstruct(model, toy_datasets[0], spec)
        col = model.feature_names.index("u2")
        mid = 0.5 * (model.scaler.mins[col] + model.scaler.maxs[col])
        np.testing.assert_allclose(
            res.x_miss["u2"], np.full(len(toy_datasets[0].values), mid), rtol=1e-12
        )

    def test_loss_decreases(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u2",), epochs=40)
        res = reconstruct(model, toy_datasets[0], spec)
        assert res.final_loss < res.initial_loss
        assert len(res.loss_history) == 40
        assert res.loss_history[0] == res.initial_loss

    def test_history_is_pre_update_loss(self, toy_model, toy_datasets):
        # the recorded loss at epoch k is evaluated before the k-th step,
        # so a 1-epoch run's single entry equals the initial loss
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u2",), epochs=1)
        res = reconstruct(model, toy_datasets[0], spec)
        assert res.loss_history == (res.initial_loss,)
        assert res.final_loss != res.initial_loss

    def test_deterministic(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("i2",), epochs=6)
        res_a = reconstruct(model, toy_datasets[2], spec)
        res_b = reconstruct(model, toy_datasets[2], spec)
        np.testing.assert_array_equal(res_a.x_miss["i2"], res_b.x_miss["i2"])
        assert res_a.loss_history == res_b.loss_history

    def test_two_missing_features(self, toy_model, toy_datasets):
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u1", "u2"), epochs=10)
        res = reconstruct(model, toy_datasets[0], spec)
        assert set(res.x_miss) == {"u1", "u2"}
        assert set(res.x_hat_miss) == {"u1", "u2"}
        assert res.final_loss < res.initial_loss
        T = len(toy_datasets[0].values)
        assert res.x_miss["u1"].shape == (T,)
        assert res.x_hat_miss["u2"].shape == (T,)

    def test_missing_order_changes_no_bit(self, toy_model, toy_datasets):
        # the order names the columns of the optimized [T, k] block; Adam
        # works elementwise, so listing the features the other way round
        # must give the same trajectory and the same columns
        model, _ = toy_model
        a, b = (reconstruct(model, toy_datasets[0], ReconstructionSpec(missing, epochs=10))
                for missing in (("u1", "u2"), ("u2", "u1")))
        assert a.loss_history == b.loss_history and a.final_loss == b.final_loss
        for m in ("u1", "u2"):
            np.testing.assert_array_equal(a.x_miss[m], b.x_miss[m])
            np.testing.assert_array_equal(a.x_hat_miss[m], b.x_hat_miss[m])

    def test_returned_columns_are_contiguous_and_independent(self, toy_model,
                                                             toy_datasets):
        # a caller may write into one column without touching another
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u1", "i2", "u2"), epochs=2)
        res = reconstruct(model, toy_datasets[0], spec)
        columns = [*res.x_miss.values(), *res.x_hat_miss.values()]
        for k, column in enumerate(columns):
            assert column.flags.c_contiguous
            for other in columns[k + 1:]:
                assert not np.may_share_memory(column, other)

    def test_non_finite_column_in_data_units_is_named(self, toy_model, toy_datasets):
        # a u2 range of 2e308 overflows the midpoint estimate to inf in data
        # units, while u1's stays finite: the error names u2
        model, _ = toy_model
        scaler = model.scaler
        col = model.feature_names.index("u2")
        mins, maxs = scaler.mins.copy(), scaler.maxs.copy()
        mins[col], maxs[col] = -1e308, 1e308
        huge = dataclasses.replace(model, scaler=dataclasses.replace(
            scaler, mins=mins, maxs=maxs))
        spec = ReconstructionSpec(missing=("u1", "u2"), epochs=0, init="midpoint")
        with pytest.raises(DivergenceError, match="non-finite estimate of 'u2' in data units"):
            reconstruct(huge, toy_datasets[0], spec)

    def test_estimate_beyond_float32_is_named(self, toy_model, toy_datasets):
        # one Adam step of 1e39 leaves the estimate finite in float64 and in
        # data units, but beyond the float32 series the network reads: the
        # final pass names the column, with no cast warning
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u1",), epochs=1, learning_rate=1e39)
        with pytest.raises(DivergenceError, match="non-finite estimate of 'u1' in float32"):
            reconstruct(model, toy_datasets[0], spec)

    def test_available_data_beyond_float32_is_named(self, toy_model, toy_datasets):
        # an available sample that scales beyond float32's range is named
        # before any epoch, with no cast warning
        model, _ = toy_model
        data = toy_datasets[0]
        values = data.values.copy()
        values[5, data.feature_names.index("i2")] = 1e300
        spec = ReconstructionSpec(missing=("u1",), epochs=1)
        with pytest.raises(DivergenceError, match="non-finite scaled data of 'i2' in float32"):
            reconstruct(model, data.replace_values(values), spec)

    def test_weights_change_the_trajectory(self, toy_model, toy_datasets):
        model, _ = toy_model
        base = ReconstructionSpec(missing=("u1",), epochs=5)
        weighted = ReconstructionSpec(
            missing=("u1",), epochs=5, weights={"u2": 5.0}
        )
        res_a = reconstruct(model, toy_datasets[0], base)
        res_b = reconstruct(model, toy_datasets[0], weighted)
        assert not np.array_equal(res_a.x_miss["u1"], res_b.x_miss["u1"])

    def test_series_shorter_than_window_rejected(self, toy_model, toy_datasets):
        model, _ = toy_model
        short = toy_datasets[0].replace_values(toy_datasets[0].values[:2])
        spec = ReconstructionSpec(missing=("u1",), epochs=1)
        with pytest.raises(ValueError):
            reconstruct(model, short, spec)


class TestRefine:
    def test_refine_matches_result_field(self, toy_model, toy_datasets):
        # x_hat is read off the final loss pass; a separate forward pass
        # over the assembled final series must give the same bits
        model, _ = toy_model
        data = toy_datasets[0]
        spec = ReconstructionSpec(missing=("u2",), epochs=8)
        res = reconstruct(model, data, spec)

        assembled = data.values.copy()
        col = data.feature_names.index("u2")
        assembled[:, col] = res.x_miss["u2"]
        scaled = transform(model.scaler, data.replace_values(assembled))
        recon = reconstruct_series(model, scaled.values)
        refined = model.scaler.inverse_transform_columns(recon[:, [col]], ["u2"])
        np.testing.assert_array_equal(refined.ravel(), res.x_hat_miss["u2"])


class TestFloat32Kernel:
    def test_train_reconstruct_and_evaluate_pass_float32(self, monkeypatch, toy_model,
                                                         toy_datasets):
        # a fall-back to float64 series gives the same answers, only slower,
        # so nothing else would notice it; the parameters stay float64 masters
        recon_module = importlib.import_module("tracefill.reconstruct")
        seen = []

        def spy(params, series, *args, _objective=nn.windowed_objective):
            seen.append((series.dtype, {arr.dtype for arr in params.values()}))
            return _objective(params, series, *args)

        for module in (training, recon_module):
            monkeypatch.setattr(module, "windowed_objective", spy)
        model, _ = toy_model
        train(toy_datasets, TrainConfig(epochs=1, net=model.net))
        assert len(seen) == len(toy_datasets)  # one update per dataset
        evaluate_model(model, toy_datasets[0])
        assert len(seen) == len(toy_datasets) + 1
        reconstruct(model, toy_datasets[0], ReconstructionSpec(missing=("u1",), epochs=1))
        assert len(seen) == len(toy_datasets) + 3  # one epoch and the final pass
        assert all(dtype == np.float32 and params == {np.dtype(np.float64)}
                   for dtype, params in seen), seen


class TestGradientPath:
    def test_end_to_end_gradient_matches_finite_differences(
        self, monkeypatch, toy_model, toy_datasets
    ):
        # T=10 slice in chunks of 3, 3 and 2 windows: the missing-column
        # gradient of the production objective, through window assembly,
        # the autoencoder, the weighted loss and the chunk seams
        monkeypatch.setattr(nn, "CHUNK_WINDOWS", 3)
        model, _ = toy_model
        data = toy_datasets[0]
        series = model.scaler.transform_columns(data.values[:10], data.feature_names)
        miss_col = 2
        series[:, miss_col] = 0.4
        weights = [0.0 if j == miss_col else 1.0 for j in range(series.shape[1])]
        seq_len = model.net.seq_len

        def loss_at(i, delta):
            moved = series.copy()
            moved[i, miss_col] += delta
            return nn.windowed_objective(model.params, moved, seq_len, weights)[0]

        _, grad = nn.windowed_objective(model.params, series, seq_len, weights, "series")
        analytic = grad[:, miss_col]
        eps = 1e-6
        numeric = np.array([(loss_at(i, eps) - loss_at(i, -eps)) / (2.0 * eps)
                            for i in range(len(series))])
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-5

    def test_gradcheck_differentiates_the_reconstruction_objective(
        self, monkeypatch, toy_model, toy_datasets
    ):
        # the CLI gradcheck differentiates the windowed_loss that the chunk
        # loop reconstruct runs records on each tape, and both call it
        recon_module = importlib.import_module("tracefill.reconstruct")
        assert cli.windowed_loss is nn.windowed_loss
        assert recon_module.windowed_objective is nn.windowed_objective
        calls = {"cli": 0, "nn": 0}
        for key, module in (("cli", cli), ("nn", nn)):

            def counting(*args, _key=key, _loss=nn.windowed_loss, **kwargs):
                calls[_key] += 1
                return _loss(*args, **kwargs)

            monkeypatch.setattr(module, "windowed_loss", counting)

        assert cli.end_to_end_gradcheck(n_samples=12) < 1e-5
        # one analytic pass plus two finite-difference passes per series cell
        assert calls["cli"] == 1 + 2 * 12 * 4
        model, _ = toy_model
        spec = ReconstructionSpec(missing=("u2",), epochs=2)
        reconstruct(model, toy_datasets[0], spec)
        # 38 windows are one chunk: one tape per epoch plus the final pass
        assert calls["nn"] == 3
