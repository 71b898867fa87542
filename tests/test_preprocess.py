"""Scaling and windowing tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tracefill.autodiff import Tape
from tracefill.nn import NetConfig, init_params, lift_params, windowed_forward
from tracefill.preprocess import (
    ScalerParams,
    TimeSeriesSet,
    coverage_counts,
    fit_scaler,
    inverse_transform,
    overlap_mean_values,
    transform,
    window_stack,
)


def make_set(values, names=None, dt=0.5):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"f{i}" for i in range(values.shape[1]))
    return TimeSeriesSet(feature_names=tuple(names), t0=0.0, dt=dt, values=values)


class TestTimeSeriesSet:
    def test_times_are_equidistant(self):
        data = make_set(np.zeros((4, 2)), dt=0.25)
        np.testing.assert_allclose(data.times(), [0.0, 0.25, 0.5, 0.75])

    def test_column_lookup(self):
        data = make_set([[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        np.testing.assert_array_equal(data.column("b"), [2.0, 4.0])
        with pytest.raises(KeyError):
            data.column("c")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            make_set(np.zeros((3, 2)), names=("a", "a"))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_set([[1.0], [np.nan]], names=("a",))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            TimeSeriesSet(("a",), 0.0, 1.0, np.zeros(5))


class TestScaler:
    def test_known_extrema(self):
        data = make_set([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaler = fit_scaler([data])
        np.testing.assert_array_equal(scaler.mins, [0.0, 10.0])
        np.testing.assert_array_equal(scaler.maxs, [10.0, 30.0])
        scaled = transform(scaler, data)
        np.testing.assert_array_equal(
            scaled.values, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]
        )

    def test_extrema_are_global_across_datasets(self):
        a = make_set([[0.0], [4.0]], names=("x",))
        b = make_set([[-2.0], [2.0]], names=("x",))
        scaler = fit_scaler([a, b])
        np.testing.assert_array_equal(scaler.mins, [-2.0])
        np.testing.assert_array_equal(scaler.maxs, [4.0])

    def test_constant_column_maps_to_half(self):
        data = make_set([[3.0, 1.0], [3.0, 2.0]])
        scaler = fit_scaler([data])
        scaled = transform(scaler, data)
        np.testing.assert_array_equal(scaled.values[:, 0], [0.5, 0.5])
        restored = inverse_transform(scaler, scaled)
        np.testing.assert_array_equal(restored.values[:, 0], [3.0, 3.0])

    def test_mismatched_names_raise(self):
        a = make_set(np.zeros((2, 1)), names=("x",))
        b = make_set(np.zeros((2, 1)), names=("y",))
        with pytest.raises(ValueError):
            fit_scaler([a, b])

    def test_column_subset_transform(self):
        data = make_set([[0.0, 0.0], [10.0, 4.0]], names=("a", "b"))
        scaler = fit_scaler([data])
        out = scaler.transform_columns(np.array([[5.0], [10.0]]), ["a"])
        np.testing.assert_array_equal(out, [[0.5], [1.0]])
        back = scaler.inverse_transform_columns(out, ["a"])
        np.testing.assert_array_equal(back, [[5.0], [10.0]])

    @given(
        arrays(
            np.float64,
            (6, 3),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, values):
        data = make_set(values)
        scaler = fit_scaler([data])
        restored = inverse_transform(scaler, transform(scaler, data))
        np.testing.assert_allclose(restored.values, values, atol=1e-12, rtol=0)

    def test_transform_range_is_unit_interval(self):
        rng = np.random.default_rng(0)
        data = make_set(rng.normal(0, 10, (50, 4)))
        scaled = transform(fit_scaler([data]), data)
        assert scaled.values.min() >= 0.0
        assert scaled.values.max() <= 1.0


class TestWindows:
    def test_window_stack_enumeration(self):
        # step-major: rows 3t..3t+3 hold step t of the three windows
        values = np.arange(10.0).reshape(5, 2)
        windows = window_stack(values, 3)
        assert windows.shape == (9, 2)
        for t in range(3):
            for w in range(3):
                np.testing.assert_array_equal(windows[3 * t + w], values[w + t])

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            window_stack(np.zeros((2, 1)), 3)

    def test_stack_that_does_not_split_into_steps_raises(self):
        with pytest.raises(ValueError):
            overlap_mean_values(np.zeros((7, 2)), 3)
        with pytest.raises(ValueError):
            overlap_mean_values(np.zeros((2, 2)), 3)

    def test_coverage_counts_enumeration(self):
        # T=5, s=3: sample 0 appears in window 0 only; sample 2 in all three
        np.testing.assert_array_equal(coverage_counts(5, 3), [1, 2, 3, 2, 1])
        np.testing.assert_array_equal(coverage_counts(4, 2), [1, 2, 2, 1])
        np.testing.assert_array_equal(coverage_counts(3, 3), [1, 1, 1])

    def test_coverage_matches_brute_force(self):
        for T, s in [(6, 3), (9, 4), (5, 5), (12, 2)]:
            counts = np.zeros(T)
            for w in range(T - s + 1):
                counts[w : w + s] += 1
            np.testing.assert_array_equal(coverage_counts(T, s), counts)

    def test_overlap_mean_inverts_window_stack(self):
        values = np.random.default_rng(2).uniform(-1, 1, (8, 3))
        windows = window_stack(values, 3)
        merged = overlap_mean_values(windows, 3)
        np.testing.assert_allclose(merged, values, rtol=1e-12, atol=1e-15)

    @given(
        arrays(
            np.float64,
            (7, 2),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_overlap_mean_identity_property(self, values, seq_len):
        windows = window_stack(values, seq_len)
        merged = overlap_mean_values(windows, seq_len)
        np.testing.assert_allclose(merged, values, rtol=1e-12, atol=1e-12)

    def test_step_inputs_are_row_slices(self):
        # the windowed forward pass feeds step t of every window as one
        # row block of the series
        values = np.arange(12.0).reshape(6, 2)
        config = NetConfig(n_features=2, seq_len=3, lstm_hidden=3, latent_dim=1)
        tape = Tape()
        net = lift_params(tape, init_params(config, seed=0), requires_grad=False)
        x, y = windowed_forward(tape, net, tape.leaf(values), 3)
        assert x.shape == y.shape == (12, 2)
        for t in range(3):
            np.testing.assert_array_equal(x.value[4 * t : 4 * (t + 1)], values[t : t + 4])
