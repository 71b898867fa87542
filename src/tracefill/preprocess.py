"""Dataset container, min-max scaling, and sliding-window handling.

Scaling is fitted once over all training sets (global per-feature extrema)
and reused verbatim for any later data; application data never refits.
Windows are stride-1 and dense, and this module owns their one layout:
``window_stack`` builds the step-major stack the network runs on (rows
``t*W .. (t+1)*W`` are step ``t`` of all W windows), and ``window_sum``,
its adjoint, adds a stack back onto the samples. The tape's ``windows`` op
is these two functions. ``coverage_counts`` is the adjoint applied to
ones, and ``overlap_mean_values`` merges an output stack back to series
length by dividing the adjoint by the coverage, which is the exact inverse
of ``window_stack`` when windows agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class TimeSeriesSet:
    """Equidistantly sampled multivariate series, one column per feature."""

    feature_names: tuple[str, ...]
    t0: float
    dt: float
    values: np.ndarray  # [n_samples, n_features] float64

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if len(self.feature_names) != values.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} names for {values.shape[1]} columns"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError(f"duplicate feature names: {self.feature_names}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.isfinite(values).all():
            raise ValueError("values contain NaN or Inf")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    def column(self, name: str) -> np.ndarray:
        if name not in self.feature_names:
            raise KeyError(f"unknown feature {name!r}")
        return self.values[:, self.feature_names.index(name)]

    def replace_values(self, values: np.ndarray) -> "TimeSeriesSet":
        return TimeSeriesSet(self.feature_names, self.t0, self.dt, values)


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min-max mapping onto [0, 1].

    A feature that was constant during the fit has a degenerate range; it
    maps to 0.5 and is flagged, and the inverse restores the constant.
    """

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray
    constant: np.ndarray  # bool per feature

    def _indices(self, names: Sequence[str]) -> list[int]:
        out = []
        for name in names:
            if name not in self.feature_names:
                raise KeyError(f"feature {name!r} not in {self.feature_names}")
            out.append(self.feature_names.index(name))
        return out

    def transform_columns(self, values: np.ndarray, names: Sequence[str]) -> np.ndarray:
        idx = self._indices(names)
        values = np.asarray(values, dtype=np.float64)
        mins, maxs = self.mins[idx], self.maxs[idx]
        span = np.where(self.constant[idx], 1.0, maxs - mins)
        scaled = (values - mins) / span
        return np.where(self.constant[idx], 0.5, scaled)

    def inverse_transform_columns(self, values: np.ndarray,
                                  names: Sequence[str]) -> np.ndarray:
        idx = self._indices(names)
        values = np.asarray(values, dtype=np.float64)
        mins, maxs = self.mins[idx], self.maxs[idx]
        restored = values * (maxs - mins) + mins
        return np.where(self.constant[idx], mins, restored)


def fit_scaler(datasets: Iterable[TimeSeriesSet]) -> ScalerParams:
    """Global per-feature extrema over every provided set."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("fit_scaler needs at least one dataset")
    names = datasets[0].feature_names
    for d in datasets[1:]:
        if d.feature_names != names:
            raise ValueError(f"feature names differ: {names} vs {d.feature_names}")
    mins = np.min([d.values.min(axis=0) for d in datasets], axis=0)
    maxs = np.max([d.values.max(axis=0) for d in datasets], axis=0)
    return ScalerParams(names, mins, maxs, constant=(mins == maxs))


def transform(scaler: ScalerParams, data: TimeSeriesSet) -> TimeSeriesSet:
    if data.feature_names != scaler.feature_names:
        raise ValueError(
            f"feature names differ: {scaler.feature_names} vs {data.feature_names}"
        )
    return data.replace_values(
        scaler.transform_columns(data.values, data.feature_names)
    )


def inverse_transform(scaler: ScalerParams, data: TimeSeriesSet) -> TimeSeriesSet:
    if data.feature_names != scaler.feature_names:
        raise ValueError(
            f"feature names differ: {scaler.feature_names} vs {data.feature_names}"
        )
    return data.replace_values(
        scaler.inverse_transform_columns(data.values, data.feature_names)
    )


def window_stack(values: np.ndarray, seq_len: int) -> np.ndarray:
    """Stride-1 windows of a [T, n] array as a step-major [seq_len*W, n] stack.

    W = T - seq_len + 1. Rows ``t*W .. (t+1)*W`` hold step ``t`` of every
    window, which is rows ``t .. t+W`` of ``values``.
    """
    T = values.shape[0]
    if not 1 <= seq_len <= T:
        raise ValueError(f"seq_len {seq_len} invalid for {T} samples")
    num_windows = T - seq_len + 1
    return np.concatenate([values[t:t + num_windows] for t in range(seq_len)])


def window_sum(stack: np.ndarray, seq_len: int) -> np.ndarray:
    """Adjoint of ``window_stack``: add every window cell back onto its sample.

    Takes a [seq_len*W, n] stack to [W + seq_len - 1, n]. Each sample gets
    one addition per window covering it, so summing integers stays exact.
    """
    rows = stack.shape[0]
    if seq_len < 1 or rows < seq_len or rows % seq_len:
        raise ValueError(f"{rows} stack rows do not split into {seq_len} steps")
    num_windows = rows // seq_len
    total = np.zeros((num_windows + seq_len - 1, stack.shape[1]))
    for t in range(seq_len):
        total[t:t + num_windows] += stack[t * num_windows:(t + 1) * num_windows]
    return total


def coverage_counts(source_length: int, seq_len: int) -> np.ndarray:
    """How many stride-1 windows cover each sample index."""
    num_windows = source_length - seq_len + 1
    return window_sum(np.ones((seq_len * num_windows, 1)), seq_len)[:, 0]


def overlap_mean_values(stack: np.ndarray, seq_len: int) -> np.ndarray:
    """Average every window cell covering each sample; inverse of ``window_stack``."""
    total = window_sum(stack, seq_len)
    return total / coverage_counts(total.shape[0], seq_len)[:, None]
