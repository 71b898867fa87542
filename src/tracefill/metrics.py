"""Reconstruction quality metrics and a direct DFT amplitude spectrum.

Relative RMSE is normalized by the reference feature's standard deviation,
so 1.0 is the level of always predicting the mean. The spectrum is a plain
O(T^2) one-sided DFT (two matrix products), scaled so a pure sine of
amplitude A that fits the window with an integer period count shows a peak
of exactly A, and a DC offset shows at bin zero with its level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureReport:
    name: str
    mse: float
    rmse: float
    rel_rmse: float


def rmse_report(name: str, reference: np.ndarray,
                candidate: np.ndarray) -> FeatureReport:
    """Error of one candidate series against its reference."""
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape or reference.ndim != 1:
        raise ValueError(
            f"need matching 1-D series, got {reference.shape} and {candidate.shape}"
        )
    err = candidate - reference
    mse = float((err * err).mean())
    rmse = float(np.sqrt(mse))
    std = float(reference.std())
    rel = rmse / std if std > 0 else float("inf") if rmse > 0 else 0.0
    return FeatureReport(name, mse, rmse, rel)


def dft(series: np.ndarray) -> np.ndarray:
    """Full complex DFT by direct evaluation, X_k = sum_t x_t e^{-2pi i kt/T}."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"need a non-empty 1-D series, got shape {x.shape}")
    T = x.size
    angle = -2.0 * np.pi / T * np.outer(np.arange(T), np.arange(T))
    return (np.cos(angle) @ x) + 1j * (np.sin(angle) @ x)


def amplitude_spectrum(series: np.ndarray,
                       dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided amplitude spectrum: (frequencies_hz, amplitudes).

    Bin k sits at k/(T*dt) Hz for k = 0..floor(T/2). Interior bins carry
    the doubled normalization 2|X_k|/T so sine amplitudes read directly;
    the DC bin (and the Nyquist bin when T is even) is unpaired and scaled
    by 1/T.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(series, dtype=np.float64)
    T = x.size
    spectrum = dft(x)
    n_bins = T // 2 + 1
    mags = np.abs(spectrum[:n_bins]) / T
    for k in range(1, n_bins):
        if not (T % 2 == 0 and k == T // 2):
            mags[k] *= 2.0
    freqs = np.arange(n_bins) / (T * dt)
    return freqs, mags
