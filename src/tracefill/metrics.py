"""Reconstruction quality metrics and a one-sided amplitude spectrum.

Relative RMSE is normalized by the reference feature's standard deviation,
so 1.0 is the level of always predicting the mean. The spectrum is the
magnitude of numpy's real FFT, O(T log T) in time and O(T) in memory,
scaled so a pure sine of amplitude A that fits the window with an integer
period count shows a peak of exactly A, and a DC offset shows at bin zero
with its level.
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
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"need a non-empty 1-D series, got shape {x.shape}")
    T = x.size
    mags = np.abs(np.fft.rfft(x)) / T
    # bins 1 .. ceil(T/2)-1 have a mirrored partner; DC and Nyquist do not
    mags[1:(T + 1) // 2] *= 2.0
    freqs = np.arange(mags.size) / (T * dt)
    return freqs, mags
