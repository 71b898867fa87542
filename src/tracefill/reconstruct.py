"""Recover completely missing feature columns with a frozen autoencoder.

The trained network and scaler stay untouched. The k missing features
form one [T, k] optimization variable (one shared value per time step,
no matter how many windows overlap it). Every epoch

  1. writes that block into the missing columns of the scaled [T, n]
     float32 series, whose available columns are scaled once, and
  2. scores it with ``nn.windowed_objective``, the objective training
     minimizes too: every stride-1 window through the autoencoder, with
     the user's weights on the available features and weight 0 on the
     missing ones, recorded one chunk of windows per tape.

The network computes in float32, the dtype of the series, while the
block, its gradient and Adam's moments stay float64. The objective
returns the gradient of the whole series, and Adam updates the block
with its missing columns. Window extraction is the tape's
``windows`` op, whose backward adds every window's gradient back onto the
samples, so a sample covered by several windows accumulates all their
contributions, across chunk boundaries too. The loss is one
``weighted_mse`` op per chunk, which never reads a missing column, and
the missing columns of the series come from the block only, so the
data's own values there cannot enter. The epochs and the final pass run
inside ``nn.chunk_helper``, so a second CPU takes every other chunk.

One final forward-only pass on the optimized series gives both the final
loss and the network's output windows merged by overlap mean, the
network's own estimate of the missing columns. That is usually smoother
than the raw optimized estimate and is reported alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Mapping, Sequence

import numpy as np

from . import preprocess
from .nn import chunk_helper, windowed_objective
from .optim import Adam
from .training import DivergenceError, TrainedModel

DEFAULT_EPOCHS_ONE_MISSING = 300
DEFAULT_EPOCHS_MULTI_MISSING = 3000

_INIT_MODES = ("zeros", "midpoint")


@dataclass(frozen=True)
class ReconstructionSpec:
    """What to reconstruct and how hard to try.

    ``epochs=None`` resolves to 300 for a single missing feature and 3000
    when several are missing at once. ``weights`` scales the loss term of
    individual available features (default 1.0 each), which lets a user
    emphasize features known to matter; each must be finite and
    non-negative. ``init`` places the initial guess in scaled space:
    "zeros" or "midpoint" (0.5).
    """

    missing: tuple[str, ...]
    epochs: int | None = None
    learning_rate: float = 0.005
    init: str = "zeros"
    weights: Mapping[str, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "missing", tuple(self.missing))
        if not self.missing:
            raise ValueError("at least one missing feature is required")
        if len(set(self.missing)) != len(self.missing):
            raise ValueError(f"duplicate missing features: {self.missing}")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.init not in _INIT_MODES:
            raise ValueError(f"init must be one of {_INIT_MODES}, got {self.init!r}")
        for name, w in (self.weights or {}).items():
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(
                    f"weight of {name!r} must be finite and non-negative, got {w}"
                )

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        if len(self.missing) == 1:
            return DEFAULT_EPOCHS_ONE_MISSING
        return DEFAULT_EPOCHS_MULTI_MISSING


@dataclass
class ReconstructionResult:
    x_miss: dict[str, np.ndarray]      # optimized estimate, data units, [T]
    x_hat_miss: dict[str, np.ndarray]  # network output for the same columns
    loss_history: tuple[float, ...]    # loss before each update, len == epochs
    initial_loss: float
    final_loss: float


def _validate(model: TrainedModel, data: preprocess.TimeSeriesSet,
              spec: ReconstructionSpec) -> list[str]:
    names = list(model.feature_names)
    for m in spec.missing:
        if m not in names:
            raise KeyError(f"unknown missing feature {m!r}; model has {names}")
    available = [n for n in names if n not in spec.missing]
    if not available:
        raise ValueError("all features marked missing; nothing to fit against")
    for n in available:
        if n not in data.feature_names:
            raise ValueError(f"data lacks required available feature {n!r}")
    if spec.weights is not None:
        unknown = set(spec.weights) - set(available)
        if unknown:
            raise ValueError(
                f"weights given for non-available features: {sorted(unknown)}"
            )
        if all(spec.weights.get(n, 1.0) == 0 for n in available):
            raise ValueError("every available feature has weight 0")
    if data.n_samples < model.net.seq_len:
        raise ValueError(
            f"{data.n_samples} samples is shorter than seq_len {model.net.seq_len}"
        )
    return available


def _check_finite(values: np.ndarray, names: Sequence[str], what: str, where: str) -> None:
    """Raise DivergenceError naming the first column of ``values`` that is not finite."""
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise DivergenceError(
            f"non-finite {what} of {names[int(np.argmin(finite))]!r} {where}")


def reconstruct(model: TrainedModel, data: preprocess.TimeSeriesSet,
                spec: ReconstructionSpec) -> ReconstructionResult:
    """Optimize the missing columns of ``data`` against the frozen model.

    ``data`` must contain every available feature; columns named in
    ``spec.missing`` may be absent and are ignored when present. Returns
    the missing columns in data units along with the loss trajectory. Raises
    ``DivergenceError`` when an epoch's loss, or a returned column in data
    units, is not finite, and when a scaled available column or the
    estimate of a missing one is beyond float32's range.
    """
    available = _validate(model, data, spec)
    names = model.feature_names
    user_weights = spec.weights or {}
    weights = [
        float(user_weights.get(n, 1.0)) if n in available else 0.0 for n in names
    ]
    epochs = spec.resolved_epochs()

    # the [T, k] block of the k missing columns, in ``spec.missing`` order
    missing = [names.index(m) for m in spec.missing]
    present = [names.index(n) for n in available]
    # the network computes in float32; the estimate and Adam's state stay float64
    series = np.empty((data.n_samples, len(names)), np.float32)
    with np.errstate(over="ignore"):  # beyond float32's range is inf, named below
        series[:, present] = model.scaler.transform_columns(
            np.column_stack([data.column(n) for n in available]), available)
    _check_finite(series[:, present], available, "scaled data", "in float32")
    estimate = np.full((data.n_samples, len(missing)),
                       0.0 if spec.init == "zeros" else 0.5)

    adam = Adam(spec.learning_rate)
    history: list[float] = []

    def objective(current: np.ndarray, wrt: str | None):
        with np.errstate(over="ignore"):
            series[:, missing] = current
        _check_finite(series[:, missing], spec.missing, "estimate", "in float32")
        return windowed_objective(model.params, series, model.net.seq_len, weights, wrt)

    with chunk_helper():
        for epoch in range(epochs):
            value, grad = objective(estimate, "series")
            if not np.isfinite(value):
                raise DivergenceError(f"non-finite loss in epoch {epoch}")
            estimate = adam.step({"block": estimate}, {"block": grad[:, missing]})["block"]
            history.append(value)
        final_loss, recon_scaled = objective(estimate, None)
    initial_loss = history[0] if history else final_loss

    def to_data(scaled: np.ndarray, what: str) -> dict[str, np.ndarray]:
        # an estimate that ran off to ~1e308 overflows in data units
        with np.errstate(over="ignore", invalid="ignore"):
            values = model.scaler.inverse_transform_columns(scaled, spec.missing)
        _check_finite(values, spec.missing, what, "in data units")
        # rows of a transposed copy: each column contiguous, none a view of another
        return dict(zip(spec.missing, values.T.copy()))

    return ReconstructionResult(
        x_miss=to_data(estimate, "estimate"),
        x_hat_miss=to_data(recon_scaled[:, missing], "network output"),
        loss_history=tuple(history),
        initial_loss=initial_loss,
        final_loss=final_loss,
    )
