"""Autoencoder training across several datasets.

Each epoch walks the datasets in a rotated order (the starting dataset
shifts by one every epoch, so no dataset always has the last word on the
weights). Per dataset, every stride-1 window contributes to one pooled
mean-square reconstruction loss (``nn.windowed_objective`` with weight 1/n
per feature, one tape per chunk of windows), whose parameter gradient
drives exactly one Adam step. The epochs run inside ``nn.chunk_helper``,
so a second CPU takes every other chunk. The min-max scaler is fitted
once, up front, over all training sets. Evaluation runs the same loop
forward only, serially: a T=2000 forward takes about as long as a fork.
Both give the network float32 series, so it computes in float32, while
the parameters, Adam's moments and every loss stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import preprocess
from .nn import AutoencoderParams, NetConfig, chunk_helper, init_params, windowed_objective
from .optim import Adam


class DivergenceError(FloatingPointError):
    """Training loss became non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    learning_rate: float = 0.001
    seed: int = 0
    net: NetConfig = field(default_factory=NetConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class TrainedModel:
    params: AutoencoderParams
    scaler: preprocess.ScalerParams
    net: NetConfig
    feature_names: tuple[str, ...]
    seed: int
    epochs: int
    learning_rate: float
    final_losses: tuple[float, ...]  # per dataset, from its last update


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    dataset_index: int
    loss: float


def _epoch_order(epoch: int, n_datasets: int) -> list[int]:
    return [(epoch + j) % n_datasets for j in range(n_datasets)]


def train(datasets: Sequence[preprocess.TimeSeriesSet],
          config: TrainConfig) -> tuple[TrainedModel, list[HistoryRow]]:
    """Train a fresh autoencoder on the given datasets.

    Returns the trained model and the full loss history, one row per
    (epoch, dataset) update in processing order. Aborts with
    DivergenceError if a loss stops being finite.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("train needs at least one dataset")
    names = datasets[0].feature_names
    if len(names) != config.net.n_features:
        raise ValueError(
            f"net expects {config.net.n_features} features, data has {len(names)}"
        )
    for d in datasets:
        if d.n_samples < config.net.seq_len:
            raise ValueError(
                f"dataset with {d.n_samples} samples is shorter than "
                f"seq_len {config.net.seq_len}"
            )

    scaler = preprocess.fit_scaler(datasets)
    # the network computes in float32; the parameters and Adam's state stay float64
    scaled = [preprocess.transform(scaler, d).values.astype(np.float32) for d in datasets]

    params = init_params(config.net, config.seed)
    pooled = np.full(len(names), 1.0 / len(names))  # weights of the pooled window MSE
    adam = Adam(config.learning_rate)
    history: list[HistoryRow] = []
    last_loss = [float("nan")] * len(datasets)

    with chunk_helper():
        for epoch in range(config.epochs):
            for idx in _epoch_order(epoch, len(datasets)):
                value, grads = windowed_objective(params, scaled[idx], config.net.seq_len,
                                                  pooled, "params")
                if not np.isfinite(value):
                    raise DivergenceError(
                        f"non-finite loss on dataset {idx} in epoch {epoch}"
                    )
                updated = adam.step(params.as_dict(), grads)
                params = AutoencoderParams.from_dict(updated)
                history.append(HistoryRow(epoch, idx, value))
                last_loss[idx] = value

    model = TrainedModel(
        params=params,
        scaler=scaler,
        net=config.net,
        feature_names=names,
        seed=config.seed,
        epochs=config.epochs,
        learning_rate=config.learning_rate,
        final_losses=tuple(last_loss),
    )
    return model, history


@dataclass(frozen=True)
class EvalReport:
    reconstruction: preprocess.TimeSeriesSet  # data units
    mse_scaled: dict[str, float]
    mse_data: dict[str, float]


def reconstruct_series(model: TrainedModel,
                       scaled_values: np.ndarray) -> np.ndarray:
    """Forward every window of a scaled [T, n] array in float32; merge by overlap mean."""
    n = scaled_values.shape[1]
    return windowed_objective(model.params, scaled_values.astype(np.float32),
                              model.net.seq_len, np.ones(n))[1]


def evaluate_model(model: TrainedModel,
                   data: preprocess.TimeSeriesSet) -> EvalReport:
    """Autoencode a complete dataset and report per-feature errors."""
    if data.feature_names != model.feature_names:
        raise ValueError(
            f"feature names differ: {model.feature_names} vs {data.feature_names}"
        )
    scaled = preprocess.transform(model.scaler, data)
    recon_scaled = reconstruct_series(model, scaled.values)
    recon_data = model.scaler.inverse_transform_columns(
        recon_scaled, data.feature_names
    )
    mse_scaled = {}
    mse_data = {}
    for j, name in enumerate(data.feature_names):
        err_s = recon_scaled[:, j] - scaled.values[:, j]
        err_d = recon_data[:, j] - data.values[:, j]
        mse_scaled[name] = float((err_s * err_s).mean())
        mse_data[name] = float((err_d * err_d).mean())
    recon = preprocess.TimeSeriesSet(data.feature_names, data.t0, data.dt, recon_data)
    return EvalReport(recon, mse_scaled, mse_data)
