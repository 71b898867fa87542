"""Autoencoder training across several datasets.

Each epoch walks the datasets in a rotated order (the starting dataset
shifts by one every epoch, so no dataset always has the last word on the
weights). Per dataset, every stride-1 window contributes to one pooled
mean-square reconstruction loss (``nn.windowed_loss`` with weight 1/n per
feature), whose gradient drives exactly one Adam step. The min-max scaler is fitted once, up front, over all training sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import preprocess
from .autodiff import Tape
from .nn import (
    AutoencoderParams,
    NetConfig,
    init_params,
    lift_params,
    windowed_forward,
    windowed_loss,
)
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


def _dataset_loss_and_grads(params: AutoencoderParams, scaled: np.ndarray,
                            seq_len: int):
    """Pooled window MSE over one dataset (a loss Var) plus parameter gradients."""
    n = scaled.shape[1]
    tape = Tape()
    net = lift_params(tape, params, requires_grad=True)
    loss, _ = windowed_loss(tape, net, tape.leaf(scaled), seq_len, np.full(n, 1.0 / n))
    grads = tape.backward(loss)
    # matrices were lifted transposed; .T returns them in storage layout
    named = {name: grads[leaf].T for name, leaf in net.items()}
    return loss, named


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
    scaled = [preprocess.transform(scaler, d).values for d in datasets]

    params = init_params(config.net, config.seed)
    adam = Adam(config.learning_rate)
    history: list[HistoryRow] = []
    last_loss = [float("nan")] * len(datasets)

    for epoch in range(config.epochs):
        for idx in _epoch_order(epoch, len(datasets)):
            # ``loss`` holds this update's tape until the next update has
            # recorded its own. A tape freed before the next one is recorded
            # left its pages at the top of the heap, glibc handed them back
            # to the kernel, and every update faulted about 12 MB back in
            # (T=2000, hidden 16)
            loss, grads = _dataset_loss_and_grads(params, scaled[idx],
                                                  config.net.seq_len)
            value = loss.item()
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
    """Forward every window of a scaled [T, n] array and merge by overlap mean."""
    tape = Tape()
    net = lift_params(tape, model.params, requires_grad=False)
    seq_len = model.net.seq_len
    _, y = windowed_forward(tape, net, tape.leaf(scaled_values), seq_len)
    return preprocess.overlap_mean_values(y.value, seq_len)


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
