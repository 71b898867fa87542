"""On-disk formats: dataset CSVs, the model JSON file, histories, manifests.

Floats are written with ``repr``, the shortest representation that parses
back to the identical double, so every file round-trips bit for bit and
deterministic runs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .nn import AutoencoderParams, NetConfig, param_shapes
from .preprocess import ScalerParams, TimeSeriesSet
from .training import HistoryRow, TrainedModel

MODEL_FORMAT_VERSION = 1
TIME_COLUMN = "time_s"
REL_TIME_TOL = 1e-9


class FormatError(ValueError):
    """A file does not match the expected format."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_unique(path: str | Path, names: Sequence[str]) -> None:
    repeated = [name for k, name in enumerate(names) if name in names[:k]]
    if repeated:
        raise FormatError(f"{path}: feature name {repeated[0]!r} repeats")


def write_dataset_csv(path: str | Path, data: TimeSeriesSet) -> None:
    times = data.times()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([TIME_COLUMN, *data.feature_names])
        for k in range(data.n_samples):
            writer.writerow([_fmt(times[k]), *(_fmt(v) for v in data.values[k])])


def read_dataset_csv(path: str | Path) -> TimeSeriesSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if not header or header[0] != TIME_COLUMN:
            raise FormatError(
                f"{path}: first column must be {TIME_COLUMN!r}, got {header[:1]}"
            )
        names = tuple(header[1:])
        if not names:
            raise FormatError(f"{path}: no feature columns")
        _check_unique(path, names)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if len(rows) < 2:
        raise FormatError(f"{path}: need at least two samples")
    arr = np.array(rows)
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise FormatError(
            f"{path}:{row + 2}: column {header[col]!r} is {_fmt(arr[row, col])}, "
            "values must be finite"
        )
    times, values = arr[:, 0], arr[:, 1:]
    dt = times[1] - times[0]
    if not dt > 0:
        raise FormatError(f"{path}: time column must be strictly increasing")
    gaps = np.diff(times)
    if np.any(np.abs(gaps - dt) > REL_TIME_TOL * abs(dt)):
        worst = int(np.argmax(np.abs(gaps - dt)))
        raise FormatError(
            f"{path}: time column not equidistant near row {worst + 2} "
            f"(gap {_fmt(gaps[worst])} vs dt {_fmt(dt)})"
        )
    return TimeSeriesSet(names, float(times[0]), float(dt), values)


def write_history_csv(path: str | Path, rows: Iterable[HistoryRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "dataset_index", "loss"])
        for row in rows:
            writer.writerow([row.epoch, row.dataset_index, _fmt(row.loss)])


def write_loss_curve_csv(path: str | Path, losses: Sequence[float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(losses):
            writer.writerow([epoch, _fmt(loss)])


def _array_to_json(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}


def _array_from_json(obj: dict) -> np.ndarray:
    arr = np.array(obj["data"], dtype=np.float64)
    return arr.reshape(obj["shape"])


def save_model(path: str | Path, model: TrainedModel) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "net": {
            "n_features": model.net.n_features,
            "seq_len": model.net.seq_len,
            "lstm_hidden": model.net.lstm_hidden,
            "latent_dim": model.net.latent_dim,
        },
        "feature_names": list(model.feature_names),
        "scaler": {
            "mins": [float(v) for v in model.scaler.mins],
            "maxs": [float(v) for v in model.scaler.maxs],
            "constant": [bool(v) for v in model.scaler.constant],
        },
        "params": {
            name: _array_to_json(arr) for name, arr in model.params.as_dict().items()
        },
        "training": {
            "seed": model.seed,
            "epochs": model.epochs,
            "learning_rate": model.learning_rate,
            "final_losses": [float(v) for v in model.final_losses],
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path: str | Path) -> TrainedModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be a JSON object, "
                          f"got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise FormatError(
            f"{path}: format_version {version!r} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        net = NetConfig(**doc["net"])
        names = tuple(doc["feature_names"])
        scaler = ScalerParams(
            feature_names=names,
            mins=np.array(doc["scaler"]["mins"], dtype=np.float64),
            maxs=np.array(doc["scaler"]["maxs"], dtype=np.float64),
            constant=np.array(doc["scaler"]["constant"], dtype=bool),
        )
        arrays = {name: _array_from_json(obj) for name, obj in doc["params"].items()}
        training = doc["training"]
        meta = dict(
            seed=int(training["seed"]),
            epochs=int(training["epochs"]),
            learning_rate=float(training["learning_rate"]),
            final_losses=tuple(float(v) for v in training["final_losses"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed model file: {exc!r}") from None
    if any(np.shape(v) != (net.n_features,)
           for v in (names, scaler.mins, scaler.maxs, scaler.constant)):
        raise FormatError(
            f"{path}: feature_names and scaler arrays need {net.n_features} "
            f"entries each (net.n_features)"
        )
    _check_unique(path, names)
    for name, shape in param_shapes(net).items():
        if name not in arrays:
            raise FormatError(f"{path}: parameter array {name} is missing")
        if arrays[name].shape != shape:
            raise FormatError(
                f"{path}: {name} has shape {arrays[name].shape}, expected {shape}"
            )
    finite = {"scaler.mins": scaler.mins, "scaler.maxs": scaler.maxs,
              **{name: arrays[name] for name in param_shapes(net)}}
    for name, arr in finite.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: {name} contains NaN or Inf, values must be finite")
    for bad, what in ((scaler.maxs < scaler.mins, "scaler.maxs is below scaler.mins"),
                      (scaler.constant != (scaler.mins == scaler.maxs),
                       "scaler.constant disagrees with scaler.mins == scaler.maxs")):
        if bad.any():
            raise FormatError(f"{path}: {what} for feature {names[int(np.argmax(bad))]!r}")
    return TrainedModel(params=AutoencoderParams.from_dict(arrays), scaler=scaler,
                        net=net, feature_names=names, **meta)


def write_manifest(path: str | Path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def read_manifest(path: str | Path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None


def write_spectrum_csv(path: str | Path, freqs: np.ndarray,
                       mags: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "magnitude"])
        for f, m in zip(freqs, mags):
            writer.writerow([_fmt(f), _fmt(m)])
