"""On-disk formats: no other module knows how a file is laid out.

CSV tables, each written by ``_write_csv``: datasets and reconstruction
results (``time_s,<feature>...``), the training history
(``epoch,dataset_index,loss``), loss curves (``epoch,loss``), the evaluation
report (``column,truth_feature,mse,rmse,rel_rmse``) and spectra
(``frequency_hz,magnitude``).

JSON files, each read by ``read_json``: the model and the suite manifest,
both written by ``write_json``, and the ``simulate --config`` file.

Floats reach the writers as Python floats, whose ``str`` is ``repr``: the
shortest text that parses back to the identical double, so every file
round-trips bit for bit and deterministic runs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .metrics import FeatureReport
from .nn import AutoencoderParams, NetConfig, param_shapes
from .preprocess import ScalerParams, TimeSeriesSet
from .training import HistoryRow, TrainedModel

MODEL_FORMAT_VERSION = 1
TIME_COLUMN = "time_s"
REL_TIME_TOL = 1e-9


class FormatError(ValueError):
    """A file does not match the expected format."""


def _check_unique(path: str | Path, names: Sequence[str]) -> None:
    repeated = [name for k, name in enumerate(names) if name in names[:k]]
    if repeated:
        raise FormatError(f"{path}: feature name {repeated[0]!r} repeats")


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(path: str | Path, data: TimeSeriesSet) -> None:
    _write_csv(path, [TIME_COLUMN, *data.feature_names],
               np.column_stack([data.times(), data.values]).tolist())


def read_dataset_csv(path: str | Path) -> TimeSeriesSet:
    try:
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
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid text: {exc}") from None
    if len(rows) < 2:
        raise FormatError(f"{path}: need at least two samples")
    arr = np.array(rows)
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise FormatError(
            f"{path}:{row + 2}: column {header[col]!r} is {float(arr[row, col])}, "
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
            f"(gap {float(gaps[worst])} vs dt {float(dt)})"
        )
    return TimeSeriesSet(names, float(times[0]), float(dt), values)


def write_history_csv(path: str | Path, rows: Iterable[HistoryRow]) -> None:
    _write_csv(path, ["epoch", "dataset_index", "loss"],
               ((row.epoch, row.dataset_index, float(row.loss)) for row in rows))


def write_loss_curve_csv(path: str | Path, losses: Sequence[float]) -> None:
    _write_csv(path, ["epoch", "loss"], enumerate(map(float, losses)))


def write_report_csv(path: str | Path,
                     rows: Iterable[tuple[str, FeatureReport]]) -> None:
    """One row per result column and the truth feature it was scored on."""
    _write_csv(path, ["column", "truth_feature", "mse", "rmse", "rel_rmse"],
               ((column, rep.name, rep.mse, rep.rmse, rep.rel_rmse)
                for column, rep in rows))


def write_spectrum_csv(path: str | Path, freqs: np.ndarray,
                       mags: np.ndarray) -> None:
    _write_csv(path, ["frequency_hz", "magnitude"],
               np.column_stack([freqs, mags]).tolist())


def read_json(path: str | Path) -> dict:
    """A JSON file whose top level is an object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be a JSON object, "
                          f"got {type(doc).__name__}")
    return doc


def write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_simulate_config(path: str | Path) -> dict:
    """The ``simulate --config`` file: every key optional, none other allowed."""
    cfg = read_json(path)
    unknown = set(cfg) - {"seed", "dt", "n_samples", "circuit"}
    if unknown:
        raise FormatError(f"{path}: unknown config keys {sorted(unknown)}")
    for key in ("seed", "n_samples"):  # type(True) is bool, not int
        if key in cfg and type(cfg[key]) is not int:
            raise FormatError(f"{path}: {key} must be a JSON integer, got {cfg[key]!r}")
    dt = cfg.get("dt")
    if "dt" in cfg and not (type(dt) in (int, float) and math.isfinite(dt) and dt > 0):
        raise FormatError(f"{path}: dt must be a finite positive number, got {dt!r}")
    if not isinstance(cfg.get("circuit", {}), dict):
        raise FormatError(f"{path}: circuit must be a JSON object, "
                          f"got {type(cfg['circuit']).__name__}")
    return cfg


def _array_to_json(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}


def _array_from_json(obj: dict) -> np.ndarray:
    arr = np.array(obj["data"], dtype=np.float64)
    return arr.reshape(obj["shape"])


def save_model(path: str | Path, model: TrainedModel) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "net": asdict(model.net),
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
    write_json(path, doc)


def _list_of(types: tuple, what: str) -> tuple:
    """A ``_MODEL_FIELDS`` check: a JSON list of entries of ``types``."""
    return (lambda v: type(v) is list and all(type(x) in types for x in v),
            f"a list of {what}")


_NUMBER = (int, float)  # type(True) is bool, not int
_INTEGER = (lambda v: type(v) is int, "a JSON integer")
# the JSON type of every scalar and list field of a model file, by its path
_MODEL_FIELDS = {
    **{("net", field.name): _INTEGER for field in fields(NetConfig)},
    ("feature_names",): _list_of((str,), "strings"),
    ("training", "seed"): _INTEGER,
    ("training", "epochs"): _INTEGER,
    ("training", "learning_rate"): (lambda v: type(v) in _NUMBER and math.isfinite(v),
                                    "a finite JSON number"),
    ("training", "final_losses"): _list_of(_NUMBER, "JSON numbers"),
    ("scaler", "mins"): _list_of(_NUMBER, "JSON numbers"),
    ("scaler", "maxs"): _list_of(_NUMBER, "JSON numbers"),
    ("scaler", "constant"): _list_of((bool,), "JSON booleans"),
}


def load_model(path: str | Path) -> TrainedModel:
    doc = read_json(path)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise FormatError(
            f"{path}: format_version {version!r} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    for where, (ok, what) in _MODEL_FIELDS.items():
        owner = doc.get(where[0]) if len(where) == 2 else doc
        # a block that is no object fails below
        if isinstance(owner, dict) and not ok(value := owner.get(where[-1])):
            raise FormatError(f"{path}: {'.'.join(where)} must be {what}, got {value!r}")
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
        meta = dict(seed=training["seed"], epochs=training["epochs"],
                    learning_rate=float(training["learning_rate"]),
                    final_losses=tuple(float(v) for v in training["final_losses"]))
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
