"""On-disk formats: no other module knows how a file is laid out.

CSV tables: datasets and reconstruction results (``time_s,<feature>...``),
the training history (``epoch,dataset_index,loss``), loss curves
(``epoch,loss``), the evaluation report (``column,truth_feature,mse,rmse,
rel_rmse``) and spectra (``frequency_hz,magnitude``).

JSON files, each read by ``read_json``: the model and the suite manifest,
both written by ``write_json``, and the ``simulate --config`` file.

Floats are written as ``repr``: the shortest text that parses back to the
identical double, so every file round-trips bit for bit and deterministic
runs produce byte-identical outputs.

Numeric tables move in blocks of ``_BLOCK_ROWS`` rows, so neither direction
holds a Python float per cell of the whole table:

- ``_write_table``, behind every writer but the report's, writes the header
  with ``csv.writer``, so names keep their quoting, and each block of the
  body with one ``%`` format of ``%r`` cells. ``csv.writer`` writes a float
  as its ``repr`` too, so the bytes are the ones it would write, ``nan``,
  ``inf`` and ``-0.0`` included. Integer columns (epochs, dataset indices)
  use ``%d``, which is their ``str``.
- The report has string cells that may need quoting, so it keeps
  ``csv.writer``.
- ``read_dataset_csv`` parses with ``csv.reader``, so quoting, the three
  line endings and blank rows are treated as ``csv`` treats them. It checks
  each row's field count as it comes, and appends each block's cells,
  through ``float``, to one growing ``array('d')`` that becomes the table
  without a copy. Only when ``float`` raises is the block scanned again
  row by row, to name the line of the first bad cell.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import asdict, fields
from itertools import chain
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
# rows per block of a numeric table, read or written
_BLOCK_ROWS = 1024


class FormatError(ValueError):
    """A file does not match the expected format."""


def _check_unique(path: str | Path, names: Sequence[str]) -> None:
    repeated = [name for k, name in enumerate(names) if name in names[:k]]
    if repeated:
        raise FormatError(f"{path}: feature name {repeated[0]!r} repeats")


def _write_table(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray],
                 cells: Sequence[str] | None = None) -> None:
    """``header``, then the rows of ``columns`` side by side, as ``csv.writer`` would.

    ``columns`` are 1-D or 2-D arrays of equal length; ``cells`` gives one
    ``%`` format per table column, ``%r`` for each by default.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        line = ",".join(cells or ["%r"] * len(header)) + "\r\n"
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([col[start:start + _BLOCK_ROWS] for col in columns])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_dataset_csv(path: str | Path, data: TimeSeriesSet) -> None:
    _write_table(path, [TIME_COLUMN, *data.feature_names], [data.times(), data.values])


def _append_floats(path: str | Path, values: array, rows: list[list[str]],
                   first_line: int) -> None:
    """Append the cells of ``rows``, which start at line ``first_line``, to ``values``."""
    try:
        values.extend(map(float, chain.from_iterable(rows)))
    except ValueError:
        # name the line of the first bad cell, as a row-by-row parse would
        for lineno, row in enumerate(rows, start=first_line):
            try:
                [float(v) for v in row]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
        raise


def _read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The header and the ``[rows, columns]`` float64 body of a dataset CSV."""
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
        if len(header) < 2:
            raise FormatError(f"{path}: no feature columns")
        _check_unique(path, header[1:])
        values, rows, first_line = array("d"), [], 2
        try:
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    # an earlier bad cell is named first
                    _append_floats(path, values, rows, first_line)
                    raise FormatError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append(row)
                if len(rows) == _BLOCK_ROWS:
                    _append_floats(path, values, rows, first_line)
                    rows, first_line = [], lineno + 1
        except (UnicodeDecodeError, csv.Error):
            _append_floats(path, values, rows, first_line)  # an earlier bad cell first
            raise
    _append_floats(path, values, rows, first_line)
    if len(values) < 2 * len(header):
        raise FormatError(f"{path}: need at least two samples")
    return header, np.frombuffer(values).reshape(-1, len(header))


def read_dataset_csv(path: str | Path) -> TimeSeriesSet:
    try:
        header, arr = _read_table(path)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid text: {exc}") from None
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
    return TimeSeriesSet(tuple(header[1:]), float(times[0]), float(dt), values)


def write_history_csv(path: str | Path, rows: Iterable[HistoryRow]) -> None:
    table = np.array([(row.epoch, row.dataset_index, row.loss) for row in rows],
                     dtype=np.float64).reshape(-1, 3)
    _write_table(path, ["epoch", "dataset_index", "loss"], [table], ["%d", "%d", "%r"])


def write_loss_curve_csv(path: str | Path, losses: Sequence[float]) -> None:
    _write_table(path, ["epoch", "loss"],
                 [np.arange(len(losses)), np.asarray(losses, dtype=np.float64)],
                 ["%d", "%r"])


def write_report_csv(path: str | Path,
                     rows: Iterable[tuple[str, FeatureReport]]) -> None:
    """One row per result column and the truth feature it was scored on."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column", "truth_feature", "mse", "rmse", "rel_rmse"])
        writer.writerows((column, rep.name, rep.mse, rep.rmse, rep.rel_rmse)
                         for column, rep in rows)


def write_spectrum_csv(path: str | Path, freqs: np.ndarray,
                       mags: np.ndarray) -> None:
    _write_table(path, ["frequency_hz", "magnitude"], [freqs, mags])


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


def _check_arrays(path: str | Path, params: dict) -> None:
    """Each parameter array's JSON types, which numpy would otherwise coerce.

    A shape entry of -1 would be inferred, and data entries true or false
    would load as 1.0 or 0.0.
    """
    for name, obj in params.items():
        if not isinstance(obj, dict):
            continue  # fails in load_model
        shape, data = obj.get("shape"), obj.get("data")
        if not (type(shape) is list and all(type(n) is int and n > 0 for n in shape)):
            raise FormatError(f"{path}: params.{name}.shape must be a list of positive "
                              f"JSON integers, got {shape!r}")
        if type(data) is not list:
            raise FormatError(f"{path}: params.{name}.data must be a list of JSON "
                              f"numbers, got {type(data).__name__}")
        if not set(map(type, data)) <= set(_NUMBER):
            k = next(k for k, v in enumerate(data) if type(v) not in _NUMBER)
            raise FormatError(f"{path}: params.{name}.data must be a list of JSON "
                              f"numbers, got {data[k]!r} at index {k}")


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
    if isinstance(doc.get("params"), dict):
        _check_arrays(path, doc["params"])
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
