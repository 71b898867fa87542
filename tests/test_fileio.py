"""File format tests: CSV datasets, model JSON, manifests, spectra."""

import ast
import csv
import json
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tracefill.circuit import generate_suite
from tracefill.fileio import (
    MODEL_FORMAT_VERSION,
    REL_TIME_TOL,
    TIME_COLUMN,
    FormatError,
    load_model,
    read_dataset_csv,
    read_json,
    save_model,
    write_dataset_csv,
    write_history_csv,
    write_json,
    write_loss_curve_csv,
    write_report_csv,
    write_spectrum_csv,
)
from tracefill.metrics import FeatureReport
from tracefill.nn import NetConfig, init_params
from tracefill.preprocess import ScalerParams, TimeSeriesSet
from tracefill.training import HistoryRow, TrainedModel


def sample_set() -> TimeSeriesSet:
    rng = np.random.default_rng(5)
    # awkward magnitudes on purpose: round-tripping must preserve bits
    values = rng.normal(0, 1, (20, 3)) * np.array([1e-7, 3.7, 1e4])
    return TimeSeriesSet(("u1", "i1", "u2"), 0.0, 1e-8, values)


def sample_model() -> TrainedModel:
    config = NetConfig(n_features=3, seq_len=3, lstm_hidden=5, latent_dim=2)
    params = init_params(config, seed=9)
    scaler = ScalerParams(
        feature_names=("u1", "i1", "u2"),
        mins=np.array([-1.0, -2.0, 0.5]),
        maxs=np.array([1.0, 3.0, 0.5]),
        constant=np.array([False, False, True]),
    )
    return TrainedModel(
        params=params,
        scaler=scaler,
        net=config,
        feature_names=("u1", "i1", "u2"),
        seed=9,
        epochs=12,
        learning_rate=0.001,
        final_losses=(0.5, 0.25),
    )


class TestDatasetCSV:
    def test_round_trip_is_bit_exact(self, tmp_path):
        data = sample_set()
        path = tmp_path / "set.csv"
        write_dataset_csv(path, data)
        again = read_dataset_csv(path)
        assert again.feature_names == data.feature_names
        np.testing.assert_array_equal(again.values, data.values)
        assert again.dt == data.dt
        assert again.t0 == data.t0

    def test_rewrite_is_byte_identical(self, tmp_path):
        data = sample_set()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_dataset_csv(first, data)
        write_dataset_csv(second, read_dataset_csv(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_names_the_time_column(self, tmp_path):
        path = tmp_path / "set.csv"
        write_dataset_csv(path, sample_set())
        header = path.read_text().splitlines()[0]
        assert header == "time_s,u1,i1,u2"

    def test_jittered_time_grid_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["time_s,a", "0.0,1.0", "1.0,2.0", "2.5,3.0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_short_file_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,a\n0.0,1.0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_ragged_row_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,a,b\n0.0,1.0,2.0\n1.0,3.0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_non_numeric_cell_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,a\n0.0,1.0\n1.0,oops\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_repeated_column_is_rejected_with_the_path(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,u1,u1\n0.0,1.0,2.0\n1.0,3.0,4.0\n")
        with pytest.raises(FormatError, match=f"{path}: feature name 'u1' repeats"):
            read_dataset_csv(path)

    def test_missing_time_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)


class TestModelJSON:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        again = load_model(path)
        for name, arr in model.params.as_dict().items():
            np.testing.assert_array_equal(arr, again.params.as_dict()[name])
        np.testing.assert_array_equal(model.scaler.mins, again.scaler.mins)
        np.testing.assert_array_equal(model.scaler.maxs, again.scaler.maxs)
        np.testing.assert_array_equal(model.scaler.constant, again.scaler.constant)
        assert again.net == model.net
        assert again.feature_names == model.feature_names
        assert again.seed == model.seed
        assert again.epochs == model.epochs
        assert again.learning_rate == model.learning_rate
        assert again.final_losses == model.final_losses

    def test_format_version_is_checked(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == MODEL_FORMAT_VERSION
        doc["format_version"] = MODEL_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(path)

    def test_corrupted_shape_is_rejected(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["params"]["encoder.wx"]["shape"] = [1, 1]
        doc["params"]["encoder.wx"]["data"] = [0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "where,value,message",
        [
            (("net", "seq_len"), 3.0, "net.seq_len must be a JSON integer, got 3.0"),
            (("net", "seq_len"), True, "net.seq_len must be a JSON integer, got True"),
            (("net", "lstm_hidden"), 4.0, "net.lstm_hidden must be a JSON integer, got 4.0"),
            (("net", "latent_dim"), "2", "net.latent_dim must be a JSON integer, got '2'"),
            (("feature_names",), [1, 2, 3], "feature_names must be a list of strings"),
            (("feature_names",), "abc", "feature_names must be a list of strings"),
            # each of these read as a plausible value before it was checked
            (("training", "seed"), 1.7, "training.seed must be a JSON integer, got 1.7"),
            (("training", "seed"), True, "training.seed must be a JSON integer, got True"),
            (("training", "epochs"), "12",
             "training.epochs must be a JSON integer, got '12'"),
            (("training", "learning_rate"), "0.001",
             "training.learning_rate must be a finite JSON number, got '0.001'"),
            (("training", "learning_rate"), float("nan"),
             "training.learning_rate must be a finite JSON number, got nan"),
            (("training", "final_losses"), ["0.5", "0.25"],
             "training.final_losses must be a list of JSON numbers, got ['0.5', '0.25']"),
            (("scaler", "constant"), [0, 0, 1],
             "scaler.constant must be a list of JSON booleans, got [0, 0, 1]"),
            (("scaler", "mins"), ["-1.0", "-2.0", "0.5"],
             "scaler.mins must be a list of JSON numbers, got ['-1.0', '-2.0', '0.5']"),
            (("scaler", "maxs"), 1.0, "scaler.maxs must be a list of JSON numbers, got 1.0"),
        ],
        ids=["float-seq_len", "bool-seq_len", "float-hidden", "string-latent",
             "int-names", "string-names", "float-seed", "bool-seed", "string-epochs",
             "string-lr", "nan-lr", "string-losses", "int-constant", "string-mins",
             "scalar-maxs"],
    )
    def test_mistyped_net_field_or_names_are_rejected(self, tmp_path, where, value,
                                                      message):
        path = tmp_path / "model.json"
        save_model(path, sample_model())
        doc = json.loads(path.read_text())
        owner = doc
        for key in where[:-1]:
            owner = owner[key]
        owner[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_missing_net_field_is_rejected(self, tmp_path):
        # seq_len sets no array shape: a default would go unnoticed
        path = tmp_path / "model.json"
        save_model(path, sample_model())
        doc = json.loads(path.read_text())
        del doc["net"]["seq_len"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="net.seq_len must be a JSON integer"):
            load_model(path)

    def test_missing_parameter_is_rejected(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        del doc["params"]["readout.bias"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(path)


class TestAuxiliaryFiles:
    def test_history_csv(self, tmp_path):
        path = tmp_path / "history.csv"
        rows = [HistoryRow(0, 0, 0.5), HistoryRow(0, 1, 0.4), HistoryRow(1, 0, 0.3)]
        write_history_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,dataset_index,loss"
        assert len(lines) == 4
        assert lines[1].startswith("0,0,")

    def test_loss_curve_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_curve_csv(path, [0.5, 0.25, 0.125])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = {"seed": 7, "datasets": [{"file": "a.csv", "role": "train"}]}
        write_json(path, manifest)
        assert read_json(path) == manifest

    @pytest.mark.parametrize(
        "text,message",
        [("[1]", "top level must be a JSON object, got list"),
         ("{not json", "not valid JSON"),
         (b"\xff\xfe{}", "not valid JSON")],
        ids=["list", "not-json", "not-utf8"],
    )
    def test_read_json_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "doc.json"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        with pytest.raises(FormatError, match="^" + re.escape(f"{path}: {message}")):
            read_json(path)

    def test_report_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [("u2_xhatmiss", FeatureReport("u2", 0.25, 0.5, 0.1)),
                                ("u2_xmiss", FeatureReport("u2", 4.0, 2.0, float("inf")))])
        assert path.read_text().splitlines() == [
            "column,truth_feature,mse,rmse,rel_rmse",
            "u2_xhatmiss,u2,0.25,0.5,0.1",
            "u2_xmiss,u2,4.0,2.0,inf",
        ]

    def test_spectrum_csv(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, np.array([0.0, 1.0]), np.array([0.5, 0.25]))
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency_hz,magnitude"
        assert len(lines) == 3


def test_only_fileio_imports_csv_and_json():
    # every on-disk layout lives in fileio; a second owner would drift from it
    src = Path(__file__).resolve().parents[1] / "src" / "tracefill"
    owners = set()
    for module in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            owners.update((name.split(".")[0], module.name) for name in names)
    assert {pair for pair in owners if pair[0] in ("csv", "json")} == {
        ("csv", "fileio.py"), ("json", "fileio.py"),
    }


def reference_read(path) -> TimeSeriesSet:
    """``read_dataset_csv`` as it was before block reading: one row at a time."""
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
            repeated = [name for k, name in enumerate(names) if name in names[:k]]
            if repeated:
                raise FormatError(f"{path}: feature name {repeated[0]!r} repeats")
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


def outcome(read, path):
    """What ``read`` makes of ``path``: the set's exact bits, or the error's text."""
    try:
        data = read(path)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc).__name__, str(exc)
    return (data.feature_names, data.t0.hex(), data.dt.hex(), data.values.shape,
            data.values.tobytes())


def table_text(n_rows, cell=lambda row, col: f"{row * 0.5 + col!r}", width=3, end="\n"):
    header = ",".join([TIME_COLUMN] + [f"c{col}" for col in range(1, width)])
    rows = [",".join(f"{row}.0" if col == 0 else cell(row, col) for col in range(width))
            for row in range(n_rows)]
    return end.join([header, *rows]) + end


def with_cell(n_rows, bad_row, text):
    return table_text(n_rows, lambda row, col: text if (row, col) == (bad_row, 1)
                      else f"{row * 0.5 + col!r}")


# the cases the block reader must treat exactly as the row-by-row one did
READER_CORPUS = {
    "crlf": table_text(5, end="\r\n"),
    "lf": table_text(5),
    "cr": table_text(5, end="\r"),
    "blank-row-inside": "time_s,a\n0.0,1.0\n\n1.0,2.0\n",
    "blank-row-at-end": "time_s,a\n0.0,1.0\n1.0,2.0\n\n",
    "quoted-number": 'time_s,a\n0.0,"1.5"\n1.0,2.0\n',
    "quoted-comma": 'time_s,a\n0.0,"1,5"\n1.0,2.0\n',
    **{f"cell-{text!r}": with_cell(5, 2, text)
       for text in ("1_0", "１", " 1.5", "", "nan", "-inf", "1e400", "0x10", "abc")},
    "short-row": "time_s,a,b\n0.0,1.0,2.0\n1.0,3.0\n",
    "long-row": "time_s,a\n0.0,1.0\n1.0,2.0,3.0\n",
    "bad-cell-then-short-row": "time_s,a\n0.0,x\n1.0\n",
    "invalid-utf8": b"time_s,a\n0.0,1.0\n1.0,\xff\n",
    # the bad cell is still in an unconverted block when the decoder fails
    "bad-cell-then-invalid-utf8": (with_cell(1500, 1030, "x").encode()
                                   + b"1500.0,\xff,1.0\n"),
    "header-only": "time_s,a\n",
    "one-row": "time_s,a\n0.0,1.0\n",
    "empty": "",
    "no-features": "time_s\n0.0\n1.0\n",
    "repeated-name": "time_s,a,a\n0.0,1.0,2.0\n1.0,3.0,4.0\n",
    "jittered-time": "time_s,a\n0.0,1.0\n1.0,2.0\n2.5,3.0\n",
    "rows-1024": table_text(1024),
    "rows-1025": table_text(1025),
    "rows-2048": table_text(2048),
    "bad-cell-opening-the-second-block": with_cell(1030, 1024, "x"),
    "bad-cell-closing-the-first-block": with_cell(1030, 1023, "x"),
    "nan-in-the-second-block": with_cell(1030, 1027, "nan"),
    "short-row-in-the-second-block": table_text(1030).replace("\n1025.0,513.5,", "\n1025.0,"),
}


class TestBlockReader:
    """``read_dataset_csv`` against the row-by-row reader it replaced."""

    @pytest.mark.parametrize("name", READER_CORPUS)
    def test_matches_the_row_by_row_reader(self, tmp_path, name):
        text = READER_CORPUS[name]
        path = tmp_path / "set.csv"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(
            text, **({} if isinstance(text, bytes) else {"newline": ""}))
        assert outcome(read_dataset_csv, path) == outcome(reference_read, path)

    def test_bad_cell_of_the_second_block_names_its_line(self, tmp_path):
        path = tmp_path / "set.csv"
        path.write_text(READER_CORPUS["bad-cell-opening-the-second-block"])
        # data row 1024 is file line 1026, after the header and rows 0..1023
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:1026: could not convert string to float: 'x'")):
            read_dataset_csv(path)

    def test_mutations_of_a_suite_file(self, tmp_path):
        # 300 one-cell or one-line edits of a simulated set over two blocks
        source = tmp_path / "test_1.csv"
        write_dataset_csv(source, generate_suite(7, n_samples=1100).test.data)
        lines = source.read_bytes().split(b"\r\n")[:-1]
        rng = random.Random(27)
        cells = [b"", b"nan", b"inf", b"-inf", b"abc", b"1e400", b"-1e400", b"1_0",
                 "１".encode(), b" 1.5 ", b'"1.5"', b'"1,5"', b"1,5", b"0x10",
                 b"\xff", b"\x00", b"1e-400", b"-0.0", b"--1", b"1.5.2", b"+7"]
        edits = {
            "cell": lambda k: cell_edit(lines[k], rng.randrange(5), rng.choice(cells)),
            "digit": lambda k: cell_edit(lines[k], rng.randrange(5),
                                         lines[k].split(b",")[0][::-1]),
            "delete": lambda k: b"",
            "blank": lambda k: None,
            "duplicate": lambda k: lines[k] + b"\r\n" + lines[k],
            "drop-field": lambda k: lines[k].rsplit(b",", 1)[0],
            "add-field": lambda k: lines[k] + b",1.0",
            "bare-cr": lambda k: lines[k].replace(b",", b"\r", 1),
            "quote": lambda k: b'"' + lines[k],
        }
        outcomes = set()
        for trial in range(300):
            kind = rng.choice(sorted(edits))
            k = rng.randrange(len(lines))
            edited = edits[kind](k)
            body = lines[:k] + ([] if edited == b"" else [edited or b""]) + lines[k + 1:]
            path = tmp_path / f"mutant_{trial}.csv"
            path.write_bytes(b"\r\n".join(body) + b"\r\n")
            got = outcome(read_dataset_csv, path)
            assert got == outcome(reference_read, path), (kind, k, edited)
            outcomes.add(got[0] if isinstance(got[0], str) else "ok")
            path.unlink()
        assert outcomes == {"FormatError", "ok"}


def cell_edit(line: bytes, col: int, text: bytes) -> bytes:
    cells = line.split(b",")
    cells[col % len(cells)] = text
    return b",".join(cells)


def reference_write(path, header, table) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table)


BIT_PATTERNS = np.random.default_rng(11).integers(0, 2**64, 4000, dtype=np.uint64,
                                                  endpoint=False).view(np.float64)
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308,
                    2.2250738585072014e-308, 0.1, 1 / 3])


class TestBlockWriter:
    """The writers against ``csv.writer``, byte for byte."""

    NAMES = ("u1", "a,b", 'say "hi"')

    @pytest.mark.parametrize("n_rows", [0, 1, 1024, 1025])
    def test_dataset_bytes(self, tmp_path, n_rows):
        finite = BIT_PATTERNS[np.isfinite(BIT_PATTERNS)]
        values = np.resize(np.concatenate([SPECIAL[3:], finite]), (n_rows, 3))
        data = TimeSeriesSet(self.NAMES, -1.5e-9, 1e-8, values)
        write_dataset_csv(tmp_path / "got.csv", data)
        reference_write(tmp_path / "ref.csv", [TIME_COLUMN, *self.NAMES],
                        np.column_stack([data.times(), values]).tolist())
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 1024, 1025])
    def test_spectrum_bytes(self, tmp_path, n_rows):
        # every bit pattern, NaNs and infinities included
        cells = np.resize(np.concatenate([SPECIAL, BIT_PATTERNS]), (n_rows, 2))
        write_spectrum_csv(tmp_path / "got.csv", cells[:, 0], cells[:, 1])
        reference_write(tmp_path / "ref.csv", ["frequency_hz", "magnitude"], cells.tolist())
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_history_and_loss_curve_bytes(self, tmp_path):
        losses = np.resize(np.concatenate([SPECIAL, BIT_PATTERNS]), 1500).tolist()
        rows = [HistoryRow(k // 6, k % 6, loss) for k, loss in enumerate(losses)]
        write_history_csv(tmp_path / "got.csv", rows)
        reference_write(tmp_path / "ref.csv", ["epoch", "dataset_index", "loss"],
                        [(row.epoch, row.dataset_index, row.loss) for row in rows])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_loss_curve_csv(tmp_path / "got.csv", losses)
        reference_write(tmp_path / "ref.csv", ["epoch", "loss"], enumerate(losses))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_io_memory_is_bounded_in_the_table_length(tmp_path):
    # neither direction holds a Python float per cell: a T x (n + 1) table
    # of 8-byte floats costs at most 2 (writing) or 3 (reading) times its size
    T, n = 200_000, 4
    data = TimeSeriesSet(("u1", "i1", "u2", "i2"), 0.0, 1e-8,
                         np.random.default_rng(3).normal(0.0, 1.0, (T, n)))
    path = tmp_path / "long.csv"
    peaks = {}
    for what, run in (("write", lambda: write_dataset_csv(path, data)),
                      ("read", lambda: read_dataset_csv(path))):
        tracemalloc.start()
        try:
            run()
            peaks[what] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    table = 8 * T * (n + 1)
    assert peaks["write"] <= 2 * table and peaks["read"] <= 3 * table, peaks
