"""File format tests: CSV datasets, model JSON, manifests, spectra."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tracefill.fileio import (
    MODEL_FORMAT_VERSION,
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
