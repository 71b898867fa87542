"""Command-line pipeline tests at toy scale."""

import json
import multiprocessing

import numpy as np
import pytest

from tracefill import nn, training
from tracefill.autodiff import Tape, registered_ops
from tracefill.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from tracefill.fileio import read_dataset_csv, read_json, write_dataset_csv
from tracefill.nn import AutoencoderParams, NetConfig
from tracefill.preprocess import TimeSeriesSet
from tracefill.training import TrainConfig, train


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> train -> reconstruct -> evaluate, all through main()."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = root / "data"
    out_dir = root / "recon"
    eval_dir = root / "eval"
    model_path = root / "model.json"

    config = root / "sim.json"
    config.write_text(json.dumps({"seed": 7, "n_samples": 80}))
    assert main(["simulate", "--config", str(config), "--out", str(data_dir)]) == EXIT_OK

    assert (
        main(
            [
                "train",
                "--data",
                str(data_dir),
                "--out",
                str(model_path),
                "--epochs",
                "4",
                "--hidden",
                "4",
                "--latent",
                "2",
                "--seed",
                "1",
            ]
        )
        == EXIT_OK
    )

    assert (
        main(
            [
                "reconstruct",
                "--model",
                str(model_path),
                "--data",
                str(data_dir / "test_1.csv"),
                "--missing",
                "u2",
                "--epochs",
                "5",
                "--out",
                str(out_dir),
            ]
        )
        == EXIT_OK
    )

    assert (
        main(
            [
                "evaluate",
                "--result",
                str(out_dir / "reconstruction_test_1_u2.csv"),
                "--truth",
                str(data_dir / "test_1.csv"),
                "--out",
                str(eval_dir),
            ]
        )
        == EXIT_OK
    )

    return root, data_dir, model_path, out_dir, eval_dir


class TestSimulate:
    def test_writes_suite_and_manifest(self, pipeline):
        _, data_dir, *_ = pipeline
        names = sorted(p.name for p in data_dir.glob("*.csv"))
        assert names == [f"train_{i}.csv" for i in range(1, 7)] + ["test_1.csv"][
            :
        ] or len(names) == 7
        manifest = read_json(data_dir / "manifest.json")
        assert manifest["seed"] == 7
        assert manifest["n_samples"] == 80
        assert len(manifest["datasets"]) == 7
        roles = {d["role"] for d in manifest["datasets"]}
        assert roles == {"train", "test"}

    def test_datasets_parse_and_have_features(self, pipeline):
        _, data_dir, *_ = pipeline
        data = read_dataset_csv(data_dir / "train_1.csv")
        assert data.feature_names == ("u1", "i1", "u2", "i2")
        assert data.values.shape == (80, 4)

    def test_same_seed_reproduces_bytes(self, pipeline, tmp_path):
        root, data_dir, *_ = pipeline
        again = tmp_path / "again"
        config = root / "sim.json"
        assert (
            main(["simulate", "--config", str(config), "--out", str(again)])
            == EXIT_OK
        )
        for name in ("train_1.csv", "test_1.csv", "manifest.json"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"seed": 1, "bogus": 2}))
        assert (
            main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_one_sample_fails_validation_and_writes_nothing(self, tmp_path, capsys, how):
        # read_dataset_csv refuses a one-sample file, so train could not
        # read the suite back
        out = tmp_path / "o"
        if how == "flag":
            argv = ["simulate", "--n-samples", "1", "--out", str(out)]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"n_samples": 1}))
            argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert "n_samples must be at least 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["5", '{"circuit": [1]}', '{"circuit": {"bogus": 1}}']
    )
    def test_malformed_config_fails_validation(self, tmp_path, capsys, text):
        config = tmp_path / "c.json"
        config.write_text(text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert str(config) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg,message",
        [({"n_samples": "abc"}, "n_samples must be a JSON integer, got 'abc'"),
         ({"n_samples": 80.0}, "n_samples must be a JSON integer, got 80.0"),
         ({"seed": 1.7}, "seed must be a JSON integer, got 1.7"),
         ({"seed": True}, "seed must be a JSON integer, got True"),
         ({"dt": "fast"}, "dt must be a finite positive number, got 'fast'"),
         ({"dt": 0}, "dt must be a finite positive number, got 0"),
         ({"dt": float("inf")}, "dt must be a finite positive number, got inf"),
         ({"circuit": {"r1": -1.0}}, "bad circuit table: r1 must be positive")],
        ids=["n_samples-str", "n_samples-float", "seed-float", "seed-bool", "dt-str",
             "dt-zero", "dt-inf", "circuit-value"],
    )
    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys, cfg, message):
        # int() and float() would accept some of these, or fail naming neither
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"{config}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_model_and_history(self, pipeline):
        root, _, model_path, *_ = pipeline
        assert model_path.exists()
        doc = json.loads(model_path.read_text())
        assert doc["net"]["lstm_hidden"] == 4
        assert doc["training"]["epochs"] == 4
        history = (root / "model.losses.csv").read_text().splitlines()
        assert history[0] == "epoch,dataset_index,loss"
        assert len(history) == 1 + 4 * 6

    def test_divergence_exits_numerical_naming_dataset_and_epoch(self, pipeline, tmp_path,
                                                                 capsys):
        _, data_dir, *_ = pipeline
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.json"),
                     "--epochs", "3", "--hidden", "4", "--lr", "1e300"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "non-finite loss on dataset" in err and "in epoch" in err
        assert "backward" not in err

    def test_a_helper_chunk_error_exits_numerical(self, pipeline, tmp_path, monkeypatch,
                                                 capsys):
        # 78 windows in chunks of 16: the helper runs the first chunk, and
        # the NonFiniteError of its NaN leaf comes back through the pipe
        _, data_dir, *_ = pipeline
        monkeypatch.setattr(nn, "CHUNK_WINDOWS", 16)
        monkeypatch.setattr(training, "init_params", lambda net, seed: AutoencoderParams(
            {k: v * np.nan for k, v in nn.init_params(net, seed).items()}))
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.json"),
                     "--epochs", "1", "--hidden", "4"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: leaf" in capsys.readouterr().err
        assert not multiprocessing.active_children()

    def test_missing_data_dir_fails_validation(self, tmp_path):
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(tmp_path / "nowhere"),
                    "--out",
                    str(tmp_path / "m.json"),
                    "--epochs",
                    "1",
                ]
            )
            == EXIT_VALIDATION
        )

    @pytest.mark.parametrize("text", ["[1]", '{"datasets": [{"file": "x.csv"}]}',
                                      '{"datasets": [{"file": 5, "role": "train"}]}'])
    def test_malformed_manifest_fails_validation(self, pipeline, tmp_path, capsys,
                                                 text):
        _, data_dir, *_ = pipeline
        data = tmp_path / "data"
        data.mkdir()
        (data / "train_1.csv").write_bytes((data_dir / "train_1.csv").read_bytes())
        (data / "manifest.json").write_text(text)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--epochs", "1"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "manifest.json" in err
        if text == "[1]":
            assert (f"{data / 'manifest.json'}: top level must be a JSON object, got list"
                    in err)

    def test_manifest_that_is_not_json_names_the_file(self, pipeline, tmp_path, capsys):
        _, data_dir, *_ = pipeline
        data = tmp_path / "data"
        data.mkdir()
        (data / "train_1.csv").write_bytes((data_dir / "train_1.csv").read_bytes())
        (data / "manifest.json").write_text("{not json")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--epochs", "1"])
        assert code == EXIT_VALIDATION
        assert f"{data / 'manifest.json'}: not valid JSON" in capsys.readouterr().err


class TestReconstruct:
    def test_writes_result_and_loss_curve(self, pipeline):
        *_, out_dir, _ = pipeline
        result = out_dir / "reconstruction_test_1_u2.csv"
        header = result.read_text().splitlines()[0]
        assert header == "time_s,u2_xmiss,u2_xhatmiss"
        losses = (out_dir / "loss_test_1_u2.csv").read_text().splitlines()
        assert losses[0] == "epoch,loss"
        # five pre-update losses plus the loss after the final update
        assert len(losses) == 1 + 5 + 1

    def test_unknown_missing_feature_fails_validation(self, pipeline, tmp_path):
        root, data_dir, model_path, *_ = pipeline
        code = main(
            [
                "reconstruct",
                "--model",
                str(model_path),
                "--data",
                str(data_dir / "test_1.csv"),
                "--missing",
                "bogus",
                "--epochs",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_VALIDATION

    def test_divergence_exits_numerical_naming_the_channel(self, pipeline, tmp_path,
                                                           capsys):
        # one Adam step of 1e308 puts the estimate where data units overflow
        _, data_dir, model_path, *_ = pipeline
        out_dir = tmp_path / "o"
        code = main(["reconstruct", "--model", str(model_path),
                     "--data", str(data_dir / "test_1.csv"), "--missing", "u1,u2",
                     "--epochs", "1", "--lr", "1e308", "--out", str(out_dir)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "'u1'" in err
        assert not out_dir.exists()

    def test_weights_flag_parses(self, pipeline, tmp_path):
        root, data_dir, model_path, *_ = pipeline
        code = main(
            [
                "reconstruct",
                "--model",
                str(model_path),
                "--data",
                str(data_dir / "test_1.csv"),
                "--missing",
                "u2",
                "--epochs",
                "1",
                "--weights",
                "u1=2.0,i1=0.5",
                "--out",
                str(tmp_path / "w"),
            ]
        )
        assert code == EXIT_OK

    def test_malformed_weights_fail_validation(self, pipeline, tmp_path):
        root, data_dir, model_path, *_ = pipeline
        code = main(
            [
                "reconstruct",
                "--model",
                str(model_path),
                "--data",
                str(data_dir / "test_1.csv"),
                "--missing",
                "u2",
                "--epochs",
                "1",
                "--weights",
                "u1:2.0",
                "--out",
                str(tmp_path / "w2"),
            ]
        )
        assert code == EXIT_VALIDATION


    @pytest.mark.parametrize(
        "weights", ["u1=-1", "u1=nan", "u1=inf", "u1=0,i1=0,i2=0", "u1=1,u1=2"]
    )
    def test_invalid_weights_fail_validation(self, pipeline, tmp_path, weights):
        root, data_dir, model_path, *_ = pipeline
        code = main(
            [
                "reconstruct",
                "--model",
                str(model_path),
                "--data",
                str(data_dir / "test_1.csv"),
                "--missing",
                "u2",
                "--epochs",
                "1",
                "--weights",
                weights,
                "--out",
                str(tmp_path / "w3"),
            ]
        )
        assert code == EXIT_VALIDATION

    @staticmethod
    def reconstruct_with_model_text(data_dir, tmp_path, capsys, text) -> str:
        """Run reconstruct on a model file holding ``text``; expect exit 2."""
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(
            [
                "reconstruct",
                "--model",
                str(bad),
                "--data",
                str(data_dir / "test_1.csv"),
                "--missing",
                "u2",
                "--epochs",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(bad) in err
        return err

    def test_non_object_model_fails_validation(self, pipeline, tmp_path, capsys):
        _, data_dir, *_ = pipeline
        self.reconstruct_with_model_text(data_dir, tmp_path, capsys, "[1, 2]")

    @pytest.mark.parametrize(
        "name,shape",
        [("latent.bias", [3]), ("decoder.wh", [16, 3]), ("encoder.bias", [4, 4])],
    )
    def test_wrong_parameter_shape_fails_validation(self, pipeline, tmp_path, capsys,
                                                    name, shape):
        _, data_dir, model_path, *_ = pipeline
        doc = json.loads(model_path.read_text())
        doc["params"][name] = {"shape": shape, "data": [0.0] * int(np.prod(shape))}
        err = self.reconstruct_with_model_text(
            data_dir, tmp_path, capsys, json.dumps(doc)
        )
        assert f"{name} has shape" in err

    @pytest.mark.parametrize("field", ["mins", "feature_names"])
    def test_feature_count_mismatch_fails_validation(self, pipeline, tmp_path, capsys,
                                                     field):
        _, data_dir, model_path, *_ = pipeline
        doc = json.loads(model_path.read_text())
        owner = doc if field == "feature_names" else doc["scaler"]
        owner[field] = owner[field][:3]
        err = self.reconstruct_with_model_text(
            data_dir, tmp_path, capsys, json.dumps(doc)
        )
        assert "need 4 entries" in err

    @pytest.mark.parametrize(
        "where,value,message",
        [
            (("params", "encoder.wx", "data", 5), float("nan"),
             "encoder.wx contains NaN or Inf"),
            (("params", "readout.bias", "data", 0), float("inf"),
             "readout.bias contains NaN or Inf"),
            (("scaler", "mins", 0), float("nan"), "scaler.mins contains NaN or Inf"),
            (("scaler", "maxs", 1), -1e9, "scaler.maxs is below scaler.mins"),
            (("scaler", "constant", 2), True,
             "scaler.constant disagrees with scaler.mins == scaler.maxs"),
            # u1,u2,u2,i2: reconstruct would leave one column of its series unset
            (("feature_names", 1), "u2", "feature name 'u2' repeats"),
            # a float or bool window length reached range() or read as 1
            (("net", "seq_len"), 3.0, "net.seq_len must be a JSON integer, got 3.0"),
            (("net", "seq_len"), True, "net.seq_len must be a JSON integer, got True"),
            (("net", "lstm_hidden"), 4.0, "net.lstm_hidden must be a JSON integer"),
            (("feature_names", 0), 1, "feature_names must be a list of strings"),
            # read as seed 1 before the training block was checked
            (("training", "seed"), 1.7, "training.seed must be a JSON integer, got 1.7"),
        ],
        ids=["nan-param", "inf-param", "nan-mins", "maxs-below-mins", "constant-flag",
             "repeated-name", "float-seq_len", "bool-seq_len", "float-hidden",
             "int-name", "float-seed"],
    )
    def test_corrupt_model_values_fail_validation(self, pipeline, tmp_path, capsys,
                                                  where, value, message):
        _, data_dir, model_path, *_ = pipeline
        doc = json.loads(model_path.read_text())
        owner = doc
        for key in where[:-1]:
            owner = owner[key]
        owner[where[-1]] = value
        err = self.reconstruct_with_model_text(
            data_dir, tmp_path, capsys, json.dumps(doc)
        )
        assert message in err


class TestOpUsage:
    def test_update_and_epoch_record_every_op_but_sum(self, pipeline, tmp_path,
                                                      monkeypatch):
        # an op that neither path records has no caller and should go
        root, data_dir, model_path, *_ = pipeline
        recorded = set()
        apply = Tape.apply

        def recording_apply(self, op, *inputs, **kwargs):
            recorded.add(op)
            return apply(self, op, *inputs, **kwargs)

        monkeypatch.setattr(Tape, "apply", recording_apply)
        data = read_dataset_csv(data_dir / "train_1.csv")
        net = NetConfig(n_features=4, lstm_hidden=4, latent_dim=2)
        train([data], TrainConfig(epochs=1, net=net))
        code = main(
            [
                "reconstruct",
                "--model",
                str(model_path),
                "--data",
                str(data_dir / "test_1.csv"),
                "--missing",
                "u2",
                "--epochs",
                "1",
                "--weights",
                "u1=2.0,i1=0.5",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_OK
        assert recorded == set(registered_ops()) - {"sum"}


class TestEvaluate:
    def test_report_and_spectra(self, pipeline):
        *_, eval_dir = pipeline
        report = (eval_dir / "report.csv").read_text().splitlines()
        assert report[0] == "column,truth_feature,mse,rmse,rel_rmse"
        # one row per result column (x_miss and x_hat_miss variants)
        assert len(report) == 3
        spectra = sorted(p.name for p in eval_dir.glob("spectrum_*.csv"))
        assert "spectrum_u2_xhatmiss.csv" in spectra
        assert "spectrum_u2_ref.csv" in spectra

    def test_one_reference_spectrum_per_truth_channel(self, pipeline, tmp_path):
        # u1 and u2 each match an _xmiss and an _xhatmiss column
        _, data_dir, _, _, eval_dir = pipeline
        truth = read_dataset_csv(data_dir / "test_1.csv")
        cols = [truth.column(name) for name in ("u1", "u1", "u2", "u2")]
        result = tmp_path / "result.csv"
        write_dataset_csv(result, TimeSeriesSet(
            ("u1_xmiss", "u1_xhatmiss", "u2_xmiss", "u2_xhatmiss"), truth.t0, truth.dt,
            np.column_stack(cols)))
        out = tmp_path / "e"
        code = main(["evaluate", "--result", str(result), "--truth",
                     str(data_dir / "test_1.csv"), "--out", str(out)])
        assert code == EXIT_OK
        refs = sorted(p.name for p in out.glob("spectrum_*_ref.csv"))
        assert refs == ["spectrum_u1_ref.csv", "spectrum_u2_ref.csv"]
        assert ((out / "spectrum_u2_ref.csv").read_bytes()
                == (eval_dir / "spectrum_u2_ref.csv").read_bytes())

    def test_missing_truth_file_fails(self, pipeline, tmp_path):
        *_, out_dir, _ = pipeline
        code = main(
            [
                "evaluate",
                "--result",
                str(out_dir / "reconstruction_test_1_u2.csv"),
                "--truth",
                str(tmp_path / "none.csv"),
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("lineno,col,cell", [(3, 0, "nan"), (4, 1, "inf"), (5, 2, "-inf")])
    def test_non_finite_cell_names_file_and_line(self, pipeline, tmp_path, capsys,
                                                 lineno, col, cell):
        # a nan time passes the equidistance test, so it is checked on its own
        _, data_dir, _, out_dir, _ = pipeline
        lines = (out_dir / "reconstruction_test_1_u2.csv").read_text().splitlines()
        fields = lines[lineno - 1].split(",")
        fields[col] = cell
        lines[lineno - 1] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "evaluate",
                "--result",
                str(bad),
                "--truth",
                str(data_dir / "test_1.csv"),
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{bad}:{lineno}: " in err and f" is {cell}," in err

    def test_uneven_time_grid_names_plain_floats(self, pipeline, tmp_path, capsys):
        _, data_dir, _, out_dir, _ = pipeline
        lines = (out_dir / "reconstruction_test_1_u2.csv").read_text().splitlines()
        fields = lines[3].split(",")
        fields[0] = "1.0"
        lines[3] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--result", str(bad), "--truth",
                     str(data_dir / "test_1.csv"), "--out", str(tmp_path / "e")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{bad}: time column not equidistant" in err and "np.float64(" not in err

    @pytest.mark.parametrize("change", ["dt x10", "t0 +5us", "50 samples"])
    def test_truth_sampled_differently_fails_validation(self, pipeline, tmp_path, capsys,
                                                        change):
        _, data_dir, _, out_dir, _ = pipeline
        truth = read_dataset_csv(data_dir / "test_1.csv")
        if change == "dt x10":
            moved = TimeSeriesSet(truth.feature_names, truth.t0, truth.dt * 10, truth.values)
        elif change == "50 samples":
            moved = truth.replace_values(truth.values[:50])
        else:
            moved = TimeSeriesSet(truth.feature_names, truth.t0 + 5e-6, truth.dt,
                                  truth.values)
        bad = tmp_path / "truth.csv"
        write_dataset_csv(bad, moved)
        result = out_dir / "reconstruction_test_1_u2.csv"
        code = main(["evaluate", "--result", str(result), "--truth", str(bad),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(result) in err and str(bad) in err


class TestUnreadablePaths:
    @pytest.mark.parametrize("argv,expected", [
        ("reconstruct --model {model} --data {dir} --missing u2 --epochs 1 --out {out}",
         "{dir}"),
        ("reconstruct --model {dir} --data {data} --missing u2 --epochs 1 --out {out}",
         "{dir}"),
        ("reconstruct --model {model} --data {data} --missing u2 --epochs 1 --out {file}",
         "{file}"),
        ("evaluate --result {dir} --truth {data} --out {out}", "{dir}"),
        ("evaluate --result {binary} --truth {data} --out {out}", "{binary}: not valid text"),
        ("train --data {file} --out {out} --epochs 1",
         "data directory {file} is not a directory"),
    ], ids=["reconstruct --data DIR", "reconstruct --model DIR", "reconstruct --out FILE",
            "evaluate --result DIR", "evaluate --result BINARY", "train --data FILE"])
    def test_exits_validation_naming_the_path(self, pipeline, tmp_path, capsys,
                                              argv, expected):
        _, data_dir, model_path, *_ = pipeline
        paths = {"model": model_path, "data": data_dir / "test_1.csv",
                 "dir": tmp_path / "a_dir", "file": tmp_path / "a_file",
                 "binary": tmp_path / "binary.csv", "out": tmp_path / "out"}
        paths["dir"].mkdir()
        paths["file"].write_text("x")
        paths["binary"].write_bytes(b"time_s,u1\n0.0,\xff\n")
        assert main([part.format(**paths) for part in argv.split()]) == EXIT_VALIDATION
        assert expected.format(**paths) in capsys.readouterr().err


class TestOutputPathsBeforeTheWork:
    """A path that cannot be written exits 2 before any training or descent runs."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the work ran before its output path was checked")

        monkeypatch.setattr("tracefill.cli.train", fail)
        monkeypatch.setattr("tracefill.cli.reconstruct", fail)

    @pytest.mark.parametrize("argv,expected", [
        ("train --data {data} --out {dir} --epochs 1", "{dir} is a directory"),
        ("train --data {data} --out {nowhere}/model.json --epochs 1",
         "{nowhere} does not exist"),
        ("train --data {data} --out {file}/model.json --epochs 1",
         "{file} is not a directory"),
        ("train --data {data} --out {out}.json --history {dir} --epochs 1",
         "{dir} is a directory"),
        ("train --data {data} --out {out}.json --history {nowhere}/h.csv --epochs 1",
         "{nowhere} does not exist"),
        ("reconstruct --model {model} --data {test} --missing u2 --epochs 1 --out {file}",
         "{file}"),
    ], ids=["train --out DIR", "train --out NO_PARENT", "train --out FILE_PARENT",
            "train --history DIR", "train --history NO_PARENT", "reconstruct --out FILE"])
    def test_exits_validation_naming_the_path(self, pipeline, tmp_path, capsys,
                                              argv, expected):
        _, data_dir, model_path, *_ = pipeline
        paths = {"data": data_dir, "model": model_path, "test": data_dir / "test_1.csv",
                 "dir": tmp_path / "a_dir", "file": tmp_path / "a_file",
                 "nowhere": tmp_path / "nowhere", "out": tmp_path / "out"}
        paths["dir"].mkdir()
        paths["file"].write_text("x")
        assert main([part.format(**paths) for part in argv.split()]) == EXIT_VALIDATION
        assert expected.format(**paths) in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestGradcheck:
    def test_passes_and_prints_per_op_lines(self, capsys):
        assert main(["gradcheck", "--samples", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lstm" in out
        assert "reduced loss" in out
        assert "end-to-end" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_fails_validation(self, capsys, samples):
        # a sweep over no inputs checks nothing, so it may not print "ok"
        assert main(["gradcheck", "--samples", samples]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "samples_per_op must be at least 1" in captured.err
        assert "ok" not in captured.out


class TestParser:
    def test_no_command_fails(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_exit_codes_are_distinct(self):
        assert EXIT_OK == 0
        assert EXIT_VALIDATION == 2
        assert EXIT_NUMERICAL == 3
