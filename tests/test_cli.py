"""Command-line pipeline tests at toy scale."""

import json

import numpy as np
import pytest

from tracefill.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from tracefill.fileio import read_dataset_csv, read_manifest


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
        manifest = read_manifest(data_dir / "manifest.json")
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


class TestEvaluate:
    def test_report_and_spectra(self, pipeline):
        *_, eval_dir = pipeline
        report = (eval_dir / "report.csv").read_text().splitlines()
        assert report[0] == "column,truth_feature,mse,rmse,rel_rmse"
        # one row per result column (x_miss and x_hat_miss variants)
        assert len(report) == 3
        spectra = sorted(p.name for p in eval_dir.glob("spectrum_*.csv"))
        assert "spectrum_u2_xhatmiss.csv" in spectra
        assert "spectrum_u2_xhatmiss_ref.csv" in spectra

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


class TestGradcheck:
    def test_passes_and_prints_per_op_lines(self, capsys):
        assert main(["gradcheck", "--samples", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "matmul" in out
        assert "reduced loss" in out
        assert "end-to-end" in out
        assert "FAIL" not in out


class TestParser:
    def test_no_command_fails(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_exit_codes_are_distinct(self):
        assert EXIT_OK == 0
        assert EXIT_VALIDATION == 2
        assert EXIT_NUMERICAL == 3
