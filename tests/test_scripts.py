"""The experiment scripts run end to end at toy size and write their files."""

import subprocess
import sys
from pathlib import Path

from tracefill.fileio import read_dataset_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FEATURES = ("u1", "i1", "u2", "i2")


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_pipeline_then_two_missing(tmp_path):
    pipeline = tmp_path / "pipeline"
    run_script("run_pipeline.py", "--out", str(pipeline), "--epochs", "1",
               "--n-samples", "40", "--recon-epochs", "1", "--hidden", "4",
               cwd=tmp_path)
    expected = ["model.json", "model.losses.csv", "test_1.csv"]
    expected += [f"train_{i}.csv" for i in range(1, 7)]
    for feature in FEATURES:
        expected += [f"reconstruction_{feature}.csv", f"loss_{feature}.csv"]
    assert sorted(p.name for p in pipeline.iterdir()) == sorted(expected)
    recon = read_dataset_csv(pipeline / "reconstruction_u2.csv")
    assert recon.feature_names == ("u2_xmiss", "u2_xhatmiss", "u2_truth")
    assert recon.n_samples == 40

    two = tmp_path / "two"
    run_script("two_missing.py", "--model", str(pipeline / "model.json"),
               "--out", str(two), "--epochs", "1", cwd=tmp_path)
    assert sorted(p.name for p in two.iterdir()) == [
        "loss_u1_u2.csv", "reconstruction_u1_u2.csv",
    ]
    both = read_dataset_csv(two / "reconstruction_u1_u2.csv")
    assert both.feature_names == (
        "u1_xmiss", "u1_xhatmiss", "u1_truth", "u2_xmiss", "u2_xhatmiss", "u2_truth",
    )
