"""scripts/run_pipeline.py runs every phase at toy size and records each one."""

import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
RUNS = ("u1", "i1", "u2", "i2", "u1,u2")
STEMS = tuple("test_1_" + missing.replace(",", "_") for missing in RUNS)


def test_reference_run_records_every_phase_in_run_json(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--epochs", "1",
         "--n-samples", "40", "--recon-epochs", "1", "--hidden", "4"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    assert sorted(p.name for p in out.iterdir()) == [
        "data", "eval", "model.json", "model.losses.csv", "recon", "run.json",
    ]
    assert sorted(p.name for p in (out / "data").iterdir()) == sorted(
        ["manifest.json", "test_1.csv", *(f"train_{i}.csv" for i in range(1, 7))])
    assert sorted(p.name for p in (out / "recon").iterdir()) == sorted(
        f"{kind}_{stem}.csv" for stem in STEMS for kind in ("loss", "reconstruction"))
    assert sorted(p.name for p in (out / "eval").iterdir()) == sorted(STEMS)

    phases = json.loads((out / "run.json").read_text())["phases"]
    assert [p["phase"] for p in phases] == [
        "simulate", "train",
        *(f"reconstruct {missing}" for missing in RUNS),
        *(f"evaluate {missing}" for missing in RUNS),
    ]
    for p in phases:
        assert all(math.isfinite(p[key]) and p[key] >= 0 for key in ("wall_s", "cpu_s")), p
    for p in phases[2:7]:
        assert math.isfinite(p["loss_ratio"]), p
    for p, missing in zip(phases[7:], RUNS):
        hats = {c: v for c, v in p["rel_rmse"].items() if c.endswith("_xhatmiss")}
        assert sorted(hats) == sorted(f"{m}_xhatmiss" for m in missing.split(","))
        assert all(math.isfinite(v) for v in hats.values()), p
