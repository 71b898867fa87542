#!/usr/bin/env python3
"""The reference run, one in-process ``tracefill`` subcommand per phase:
simulate the suite, train, reconstruct each test-set channel alone and the
--missing channels together, and evaluate every result. Prints each
phase's wall and CPU time (this process plus its joined chunk helpers),
each run's loss ratio and each column's rel RMSE, and writes the same
records to <out>/run.json. The defaults are the documented reference run.
"""

import argparse
import csv
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracefill import cli


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/pipeline", help="output directory")
    parser.add_argument("--suite-seed", type=int, default=7)
    parser.add_argument("--train-seed", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=300,
                        help="training epochs (documented full profile: 1000)")
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--n-samples", type=int, default=2000)
    parser.add_argument("--recon-epochs", type=int, default=None,
                        help="epochs of every reconstruction "
                             "(default 300 for one channel, 3000 for several)")
    parser.add_argument("--missing", default="u1,u2",
                        help="comma-separated channels to reconstruct together")
    return parser.parse_args()


def cpu_seconds() -> float:
    """User plus system time of this process and of its joined children."""
    usages = (resource.getrusage(resource.RUSAGE_SELF),
              resource.getrusage(resource.RUSAGE_CHILDREN))
    return sum(u.ru_utime + u.ru_stime for u in usages)


def rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def stem(missing: str) -> str:
    """The name ``reconstruct`` gives the files of one run on the test set."""
    return "_".join(["test_1", *(m.strip() for m in missing.split(","))])


def main() -> int:
    args = parse_args()
    out = Path(args.out)
    data, model, recon = out / "data", out / "model.json", out / "recon"
    phases = []

    def phase(name: str, *argv: str) -> dict:
        wall, cpu = time.perf_counter(), cpu_seconds()
        code = cli.main(list(argv))
        if code != cli.EXIT_OK:
            raise SystemExit(f"phase {name!r} exited {code}")
        phases.append({"phase": name, "wall_s": time.perf_counter() - wall,
                       "cpu_s": cpu_seconds() - cpu})
        return phases[-1]

    phase("simulate", "simulate", "--seed", str(args.suite_seed),
          "--n-samples", str(args.n_samples), "--out", str(data))
    phase("train", "train", "--data", str(data), "--out", str(model),
          "--epochs", str(args.epochs), "--hidden", str(args.hidden),
          "--seed", str(args.train_seed))
    runs = ["u1", "i1", "u2", "i2", args.missing]
    epochs = [] if args.recon_epochs is None else ["--epochs", str(args.recon_epochs)]
    for missing in runs:
        record = phase(f"reconstruct {missing}", "reconstruct", "--model", str(model),
                       "--data", str(data / "test_1.csv"), "--missing", missing,
                       "--out", str(recon), *epochs)
        losses = [float(r["loss"]) for r in rows(recon / f"loss_{stem(missing)}.csv")]
        record["loss_ratio"] = losses[-1] / losses[0]
    for missing in runs:
        evaluated = out / "eval" / stem(missing)
        record = phase(f"evaluate {missing}", "evaluate",
                       "--result", str(recon / f"reconstruction_{stem(missing)}.csv"),
                       "--truth", str(data / "test_1.csv"), "--out", str(evaluated))
        record["rel_rmse"] = {r["column"]: float(r["rel_rmse"])
                              for r in rows(evaluated / "report.csv")}

    (out / "run.json").write_text(json.dumps(
        {"options": vars(args), "phases": phases}, indent=2) + "\n")
    print(f"\n{'phase':<20} {'wall_s':>7} {'cpu_s':>7} {'loss ratio':>10}  rel RMSE of x_hat")
    for p in phases:
        ratio = f"{p['loss_ratio']:.4f}" if "loss_ratio" in p else ""
        rel = " ".join(f"{c.removesuffix('_xhatmiss')} {v:.3f}"
                       for c, v in p.get("rel_rmse", {}).items() if c.endswith("_xhatmiss"))
        print(f"{p['phase']:<20} {p['wall_s']:>7.2f} {p['cpu_s']:>7.2f} {ratio:>10}  {rel}")
    print(f"records: {out / 'run.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
