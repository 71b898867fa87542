#!/usr/bin/env python3
"""Harder variant of the pipeline experiment: drop two features at once
and recover both by descending on the inputs of a frozen model.

Expects a model and datasets produced by run_pipeline.py (or the
command-line tools); trains one on the fly when --model is absent.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracefill import fileio
from tracefill.circuit import SUITE_PARAMS, generate_suite
from tracefill.metrics import rmse_report
from tracefill.nn import NetConfig
from tracefill.preprocess import TimeSeriesSet
from tracefill.reconstruct import ReconstructionSpec, reconstruct
from tracefill.training import TrainConfig, train


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--missing", default="u1,u2",
                        help="comma-separated features to drop together")
    parser.add_argument("--model", default=None,
                        help="model JSON from a previous run (optional)")
    parser.add_argument("--out", default="runs/two_missing")
    parser.add_argument("--suite-seed", type=int, default=7)
    parser.add_argument("--train-seed", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=None,
                        help="reconstruction epochs (default 3000)")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    missing = tuple(m.strip() for m in args.missing.split(","))

    suite = generate_suite(args.suite_seed, SUITE_PARAMS, 1e-8, 2000)
    truth = suite.test.data

    if args.model:
        model = fileio.load_model(args.model)
        print(f"loaded model from {args.model}")
    else:
        net = NetConfig(n_features=4, seq_len=3, lstm_hidden=16, latent_dim=2)
        config = TrainConfig(epochs=300, seed=args.train_seed, net=net)
        print("training a fresh 300-epoch model ...")
        model, _ = train([e.data for e in suite.train], config)

    spec = ReconstructionSpec(missing=missing, epochs=args.epochs)
    print(f"reconstructing {missing} over {spec.resolved_epochs()} epochs ...")
    started = time.perf_counter()
    result = reconstruct(model, truth, spec)
    elapsed = time.perf_counter() - started

    ratio = result.final_loss / result.initial_loss
    print(f"done in {elapsed:.0f}s; loss {result.initial_loss:.4e} -> "
          f"{result.final_loss:.4e} (ratio {ratio:.4f})")
    for feature in missing:
        report = rmse_report(feature, truth.column(feature), result.x_hat_miss[feature])
        print(f"  {feature}: rel RMSE {report.rel_rmse:.3f}")

    names, columns = [], []
    for feature in missing:
        names += [f"{feature}_xmiss", f"{feature}_xhatmiss", f"{feature}_truth"]
        columns += [
            result.x_miss[feature],
            result.x_hat_miss[feature],
            truth.column(feature),
        ]
    fileio.write_dataset_csv(
        out / f"reconstruction_{'_'.join(missing)}.csv",
        TimeSeriesSet(names, truth.t0, truth.dt, np.column_stack(columns)),
    )
    fileio.write_loss_curve_csv(
        out / f"loss_{'_'.join(missing)}.csv",
        list(result.loss_history) + [result.final_loss],
    )
    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
