#!/usr/bin/env python3
"""End-to-end experiment: synthesize the circuit suite, train the
autoencoder, then reconstruct each feature of the held-out set as if it
had never been measured.

Writes datasets, the trained model, reconstruction CSVs, and loss curves
under --out, and prints a per-feature summary table. The defaults
reproduce the documented reference run (suite seed 7, train seed 2,
reduced 300-epoch profile) in a few minutes on one core.
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
    parser.add_argument("--out", default="runs/pipeline", help="output directory")
    parser.add_argument("--suite-seed", type=int, default=7)
    parser.add_argument("--train-seed", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=300,
                        help="training epochs (documented full profile: 1000)")
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--latent", type=int, default=2)
    parser.add_argument("--n-samples", type=int, default=2000)
    parser.add_argument("--recon-epochs", type=int, default=None,
                        help="per-feature reconstruction epochs (default 300)")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"generating suite (seed {args.suite_seed}, {args.n_samples} samples)")
    suite = generate_suite(args.suite_seed, SUITE_PARAMS, 1e-8, args.n_samples)
    for entry in suite.entries:
        fileio.write_dataset_csv(out / f"{entry.name}.csv", entry.data)

    net = NetConfig(
        n_features=4, seq_len=3, lstm_hidden=args.hidden, latent_dim=args.latent
    )
    config = TrainConfig(epochs=args.epochs, seed=args.train_seed, net=net)
    print(f"training {args.epochs} epochs on {len(suite.train)} datasets ...")
    started = time.perf_counter()
    model, history = train([e.data for e in suite.train], config)
    print(f"  done in {time.perf_counter() - started:.1f}s, "
          f"mean final loss {np.mean(model.final_losses):.3e}")
    fileio.save_model(out / "model.json", model)
    fileio.write_history_csv(out / "model.losses.csv", history)

    truth = suite.test.data
    print(f"reconstructing each feature of {suite.test.name}")
    print(f"{'feature':>8} {'loss ratio':>11} {'rel RMSE raw':>13} "
          f"{'rel RMSE rec':>13} {'time':>6}")
    for feature in truth.feature_names:
        spec = ReconstructionSpec(missing=(feature,), epochs=args.recon_epochs)
        started = time.perf_counter()
        result = reconstruct(model, truth, spec)
        elapsed = time.perf_counter() - started

        ref = truth.column(feature)
        rel_raw = rmse_report(feature, ref, result.x_miss[feature]).rel_rmse
        rel_rec = rmse_report(feature, ref, result.x_hat_miss[feature]).rel_rmse
        ratio = result.final_loss / result.initial_loss
        print(f"{feature:>8} {ratio:>11.4f} {rel_raw:>13.3f} "
              f"{rel_rec:>13.3f} {elapsed:>5.1f}s")

        fileio.write_dataset_csv(out / f"reconstruction_{feature}.csv", TimeSeriesSet(
            (f"{feature}_xmiss", f"{feature}_xhatmiss", f"{feature}_truth"),
            truth.t0, truth.dt,
            np.column_stack([result.x_miss[feature], result.x_hat_miss[feature], ref]),
        ))
        fileio.write_loss_curve_csv(
            out / f"loss_{feature}.csv",
            list(result.loss_history) + [result.final_loss],
        )

    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
