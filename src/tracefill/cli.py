"""Command-line interface.

Subcommands cover the full experiment loop: ``simulate`` writes the
synthetic circuit suite, ``train`` fits the autoencoder, ``reconstruct``
recovers missing feature columns against a frozen model, ``evaluate``
compares results with ground truth (plus amplitude spectra), and
``gradcheck`` verifies every derivative rule against finite differences.

Exit codes: 0 success, 2 validation/usage error or a path that cannot be
read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import circuit, fileio, metrics, preprocess
from .autodiff import NonFiniteError, Tape, grad_check, run_op_checks
from .nn import NetConfig, init_params, lift_params, windowed_loss
from .reconstruct import ReconstructionSpec, reconstruct
from .rng import Xoshiro256
from .training import DivergenceError, TrainConfig, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

GRADCHECK_TOL = 1e-5


class CliError(ValueError):
    """User-facing validation problem; maps to exit code 2."""


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = fileio.read_simulate_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    dt = float(cfg.get("dt", 1e-8))
    n_samples = args.n_samples if args.n_samples is not None else cfg.get(
        "n_samples", 2000
    )
    if n_samples < 2:  # read_dataset_csv refuses a one-sample file
        raise CliError(f"n_samples must be at least 2, got {n_samples}")
    # absent circuit section means the bundled-suite component values, not
    # the CircuitParams defaults; overriding any component goes through the
    # config's "circuit" table
    circuit_cfg = cfg.get("circuit")
    try:
        params = (
            circuit.CircuitParams(**circuit_cfg) if circuit_cfg
            else circuit.SUITE_PARAMS
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"{args.config}: bad circuit table: {exc}") from None
    suite = circuit.generate_suite(seed, params, dt, n_samples)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for entry in suite.entries:
        filename = f"{entry.name}.csv"
        fileio.write_dataset_csv(out / filename, entry.data)
        entries.append({
            "file": filename,
            "role": entry.role,
            "waveform": [circuit.term_to_dict(t) for t in entry.waveform.terms],
        })
    fileio.write_json(out / "manifest.json", {
        "seed": seed,
        "dt": dt,
        "n_samples": n_samples,
        "circuit": dataclasses.asdict(params),
        "datasets": entries,
    })
    print(f"wrote {len(entries)} datasets to {out}")
    return EXIT_OK


def _load_suite_datasets(data_dir: Path, role: str) -> list[preprocess.TimeSeriesSet]:
    manifest_path = data_dir / "manifest.json"
    if manifest_path.exists():
        manifest = fileio.read_json(manifest_path)
        try:
            files = [data_dir / d["file"] for d in manifest["datasets"]
                     if d["role"] == role]
        except (KeyError, TypeError) as exc:
            raise CliError(f"{manifest_path}: malformed manifest: {exc!r}") from None
    else:
        files = sorted(data_dir.glob(f"{role}_*.csv"))
    if not files:
        raise CliError(f"no {role} datasets found in {data_dir}")
    return [fileio.read_dataset_csv(f) for f in files]


def _output_file(path: str) -> str:
    """``path`` if a file can be written there; checked before the work, not after it."""
    parent = Path(path).parent
    if Path(path).is_dir():
        raise CliError(f"output file {path} is a directory")
    if not parent.is_dir():
        problem = "is not a directory" if parent.exists() else "does not exist"
        raise CliError(f"cannot write {path}: {parent} {problem}")
    return path


def cmd_train(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        problem = "is not a directory" if data_dir.exists() else "does not exist"
        raise CliError(f"data directory {data_dir} {problem}")
    model_path = _output_file(args.out)
    history_path = _output_file(args.history or str(Path(args.out).with_suffix(".losses.csv")))
    datasets = _load_suite_datasets(data_dir, "train")
    net = NetConfig(
        n_features=datasets[0].n_features,
        seq_len=args.seq_len,
        lstm_hidden=args.hidden,
        latent_dim=args.latent,
    )
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=args.seed,
        net=net,
    )
    started = time.perf_counter()
    model, history = train(datasets, config)
    elapsed = time.perf_counter() - started
    fileio.save_model(model_path, model)
    fileio.write_history_csv(history_path, history)
    mean_final = float(np.mean(model.final_losses))
    print(
        f"trained {config.epochs} epochs on {len(datasets)} datasets "
        f"in {elapsed:.1f}s; mean final loss {mean_final:.3e}"
    )
    print(f"model: {model_path}")
    print(f"history: {history_path}")
    return EXIT_OK


def _parse_weights(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise CliError(f"weights must look like name=value, got {part!r}")
        name, value = part.split("=", 1)
        name = name.strip()
        if name in out:
            raise CliError(f"weight for {name!r} given twice")
        try:
            out[name] = float(value)
        except ValueError:
            raise CliError(f"bad weight value in {part!r}") from None
    return out


def cmd_reconstruct(args: argparse.Namespace) -> int:
    model = fileio.load_model(args.model)
    data = fileio.read_dataset_csv(args.data)
    missing = tuple(m.strip() for m in args.missing.split(",") if m.strip())
    spec = ReconstructionSpec(
        missing=missing,
        epochs=args.epochs,
        learning_rate=args.lr,
        init=args.init,
        weights=_parse_weights(args.weights) or None,
    )
    # a file at --out fails here, before the work; a run that fails leaves
    # no directory behind that it made
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = reconstruct(model, data, spec)
    except BaseException:
        if made:
            out.rmdir()
        raise
    elapsed = time.perf_counter() - started

    names, columns = [], []
    for m in missing:
        names += [f"{m}_xmiss", f"{m}_xhatmiss"]
        columns += [result.x_miss[m], result.x_hat_miss[m]]
    stem = f"{Path(args.data).stem}_{'_'.join(missing)}"
    result_path = out / f"reconstruction_{stem}.csv"
    fileio.write_dataset_csv(result_path, preprocess.TimeSeriesSet(
        names, data.t0, data.dt, np.column_stack(columns)))
    # history rows carry the loss before each update; the extra last row is
    # the loss after the final update, so the curve file is self-contained
    fileio.write_loss_curve_csv(
        out / f"loss_{stem}.csv",
        list(result.loss_history) + [result.final_loss],
    )

    ratio = (result.final_loss / result.initial_loss
             if result.initial_loss > 0 else float("nan"))
    print(
        f"reconstructed {', '.join(missing)} in {elapsed:.1f}s over "
        f"{spec.resolved_epochs()} epochs"
    )
    print(
        f"loss {result.initial_loss:.4e} -> {result.final_loss:.4e} "
        f"(ratio {ratio:.3f})"
    )
    print(f"result: {result_path}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    result = fileio.read_dataset_csv(args.result)
    truth = fileio.read_dataset_csv(args.truth)
    if result.n_samples != truth.n_samples:
        raise CliError(
            f"length mismatch: {args.result} has {result.n_samples} samples, "
            f"{args.truth} has {truth.n_samples}"
        )
    # the reader's tolerance on dt; t0 gets the same absolute bound
    tol = fileio.REL_TIME_TOL * abs(truth.dt)
    if abs(result.dt - truth.dt) > tol or abs(result.t0 - truth.t0) > tol:
        raise CliError(
            f"sampling mismatch: {args.result} has t0 {result.t0!r}, dt {result.dt!r}; "
            f"{args.truth} has t0 {truth.t0!r}, dt {truth.dt!r}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def truth_name(column: str) -> str | None:
        for suffix in ("_xmiss", "_xhatmiss"):
            if column.endswith(suffix):
                column = column[: -len(suffix)]
                break
        return column if column in truth.feature_names else None

    rows = []
    for column in result.feature_names:
        ref_name = truth_name(column)
        if ref_name is None:
            continue
        rows.append((column, metrics.rmse_report(
            ref_name, truth.column(ref_name), result.column(column)
        )))
        freqs, mags = metrics.amplitude_spectrum(result.column(column), result.dt)
        fileio.write_spectrum_csv(out / f"spectrum_{column}.csv", freqs, mags)
    if not rows:
        raise CliError(
            "no result column matches a truth feature "
            f"(result: {result.feature_names}, truth: {truth.feature_names})"
        )
    # one reference spectrum per truth channel, however many columns match it
    for ref_name in dict.fromkeys(rep.name for _, rep in rows):
        freqs, mags = metrics.amplitude_spectrum(truth.column(ref_name), truth.dt)
        fileio.write_spectrum_csv(out / f"spectrum_{ref_name}_ref.csv", freqs, mags)

    report_path = out / "report.csv"
    fileio.write_report_csv(report_path, rows)
    for column, rep in rows:
        print(
            f"{column} vs {rep.name}: rmse {rep.rmse:.4e} "
            f"(relative {rep.rel_rmse:.3f})"
        )
    print(f"report: {report_path}")
    return EXIT_OK


def end_to_end_gradcheck(seed: int = 0, n_samples: int = 12) -> float:
    """Reconstruction-objective gradient vs finite differences.

    Builds a small untrained model and a random series, then differentiates
    ``windowed_loss``, the per-chunk objective reconstruction runs, by the
    whole ``[n_samples, 4]`` series leaf. The weights are not all 1 and
    column 1's is 0, so the column weighting is checked too, and column 1
    still gets the gradient that reaches it through the network input.
    """
    net_cfg = NetConfig(n_features=4, seq_len=3, lstm_hidden=8, latent_dim=2)
    params = init_params(net_cfg, seed)
    rng = Xoshiro256(seed + 1)
    avail = [rng.uniform(0.0, 1.0, n_samples) for _ in range(3)]
    missing0 = rng.uniform(0.0, 1.0, n_samples)
    series = np.column_stack([avail[0], missing0, *avail[1:]])
    weights = (1.5, 0.0, 0.5, 2.0)

    def f(tape: Tape, x):
        net = lift_params(tape, params)
        return windowed_loss(tape, net, x, net_cfg.seq_len, weights)[0]

    return grad_check(f, series, eps=1e-5)


def cmd_gradcheck(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    worst = run_op_checks(seed=args.seed, samples_per_op=args.samples)
    failures = []
    for op in sorted(worst):
        status = "ok" if worst[op] < GRADCHECK_TOL else "FAIL"
        print(f"{op:15s} max relative error {worst[op]:.3e}  {status}")
        if worst[op] >= GRADCHECK_TOL:
            failures.append(op)
    e2e = end_to_end_gradcheck(seed=args.seed)
    status = "ok" if e2e < GRADCHECK_TOL else "FAIL"
    print(f"{'reduced loss':15s} max relative error {e2e:.3e}  {status}")
    if e2e >= GRADCHECK_TOL:
        failures.append("reduced loss")
    elapsed = time.perf_counter() - started
    print(f"checked {len(worst)} ops + end-to-end in {elapsed:.1f}s")
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("all gradients match finite differences")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracefill",
        description="Reconstruct missing channels of a multivariate time "
        "series with a frozen LSTM autoencoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate the synthetic circuit suite")
    p.add_argument("--config", help="JSON config (seed, dt, n_samples, circuit)")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--n-samples", type=int, help="override samples per dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the autoencoder on a suite directory")
    p.add_argument("--data", required=True, help="directory with train_*.csv")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=16, help="LSTM hidden size")
    p.add_argument("--latent", type=int, default=2, help="latent size per step")
    p.add_argument("--seq-len", type=int, default=3, help="window length")
    p.add_argument("--history", help="loss history CSV (default: <model>.losses.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="recover missing features")
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument("--data", required=True, help="dataset CSV (missing cols ignored)")
    p.add_argument("--missing", required=True,
                   help="comma-separated missing feature names")
    p.add_argument("--epochs", type=int,
                   help="default 300 for one missing feature, 3000 for several")
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--init", choices=["zeros", "midpoint"], default="zeros")
    p.add_argument("--weights",
                   help="per-available-feature loss weights, e.g. u2=2.0,i1=1.5")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="compare a result CSV against ground truth")
    p.add_argument("--result", required=True, help="reconstruction or dataset CSV")
    p.add_argument("--truth", required=True, help="ground-truth dataset CSV")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100,
                   help="random inputs per op")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # CliError, FormatError and ShapeError are all ValueErrors; an OSError
    # (a missing file, a directory where a file belongs) names its path
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonFiniteError, DivergenceError, circuit.SimulationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
