#!/usr/bin/env python3
"""tracefill benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {train,reconstruct,long_recording}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src``. The run does, in order:

1. Set-up, ``SETUP_REPS`` times, each in its own process
   (``worker.py setup``): simulate the circuit suite of seed N and, for the
   reconstruction workloads, train the short-profile model; everything is
   written through ``fileio``. Every set-up must write identical bytes.
   ``setup_s`` is the median wall time of one set-up process.
2. The measured part in one fresh process (``worker.py measure``), which
   loads the set-up files and repeats the workload's round in a closed loop
   with one caller for S seconds, so ``peak_rss_mb`` covers only this part.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, including
the tracing overhead; spans go to ``.bench_run/traces/``. Every run checks
its outputs, counts failed operations, prints an output digest and the
environment, and appends its result to ``.bench_run/results.jsonl``. The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("train", "reconstruct", "long_recording")
SETUP_REPS = 3
DEADLINE_S = 170.0  # the whole run, set-up included

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "call_s": "s",
    "peak_rss_mb": "MB",
}

HOT_OPS = ("matmul", "sigmoid", "tanh", "slice_cols", "slice_rows", "mul", "add",
           "add_bias", "concat_rows", "mean_sq_diff")
ROUND_TIMES = (
    "autodiff.apply", *(f"autodiff.apply.{op}" for op in HOT_OPS),
    "autodiff.backward", "autodiff.leaf",
    "nn.forward_steps", "nn.lift_params",
    "optim.adam_step", "optim.reduced_loss", "optim.mse",
    "training.train", "training.reconstruct_series", "training.evaluate_model",
    "reconstruct.reconstruct",
    "preprocess.window_stack", "preprocess.overlap_mean_values", "preprocess.transform",
    "metrics.amplitude_spectrum", "metrics.rmse_report",
    "fileio.read_dataset_csv", "fileio.write_dataset_csv", "fileio.load_model",
    "fileio.save_model", "fileio.write_spectrum_csv",
)
SELF_TIMES = ("nn.forward_steps", "training.train", "reconstruct.reconstruct")
PER_LAYER_UNITS = {
    **{f"{name}.s": "s/round" for name in ROUND_TIMES},
    **{f"{name}.self_s": "s/round" for name in SELF_TIMES},
    "autodiff.ops_per_update": "count",
    "autodiff.ops_per_epoch": "count",
    "autodiff.live_tapes_max": "count",
    "autodiff.peak_bytes_per_sample": "B/sample",
    "metrics.spectrum_peak_bytes": "B",
    "fileio.written_bytes": "B/round",
    "reconstruct.epoch_ms.p50": "ms",
    "reconstruct.epoch_ms.p90": "ms",
    "training.update_ms.p50": "ms",
    "training.update_ms.p90": "ms",
    "circuit.simulate.s": "s/setup",
    "trace.overhead_s": "s/round",
    "trace.overhead_frac": "ratio",
}


def child_env(root: Path) -> dict:
    """Children import the checkout's package and use one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> float:
    """Run ``worker.py`` with ``args``; return its wall time. Raises on failure."""
    started = time.perf_counter()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before a child could start")
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                   env=env, check=True, timeout=remaining, stdout=sys.stderr)
    return time.perf_counter() - started


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def end_to_end(setup_walls: list[float], measured: dict) -> dict:
    return {
        "setup_s": statistics.median(setup_walls),
        "steps_per_s": statistics.median(measured["step_rates"]),
        "call_s": statistics.median(measured["call_s"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(measured: dict, simulate_s: list[float]) -> dict:
    layer = measured["per_layer"]
    out = {f"{name}.s": layer["per_round"].get(name, 0.0) for name in ROUND_TIMES}
    out.update({f"{name}.self_s": layer["per_round_self"].get(name, 0.0)
                for name in SELF_TIMES})
    out.update({
        "autodiff.ops_per_update": statistics.median(layer["ops_per_update"] or [0]),
        "autodiff.ops_per_epoch": statistics.median(layer["ops_per_epoch"] or [0]),
        "autodiff.live_tapes_max": layer["live_tapes_max"],
        "autodiff.peak_bytes_per_sample": layer["peak_bytes_per_sample"],
        "metrics.spectrum_peak_bytes": layer["spectrum_peak_bytes"],
        "fileio.written_bytes": measured["written_bytes"],
        "reconstruct.epoch_ms.p50": percentile(layer["epoch_ms"], 50),
        "reconstruct.epoch_ms.p90": percentile(layer["epoch_ms"], 90),
        "training.update_ms.p50": percentile(layer["update_ms"], 50),
        "training.update_ms.p90": percentile(layer["update_ms"], 90),
        "circuit.simulate.s": statistics.median(simulate_s),
        "trace.overhead_s": layer["overhead_s"],
        "trace.overhead_frac": layer["overhead_frac"],
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7, help="suite seed (reference: 7)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the benchmark's own smoke test")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "tracefill" / "__init__.py").is_file():
        print(f"error: {root} is not a tracefill checkout (no src/tracefill)",
              file=sys.stderr)
        return 2

    state = root / ".bench_run"
    run_dir = state / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    traces = state / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True)
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    attempted = failed = 0
    try:
        setup_walls, simulate_s, setup_digests = [], [], []
        for rep in range(SETUP_REPS):
            work = run_dir / f"setup-{rep}"
            extra = ["--trace", str(run_dir / f"simulate-{rep}.json")] if args.trace else []
            setup_walls.append(run_child(["setup", *common, "--dir", str(work), *extra],
                                         env, deadline))
            setup_digests.append(tree_digest(work))
            if args.trace:
                simulate_s.append(json.loads(Path(extra[1]).read_text())["circuit.simulate"])
        attempted += SETUP_REPS
        setup_failed = sum(d != setup_digests[0] for d in setup_digests)
        failed += setup_failed

        result_path = run_dir / "measure.json"
        spans = traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        run_child(["measure", *common, "--dir", str(run_dir / "setup-0"),
                   "--seconds", str(args.seconds), "--out", str(result_path),
                   *(["--trace", str(spans)] if args.trace else [])], env, deadline)
        measured = json.loads(result_path.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted += measured["attempted"]
    failed += measured["failed"]
    if args.trace:
        metrics, units = per_layer(measured, simulate_s), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(setup_walls, measured), END_TO_END_UNITS
    env_info = {"seed": args.seed, **measured["env"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}  size {args.size}  rounds {measured['rounds']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"samples: {SETUP_REPS} set-ups, {len(measured['call_s'])} calls, "
          f"{len(measured['step_rates'])} optimizer runs of {measured['steps']} steps")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    quality = "  ".join(f"{k}={v:.6g}" for k, v in sorted(measured["quality"].items()))
    print(f"quality (first round, depends on the seed): {quality}")
    if not args.trace:
        print(f"unbounded: evaluate_s={statistics.median(measured['evaluate_s']):.6g} s  "
              f"round_s={statistics.median(measured['untraced_round_s']):.6g} s")
    if setup_failed:
        print(f"FAILED {setup_failed} set-ups wrote other bytes than the first")
    for failure in measured["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"digest sha256:{measured['digest']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "size": args.size, "env": env_info, "digest": measured["digest"],
              "quality": measured["quality"], **result}
    with open(state / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
