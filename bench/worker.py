"""Child process of the benchmark: one set-up, or one measured run.

    python3 bench/worker.py setup   --workload W --seed N --size S --dir D [--trace F]
    python3 bench/worker.py measure --workload W --seed N --size S --dir D
                                    --seconds X --out FILE [--trace F]

``setup`` simulates the inputs, trains the short-profile model where the
workload needs one, and writes everything under ``D`` through ``fileio``.
``measure`` loads those files in a fresh process and repeats the
workload's round in a closed loop (one caller, the next round starts when
the previous one has returned) until ``X`` seconds have passed. Every
round redoes identical work, so every round must produce the same output
digest. The result goes to ``FILE`` as JSON. The parent (``run.py``) sets
PYTHONPATH to the checkout's ``src`` and single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracefill import circuit, fileio, metrics, preprocess, training
from tracefill.nn import NetConfig

# the package re-exports the function `reconstruct` under the module's name
reconstruct = importlib.import_module("tracefill.reconstruct")

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402

WORKLOADS = ("train", "reconstruct", "long_recording")
TRAIN_SEED = 2
CHANNELS = ("u1", "i1", "u2", "i2")
TWO_MISSING = ("u1", "u2")
DC_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    n_samples: int = 2000      # suite length (the reference T)
    hidden: int = 16
    setup_epochs: int = 8      # short-profile model for reconstruct/long_recording
    setup_lr: float = 0.006
    train_epochs: int = 5      # one `train` round: 5 epochs x 6 datasets
    train_lr: float = 0.003
    recon_epochs: int = 20     # per reconstruct call
    recon_lr: float = 0.05
    long_samples: int = 8000
    long_epochs: int = 4

    def net(self) -> NetConfig:
        return NetConfig(n_features=4, seq_len=3, lstm_hidden=self.hidden, latent_dim=2)


SIZES = {
    "full": Sizes(),
    "toy": Sizes(n_samples=80, hidden=4, setup_epochs=3, train_epochs=3,
                 recon_epochs=4, long_samples=160, long_epochs=3),
}


# -- set-up --------------------------------------------------------------

def setup(workload: str, seed: int, sizes: Sizes, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    suite = circuit.generate_suite(seed, n_samples=sizes.n_samples)
    if workload == "train":
        for entry in suite.entries:
            fileio.write_dataset_csv(out / f"{entry.name}.csv", entry.data)
        return
    config = training.TrainConfig(epochs=sizes.setup_epochs, learning_rate=sizes.setup_lr,
                                  seed=TRAIN_SEED, net=sizes.net())
    model, _ = training.train([e.data for e in suite.train], config)
    fileio.save_model(out / "model.json", model)
    if workload == "reconstruct":
        test = suite.test.data
    else:
        test = circuit.simulate(suite.params, suite.test.waveform, suite.dt,
                                sizes.long_samples)
    fileio.write_dataset_csv(out / "test.csv", test)


# -- one measured round ----------------------------------------------------

class Round:
    """Timings, counts and checks of one round; ``hash`` covers its outputs."""

    def __init__(self):
        self.call_s: list[float] = []
        self.steps = 0
        self.step_rates: list[float] = []
        self.evaluate_s: list[float] = []
        self.attempted = 0
        self.failed: dict[str, str] = {}  # operation -> first failed check
        self.quality: dict[str, list[float]] = {}
        self.hash = hashlib.sha256()
        self.written_bytes = 0

    def check(self, ok: bool, op: str, what: str) -> None:
        if not ok:
            self.failed.setdefault(op, what)

    def note(self, key: str, value: float) -> None:
        self.quality.setdefault(key, []).append(float(value))

    def add_file(self, path: Path) -> None:
        data = path.read_bytes()
        self.written_bytes += len(data)
        self.hash.update(path.name.encode())
        self.hash.update(data)


def train_round(work: Path, sizes: Sizes, rnd: Round, out: Path) -> None:
    """The `tracefill train` path: read the six sets, train, save; then evaluate."""
    rnd.attempted += 2
    started = time.perf_counter()
    datasets = [fileio.read_dataset_csv(work / f"train_{i}.csv") for i in range(1, 7)]
    config = training.TrainConfig(epochs=sizes.train_epochs, learning_rate=sizes.train_lr,
                                  seed=TRAIN_SEED, net=sizes.net())
    t0 = time.perf_counter()
    model, history = training.train(datasets, config)
    rnd.step_rates.append(len(history) / (time.perf_counter() - t0))
    rnd.steps += len(history)
    fileio.save_model(out / "model.json", model)
    fileio.write_history_csv(out / "model.losses.csv", history)
    rnd.call_s.append(time.perf_counter() - started)
    rnd.add_file(out / "model.json")
    rnd.add_file(out / "model.losses.csv")

    losses = np.array([row.loss for row in history])
    first = losses[:len(datasets)].mean()
    final = float(np.mean(model.final_losses))
    rnd.check(bool(np.isfinite(losses).all()), "train", "non-finite loss")
    rnd.check(final < first, "train", f"final loss {final} not below initial {first}")
    rnd.note("final_loss", final)
    rnd.note("loss_ratio", final / first)

    t0 = time.perf_counter()
    test = fileio.read_dataset_csv(work / "test_1.csv")
    report = training.evaluate_model(model, test)
    rnd.evaluate_s.append(time.perf_counter() - t0)
    rel = [np.sqrt(report.mse_data[n]) / test.column(n).std() for n in test.feature_names]
    rnd.check(report.reconstruction.n_samples == test.n_samples, "evaluate", "length")
    rnd.note("rel_rmse", float(np.mean(rel)))
    rnd.hash.update(report.reconstruction.values.tobytes())


def reconstruct_call(work: Path, missing: tuple[str, ...], epochs: int, sizes: Sizes,
                     rnd: Round, out: Path) -> Path:
    """The `tracefill reconstruct` path: load, reconstruct, write the result."""
    rnd.attempted += 1
    started = time.perf_counter()
    model = fileio.load_model(work / "model.json")
    data = fileio.read_dataset_csv(work / "test.csv")
    frozen = {k: v.copy() for k, v in model.params.as_dict().items()}
    spec = reconstruct.ReconstructionSpec(missing=missing, epochs=epochs,
                                          learning_rate=sizes.recon_lr)
    t0 = time.perf_counter()
    result = reconstruct.reconstruct(model, data, spec)
    rnd.step_rates.append(epochs / (time.perf_counter() - t0))
    rnd.steps += epochs
    names, columns = [], []
    for m in missing:
        names += [f"{m}_xmiss", f"{m}_xhatmiss"]
        columns += [result.x_miss[m], result.x_hat_miss[m]]
    path = out / f"reconstruction_test_{'_'.join(missing)}.csv"
    fileio.write_dataset_csv(path, preprocess.TimeSeriesSet(
        tuple(names), data.t0, data.dt, np.column_stack(columns)))
    elapsed = time.perf_counter() - started
    if len(missing) == 1:
        rnd.call_s.append(elapsed)
    rnd.add_file(path)

    tag = f"reconstruct {','.join(missing)}"
    losses = np.array(result.loss_history + (result.final_loss,))
    rnd.check(bool(np.isfinite(losses).all()), tag, "non-finite loss")
    rnd.check(result.final_loss < result.initial_loss, tag,
              f"final loss {result.final_loss} not below {result.initial_loss}")
    after = model.params.as_dict()
    rnd.check(all(frozen[k].tobytes() == after[k].tobytes() for k in frozen),
              tag, "model parameters changed")
    for m in missing:
        rnd.check(result.x_hat_miss[m].shape == (data.n_samples,), tag, "x_hat length")
        rnd.check(result.x_miss[m].shape == (data.n_samples,), tag, "x_miss length")
    rnd.note("loss_ratio", result.final_loss / result.initial_loss)
    rnd.note("final_loss", result.final_loss)
    return path


def evaluate(result_path: Path, truth_path: Path, rnd: Round, out: Path,
             single: bool) -> None:
    """The `tracefill evaluate` path for the network-output columns.

    Only the result's spectrum is computed; the truth's would be the same
    work on every round.
    """
    rnd.attempted += 1
    t0 = time.perf_counter()
    result = fileio.read_dataset_csv(result_path)
    truth = fileio.read_dataset_csv(truth_path)
    for column in result.feature_names:
        if not column.endswith("_xhatmiss"):
            continue
        name = column[: -len("_xhatmiss")]
        series = result.column(column)
        report = metrics.rmse_report(name, truth.column(name), series)
        if single:
            rnd.note("rel_rmse", report.rel_rmse)
        freqs, mags = metrics.amplitude_spectrum(series, result.dt)
        spectrum = out / f"spectrum_{column}.csv"
        fileio.write_spectrum_csv(spectrum, freqs, mags)
        rnd.add_file(spectrum)
        dc = abs(float(np.mean(series)))
        rnd.check(abs(mags[0] - dc) <= DC_TOL * max(1.0, dc), f"evaluate {result_path.name}",
                  f"{column}: DC bin {mags[0]} != |mean| {dc}")
    rnd.evaluate_s.append(time.perf_counter() - t0)


def reconstruct_round(work: Path, sizes: Sizes, rnd: Round, out: Path) -> None:
    results = [reconstruct_call(work, (ch,), sizes.recon_epochs, sizes, rnd, out)
               for ch in CHANNELS]
    results.append(reconstruct_call(work, TWO_MISSING, sizes.recon_epochs, sizes, rnd, out))
    for i, path in enumerate(results):
        evaluate(path, work / "test.csv", rnd, out, single=i < len(CHANNELS))


def long_recording_round(work: Path, sizes: Sizes, rnd: Round, out: Path) -> None:
    path = reconstruct_call(work, ("u2",), sizes.long_epochs, sizes, rnd, out)
    evaluate(path, work / "test.csv", rnd, out, single=True)


ROUNDS = {
    "train": train_round,
    "reconstruct": reconstruct_round,
    "long_recording": long_recording_round,
}


# -- the measured run ------------------------------------------------------

def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def measure(workload: str, sizes: Sizes, work: Path, seconds: float,
            spans_path: str | None) -> dict:
    """Closed loop of rounds.

    With ``spans_path`` set, rounds alternate untraced and traced; traced
    rounds give the per-layer metrics and their spans go to ``spans_path``
    as JSON lines ``[name, start, end, parent]``.
    """
    trace = spans_path is not None
    out = work / "out"
    out.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    rounds: list[Round] = []
    walls = {False: [], True: []}
    started = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rnd = Round()
        gc.collect()
        if traced:
            tracemalloc.start()
            tracer.install()
        t0 = time.perf_counter()
        try:
            ROUNDS[workload](work, sizes, rnd, out)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            rnd.attempted += 1
            rnd.failed["round"] = "raised"
        walls[traced].append(time.perf_counter() - t0)
        if not rounds:
            # one job in a fresh process; later rounds only add allocator
            # fragmentation, which varies with how many rounds fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.uninstall()
            tracemalloc.stop()
        rounds.append(rnd)
        enough = len(rounds) >= (2 if trace else 1)
        if enough and time.perf_counter() - started >= seconds:
            break

    digests = [r.hash.hexdigest() for r in rounds]
    for rnd, digest in zip(rounds, digests):
        rnd.check(digest == digests[0], "round", "output digest differs from round 0")
    failures = [f"round {i} {op}: {what}" for i, r in enumerate(rounds)
                for op, what in r.failed.items()]
    result = {
        "env": environment(),
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "failures": failures,
        "digest": digests[0],
        "peak_rss_mb": peak_rss_mb,
        "call_s": [x for r in rounds for x in r.call_s],
        "step_rates": [x for r in rounds for x in r.step_rates],
        "evaluate_s": [x for r in rounds for x in r.evaluate_s],
        "steps": sum(r.steps for r in rounds),
        "quality": {k: statistics.fmean(v) for k, v in rounds[0].quality.items()},
        "written_bytes": rounds[0].written_bytes,
        "untraced_round_s": walls[False],
    }
    if trace:
        result["per_layer"] = per_layer(tracer, len(walls[True]), walls)
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def per_layer(tracer: tracing.Tracer, n_rounds: int, walls) -> dict:
    """Aggregate traced spans into per-round layer metrics."""
    spans = tracer.spans
    own = tracing.self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for (name, start, end, _), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + s
    per_round = {name: t / n_rounds for name, t in total.items()}
    per_round_self = {name: t / n_rounds for name, t in self_total.items()}
    per_round["autodiff.apply"] = sum(t for n, t in per_round.items()
                                      if n.startswith("autodiff.apply."))

    def step_ms(job: str) -> list[float]:
        """Interval between successive Adam steps within each job call."""
        out = []
        for idx, (name, start, end, _) in enumerate(spans):
            if name != job:
                continue
            last = start
            for child in range(idx + 1, len(spans)):
                cname, cstart, cend, _ = spans[child]
                if cstart >= end:
                    break
                if cname == "optim.adam_step":
                    out.append((cend - last) * 1e3)
                    last = cend
        return out

    untraced = statistics.median(walls[False])
    traced = statistics.median(walls[True])
    return {
        "per_round": per_round,
        "per_round_self": per_round_self,
        "ops_per_update": tracer.ops_per_step["update"],
        "ops_per_epoch": tracer.ops_per_step["epoch"],
        "live_tapes_max": tracer.live_tapes_max,
        "peak_bytes_per_sample": max(tracer.job_peak_bytes_per_sample, default=0.0),
        "spectrum_peak_bytes": max(tracer.spectrum_peak_bytes, default=0.0),
        "epoch_ms": step_ms("reconstruct.reconstruct"),
        "update_ms": step_ms("training.train"),
        "overhead_s": traced - untraced,
        "overhead_frac": (traced - untraced) / untraced,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--dir", required=True, help="set-up files")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", help="result JSON (measure)")
    parser.add_argument("--trace", help="spans file (measure) or simulate-time file (setup)")
    args = parser.parse_args()
    sizes = SIZES[args.size]
    work = Path(args.dir)

    if args.mode == "setup":
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
        setup(args.workload, args.seed, sizes, work)
        if args.trace:
            tracer.uninstall()
            simulate_s = sum(end - start for name, start, end, _ in tracer.spans
                             if name == "circuit.simulate")
            Path(args.trace).write_text(json.dumps({"circuit.simulate": simulate_s}))
        return 0

    result = measure(args.workload, sizes, work, args.seconds, args.trace)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
