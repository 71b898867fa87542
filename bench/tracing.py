"""Span recording around the public entry points of the tracefill layers.

Nothing in the package is edited. ``Tracer.install`` replaces each traced
function by a recording wrapper at every place it is bound: the defining
module and every ``tracefill`` module (the package itself included) that
imported it by name. ``training``, ``reconstruct`` and ``cli`` bind
``forward_steps``, ``lift_params``, ``reconstruct_series`` and
``reduced_loss`` directly, so patching only the defining module would miss
their calls. Methods (``Tape.apply``, ``Tape.backward``, ``Adam.step``) are
patched on the class. ``Tracer.uninstall`` restores every binding.

Spans are ``(name, start, end, parent)`` tuples kept in memory; ``parent``
is the index of the enclosing span or -1. Tape ops are recorded as
``autodiff.apply.<op>``. Next to the spans the tracer keeps counters that
need object identity: ops recorded per tape (read when the tape runs
``backward``), live tapes (a ``WeakSet``, so the count is exact) and
tracemalloc peaks of whole jobs and of spectrum calls.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field

# (module, attribute) of every traced function; "Class.method" names a method.
TRACED = (
    ("circuit", "simulate"),
    ("preprocess", "transform"),
    ("preprocess", "window_stack"),
    ("preprocess", "overlap_mean_values"),
    ("autodiff", "Tape.leaf"),
    ("autodiff", "Tape.backward"),
    ("nn", "lift_params"),
    ("nn", "forward_steps"),
    ("optim", "mse"),
    ("optim", "reduced_loss"),
    ("optim", "Adam.step"),
    ("training", "train"),
    ("training", "reconstruct_series"),
    ("training", "evaluate_model"),
    ("reconstruct", "reconstruct"),
    ("metrics", "rmse_report"),
    ("metrics", "amplitude_spectrum"),
    ("fileio", "read_dataset_csv"),
    ("fileio", "write_dataset_csv"),
    ("fileio", "load_model"),
    ("fileio", "save_model"),
    ("fileio", "write_spectrum_csv"),
)

JOBS = {"training.train": "update", "reconstruct.reconstruct": "epoch"}


def span_name(module: str, attr: str) -> str:
    method = attr.split(".")[-1]
    if method == "step":
        return "optim.adam_step"
    return f"{module}.{method}"


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    ops_per_step: dict = field(default_factory=lambda: {k: [] for k in JOBS.values()})
    job_peak_bytes_per_sample: list = field(default_factory=list)
    spectrum_peak_bytes: list = field(default_factory=list)
    live_tapes_max: int = 0
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)
    _tape_ops: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)
    _live: weakref.WeakSet = field(default_factory=weakref.WeakSet)

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    def _job(self) -> str | None:
        for idx in reversed(self._stack):
            kind = JOBS.get(self.spans[idx][0])
            if kind:
                return kind
        return None

    def _wrap(self, name, fn):
        tracer = self

        if name in JOBS or name == "metrics.amplitude_spectrum":
            def wrapper(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if name in JOBS:
                        samples = _samples(name, args)
                        tracer.job_peak_bytes_per_sample.append(peak / samples)
                    else:
                        tracer.spectrum_peak_bytes.append(peak)
        elif name == "autodiff.backward":
            def wrapper(tape, loss, *args, **kwargs):
                kind = tracer._job()
                if kind:
                    tracer.ops_per_step[kind].append(tracer._tape_ops.get(tape, 0))
                idx = tracer._open(name)
                try:
                    return fn(tape, loss, *args, **kwargs)
                finally:
                    tracer._close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_apply(self, fn):
        tracer = self

        def apply(tape, op, *inputs, **kwargs):
            tracer._tape_ops[tape] = tracer._tape_ops.get(tape, 0) + 1
            idx = tracer._open(f"autodiff.apply.{op}")
            try:
                return fn(tape, op, *inputs, **kwargs)
            finally:
                tracer._close(idx)
        apply.__wrapped__ = fn
        return apply

    def _wrap_init(self, fn):
        tracer = self

        def __init__(tape, *args, **kwargs):
            fn(tape, *args, **kwargs)
            tracer._live.add(tape)
            tracer.live_tapes_max = max(tracer.live_tapes_max, len(tracer._live))
        __init__.__wrapped__ = fn
        return __init__

    # -- installing ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced entry point at every binding site."""
        import tracefill.cli  # noqa: F401  (imports every layer)

        package = [m for n, m in sorted(sys.modules.items())
                   if n == "tracefill" or n.startswith("tracefill.")]
        tape_cls = sys.modules["tracefill.autodiff"].Tape
        self._set(tape_cls, "apply", self._wrap_apply(tape_cls.apply))
        self._set(tape_cls, "__init__", self._wrap_init(tape_cls.__init__))
        for module_name, attr in TRACED:
            module = sys.modules[f"tracefill.{module_name}"]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _samples(name: str, args) -> int:
    """Series length of a job call: train(datasets, ...) or reconstruct(model, data, ...)."""
    if name == "training.train":
        return args[0][0].n_samples
    return args[1].n_samples


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
