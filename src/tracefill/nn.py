"""LSTM autoencoder built on the autodiff tape.

Architecture (hourglass): an LSTM encoder reads a window step by step, a
tanh linear head compresses each hidden state to a narrow latent vector,
an LSTM decoder consumes the latent sequence, and a linear readout (no
activation) maps each decoder state back to feature space. All recurrent
state starts at zero.

Forward passes are expressed once, batched across windows, on step-major
stacks: rows ``t*B .. (t+1)*B`` of a ``[seq_len*B, n]`` tensor are step
``t`` of all B windows (``preprocess.window_stack`` owns that layout, and
one ``windows`` tape op applies it to a series). Each LSTM layer and the
dense layer after it are one fused ``lstm`` tape op over the whole stack
(the encoder with the latent head, the decoder with the readout), so a
forward pass records two ops whatever the window count. A single window
is the ``B == 1`` special case. ``windowed_loss`` is the objective on one
tape: one ``windows`` op, the two of the network, and one
``weighted_mse``.

``windowed_objective`` is the one loop that training (over the weights),
reconstruction (over the series) and evaluation (forward only) run. It
splits the windows of a series into chunks of ``CHUNK_WINDOWS`` and records
each chunk on its own tape, whose backward runs before the next chunk is
recorded. Each chunk's weights are scaled by its share of the windows, so
the chunk losses and gradients add up to those of one whole-series
``windowed_loss`` tape, while tape memory stays the same for any series
length.

The chunks are independent until their losses and gradients are added,
so inside ``chunk_helper()`` (which ``training.train`` and
``reconstruct.reconstruct`` open) a forked helper process runs the first
chunk of every pair while the caller runs the second. A call reaches the
helper as a header message and then the series' raw bytes, and the
helper sends each outcome back as soon as it is done. The caller adds
both in chunk order, the serial loop's left fold, so every result is
bit-identical whether a run has one CPU or two.

The parameters are one table of ten named arrays, spelled out only in
``param_shapes``: training writes it, the model file stores it and
reconstruction reads it frozen. ``lift_params`` puts each array on a tape
once as a plain leaf, in that stored layout, which is the one the ``lstm``
op takes, and the layers look their weights up by name. A training chunk's
backward names those ten leaves and returns their gradients in the same
layout, a reconstruction's names the series leaf. The stored arrays are
float64 master copies; ``windowed_objective`` lifts copies in the dtype
of the series, so a float32 series runs the network in float32.
"""

from __future__ import annotations

from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass
import math
import os
import signal
import threading
from typing import Sequence

import numpy as np

# GATE_ORDER is re-exported: the gate layout of the stored LSTM arrays
from .autodiff import GATE_ORDER, Tape, Var, as_tensor, lstm_arena
from .optim import reduced_loss
from .preprocess import coverage_counts, window_sum
from .rng import Xoshiro256


@dataclass(frozen=True)
class NetConfig:
    """Autoencoder dimensions; defaults suit 4-feature desk-scale data."""

    n_features: int = 4
    seq_len: int = 3
    lstm_hidden: int = 16
    latent_dim: int = 2

    def __post_init__(self):
        if self.n_features < 2:
            raise ValueError(f"n_features must be >= 2, got {self.n_features}")
        for name in ("seq_len", "lstm_hidden", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.latent_dim >= self.lstm_hidden:
            raise ValueError(
                f"latent_dim ({self.latent_dim}) must be smaller than "
                f"lstm_hidden ({self.lstm_hidden}) to form a bottleneck"
            )


class AutoencoderParams(dict):
    """The ten parameter arrays by name, in ``param_shapes`` order.

    Matrices are stored ``[out, in]``, LSTM gate rows in GATE_ORDER
    blocks; this is the layout of the model file.
    """

    def as_dict(self) -> dict[str, np.ndarray]:
        """Named view of every parameter array (order is fixed)."""
        return dict(self)

    @classmethod
    def from_dict(cls, arrays: dict[str, np.ndarray]) -> "AutoencoderParams":
        names = param_shapes(NetConfig())  # the names do not depend on the dimensions
        missing = set(names) - set(arrays)
        if missing:
            raise KeyError(f"missing parameter arrays: {sorted(missing)}")
        return cls({k: np.asarray(arrays[k], dtype=np.float64) for k in names})


def param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Name, order and storage shape of every parameter array.

    The one table of the parameter set: ``init_params`` fills it,
    ``AutoencoderParams`` and the model file keep its order, and
    ``fileio.load_model`` checks a loaded model against it.
    """
    h, n, z = config.lstm_hidden, config.n_features, config.latent_dim
    return {
        "encoder.wx": (4 * h, n),
        "encoder.wh": (4 * h, h),
        "encoder.bias": (4 * h,),
        "latent.weight": (z, h),
        "latent.bias": (z,),
        "decoder.wx": (4 * h, z),
        "decoder.wh": (4 * h, h),
        "decoder.bias": (4 * h,),
        "readout.weight": (n, h),
        "readout.bias": (n,),
    }


def init_params(config: NetConfig, seed: int) -> AutoencoderParams:
    """Seeded init: weights uniform in ±1/sqrt(fan_in), biases zero.

    Matrices are filled row-major in ``param_shapes`` order (encoder wx,
    encoder wh, latent weight, decoder wx, decoder wh, readout weight), so
    the same seed always produces bitwise identical parameters.
    """
    rng = Xoshiro256(seed)

    def init(shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape)
        bound = 1.0 / np.sqrt(shape[1])
        return rng.uniform(-bound, bound, shape)

    return AutoencoderParams.from_dict(
        {name: init(shape) for name, shape in param_shapes(config).items()}
    )


def lift_params(tape: Tape, params: AutoencoderParams) -> dict[str, Var]:
    """Register every parameter array as one leaf of ``tape``, keyed as ``params``.

    Each array is lifted as stored, the layout the ``lstm`` op takes, so a
    leaf's gradient has its array's shape. The leaves are frozen unless a
    backward names them in its ``wrt``.
    """
    return {name: tape.leaf(arr) for name, arr in params.items()}


def forward_steps(tape: Tape, net: dict[str, Var], x: Var, steps: int) -> Var:
    """Batched forward pass over a step-major stack of windows: two ``lstm`` ops.

    Rows ``t*B .. (t+1)*B`` of ``x`` (``[steps*B, n]``) are step ``t`` of
    every window; the returned output stack has the same layout. The
    encoder's op carries the tanh latent head (``squash=True``), the
    decoder's the linear readout (``squash=False``).
    """
    latent = tape.lstm(x, net["encoder.wx"], net["encoder.wh"], net["encoder.bias"],
                       net["latent.weight"], net["latent.bias"], steps, squash=True)
    return tape.lstm(latent, net["decoder.wx"], net["decoder.wh"], net["decoder.bias"],
                     net["readout.weight"], net["readout.bias"], steps, squash=False)


def windowed_loss(tape: Tape, net: dict[str, Var], series: Var,
                  seq_len: int, weights: Sequence[float]) -> tuple[Var, Var]:
    """The objective of training and reconstruction, plus the output stack.

    Sum over features j of ``weights[j]`` times the mean-square error
    between the inputs and outputs of every stride-1 window of ``series``
    in column j. A feature with weight 0 does not enter the loss.

    One ``windows`` op cuts the series into the step-major input stack of
    every stride-1 window; its backward adds each window's gradient back
    onto the samples, so a sample that sits in k windows receives k
    contributions. The output stack has the same ``[seq_len * num_windows,
    n]`` layout.
    """
    x = tape.windows(series, seq_len)
    y = forward_steps(tape, net, x, seq_len)
    return reduced_loss(tape, x, y, weights), y


# Windows per tape in ``windowed_objective``. A fixed constant, so results
# do not depend on the machine; at 512 windows the ``lstm`` op's
# [4, S*B, h] working arrays stay in cache.
CHUNK_WINDOWS = 512


def _chunk(params: dict[str, np.ndarray], series: np.ndarray, seq_len: int,
           weights: np.ndarray, wrt: str | None):
    """One chunk's loss and its part of ``windowed_objective``'s result.

    The part is None when a backward was due but the loss is not finite.
    The chunk runs inside an ``autodiff.lstm_arena``, and its tape is
    unreachable once this returns.
    """
    with lstm_arena():
        tape = Tape()
        net = lift_params(tape, params)
        leaf = tape.leaf(series)
        # a diverged run overflows here; the caller checks the loss for it
        with np.errstate(over="ignore", invalid="ignore"):
            loss, y = windowed_loss(tape, net, leaf, seq_len, weights)
        value = loss.item()
        if wrt is None:
            return value, window_sum(y.value, seq_len)
        if not np.isfinite(value):
            return value, None
        if wrt == "series":
            return value, tape.backward(loss, [leaf])[0]
        return value, dict(zip(net, tape.backward(loss, list(net.values()))))


def _outcomes(params: dict[str, np.ndarray], series: np.ndarray, seq_len: int,
              weights: np.ndarray, wrt: str | None, first: int = 0, step: int = 1):
    """``(rows, outcome)`` of chunks ``first, first + step, ...``, in that order.

    Chunk ``[w0, w1)`` of the W windows covers samples
    ``[w0, w1 + seq_len - 1)`` and takes the weights times its share
    ``(w1 - w0) / W``. The outcome is ``_chunk``'s ``(value, part)`` or the
    exception it raised. The generator stops after the first outcome that
    ends the call: an exception, or a non-finite loss with no part.
    """
    num_windows = series.shape[0] - seq_len + 1
    for w0 in range(first * CHUNK_WINDOWS, num_windows, step * CHUNK_WINDOWS):
        w1 = min(w0 + CHUNK_WINDOWS, num_windows)
        rows = slice(w0, w1 + seq_len - 1)
        try:
            outcome = _chunk(params, series[rows], seq_len,
                             weights * ((w1 - w0) / num_windows), wrt)
        except Exception as exc:
            outcome = exc
        yield rows, outcome
        if isinstance(outcome, Exception) or outcome[1] is None:
            return


class _Helper(threading.local):
    """One thread's ``chunk_helper`` scope and, once forked, its helper process."""

    def __init__(self):
        self.open = False
        self.conn = None  # the caller's end of the pipe to the helper
        self.process = None


_helper = _Helper()


@contextmanager
def chunk_helper():
    """Let the ``windowed_objective`` calls inside share their chunks with a helper process.

    The first call inside that has at least two chunks forks one helper
    (``multiprocessing``'s "fork" context and one ``Pipe``), and the later
    calls reuse it. Each call goes to the helper as a header message and
    then the series' raw bytes. The helper runs the first chunk of every
    pair, the caller the second, and the caller folds both in chunk order,
    so every loss, gradient and output is bit-identical to the serial
    loop's. On one CPU
    (``os.sched_getaffinity``), or where ``fork`` is unavailable, the calls
    run serially. On exit the pipe is closed and the helper joined, so no
    process outlives the scope. Opening a second scope in the same thread
    raises, as ``lstm_arena`` does.
    """
    if _helper.open:
        raise RuntimeError("chunk_helper is already open in this thread")
    _helper.open = True
    try:
        yield
    finally:
        conn, process = _helper.conn, _helper.process
        _helper.open, _helper.conn, _helper.process = False, None, None
        if conn is not None:
            # the stop message: a copy of ``conn`` forked into another
            # process would hold up the helper's EOF
            with suppress(OSError):  # a helper that has died
                conn.send(None)
            conn.close()
            process.join()


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_conn(num_windows: int):
    """The open scope's pipe to its helper, forked on first need; None runs serially."""
    if not _helper.open or num_windows <= CHUNK_WINDOWS:
        return None
    if _helper.conn is None:
        import multiprocessing  # here, not at the top: 10 ms that most imports never need

        if _cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return None
        context = multiprocessing.get_context("fork")
        conn, helper_end = context.Pipe()
        process = context.Process(target=_serve, args=(helper_end, conn), daemon=True,
                                  name="tracefill-chunk-helper")
        process.start()
        helper_end.close()  # else a dead helper would leave the pipe open
        _helper.conn, _helper.process = conn, process
    return _helper.conn


def _serve(conn, caller_end) -> None:
    """The helper's loop: run its share of each call that arrives on ``conn``.

    A call is a header message of its arguments, with the series' shape
    and dtype in place of the series, and then a message of the series'
    raw bytes, which the helper views in place. The helper sends the
    ``(rows, outcome)`` of chunks 0, 2, 4, ... as each is done, a chunk's
    exception as its outcome, and then the end marker None. The loop ends
    at the stop message None, or at EOF when the caller has died.
    SIGINT is ignored: an interrupt is the caller's to handle.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    caller_end.close()  # else the caller's death would leave the pipe open
    try:
        for params, shape, dtype, seq_len, weights, wrt in iter(conn.recv, None):
            series = np.frombuffer(conn.recv_bytes(), dtype).reshape(shape)
            for outcome in _outcomes(params, series, seq_len, weights, wrt, 0, 2):
                conn.send(outcome)
            conn.send(None)
    except (EOFError, OSError):  # the caller closed its end
        return


def _paired(conn, params: dict[str, np.ndarray], series: np.ndarray, seq_len: int,
            weights: np.ndarray, wrt: str | None):
    """``_outcomes`` of every chunk, in chunk order, sharing pairs with the helper.

    The call goes to the helper as a header message and then the series'
    raw bytes in C order. The helper runs chunks 0, 2, 4, ... and the
    caller 1, 3, 5, ..., each while the other runs its own. The caller
    sends only while the helper is idle, and during a call only the helper
    sends, so no message waits on another, whatever its size. Every
    message of the call is received, up to the end marker None, before
    this generator ends, early or not, so the pipe is in step for the next
    call. When the caller's own chunk ends the call, the helper still
    finishes its share: up to half a call of wasted work, and only on a
    call that raises or diverges.
    """
    series = np.ascontiguousarray(series)
    try:
        conn.send((params, series.shape, series.dtype, seq_len, weights, wrt))
        conn.send_bytes(series)
        theirs = ()
        try:
            for mine in _outcomes(params, series, seq_len, weights, wrt, 1, 2):
                theirs = conn.recv()
                yield theirs
                yield mine
            theirs = conn.recv()
            if theirs is not None:  # an odd chunk count: the last chunk is the helper's
                yield theirs
        finally:
            while theirs is not None:
                theirs = conn.recv()
    except (EOFError, OSError) as exc:
        raise RuntimeError("the chunk helper died") from exc


def windowed_objective(params: AutoencoderParams, series: np.ndarray, seq_len: int,
                       weights: Sequence[float], wrt: str | None = None):
    """``windowed_loss`` of a [T, n] series, one tape per chunk of windows.

    Chunk ``[w0, w1)`` of the W = T - seq_len + 1 windows (at most
    ``CHUNK_WINDOWS`` of them) gets a tape over samples
    ``[w0, w1 + seq_len - 1)`` and the weights times ``(w1 - w0) / W``, so
    the chunk losses add up to the whole-series loss. A series of at most
    ``CHUNK_WINDOWS`` windows is one chunk with share 1.0, which is exactly
    one ``windowed_loss`` tape.

    Returns ``(loss, result)``, where ``result`` depends on ``wrt``:

    - ``"params"``: the ten parameter gradients, C-contiguous, in storage layout;
    - ``"series"``: the [T, n] gradient of the series (parameters frozen);
    - ``None``: no backward; the output windows merged by overlap mean, [T, n].

    The network computes in the dtype of the series: a float32 series runs
    the ``lstm`` kernel in float32, and any other is coerced to float64 and
    runs it in float64, bit for bit as before float32 was supported. The
    parameters are float64 master copies: each call casts them to the
    series' dtype once, for all its chunks, and never writes them. Each
    chunk's loss takes its column means in float64, and the losses, the
    [T, n] result and the parameter gradients are summed in float64, so
    the loss and every result array are float64 whatever the kernel ran in.

    A chunk whose loss is not finite ends the loop before its backward
    runs, and the non-finite loss is returned with ``None``. The forward
    passes run with numpy's overflow and invalid-value warnings off: a
    diverged run reports itself through that loss, not through a warning.
    A finite parameter beyond the series' dtype (above 3.4e38 for float32)
    has diverged too: the call returns an infinite loss before any chunk
    runs, with ``None``, or with an all-NaN output when ``wrt`` is None.

    Inside ``chunk_helper()``, a call of at least two chunks shares them
    with the scope's helper process, and the result is bit-identical to
    the serial loop's. An exception raised in either process's chunk is
    raised here with its type, in chunk order.

    Each chunk runs inside an ``autodiff.lstm_arena``, so the two ``lstm``
    ops keep their residuals and scratch in the buffers of the running
    thread (the helper has its own), sized by the largest chunk so far and
    reused by every later chunk and call (one set per dtype). Each chunk's
    tape is gone before the next one records, as the arena needs. With
    fresh working arrays per chunk, glibc handed the freed memory back to
    the kernel and the next chunk faulted it in again: 690-850 minor
    faults per float64 training update (T=2000, hidden 16, six datasets)
    and 2700-5800 per 4-epoch T=8000 reconstruction. With the arena, a
    call after the first of a process takes a median of 0-1 faults at
    T=2000, and 46 serially at T=8000. The first call allocates the arena,
    610-760 faults, and the helper's fork adds about 850 to the caller's
    first call in a scope: the caller's copy-on-write of the pages it
    shares with the new process. So in a fresh process a 30-update
    ``train`` call takes 1,720-1,740 faults in the caller (718 serially),
    a 20-epoch T=2000 reconstruction 1,660 (652), and a 4-epoch T=8000
    reconstruction 2,360-2,380 (1,300). The helper takes 1,630-1,660
    faults of its own in either T=2000 scope and 1,690-1,720 in the T=8000
    one (getrusage, suite seed 7, hidden 16, one BLAS thread, float32
    series; a float64 series took 1.4-1.9 times as many).
    """
    if wrt not in ("params", "series", None):
        raise ValueError(f"wrt must be 'params', 'series' or None, got {wrt!r}")
    series = as_tensor(series)
    T = series.shape[0]
    if not 1 <= seq_len <= T:
        raise ValueError(f"seq_len {seq_len} invalid for {T} samples")
    try:
        with np.errstate(over="raise"):
            lowered = {name: arr.astype(series.dtype, copy=False)
                       for name, arr in params.items()}
    except FloatingPointError:  # a finite parameter beyond the dtype's range
        return math.inf, (None if wrt else np.full(series.shape, math.nan))
    args = (lowered, series, seq_len, np.asarray(weights, dtype=np.float64), wrt)
    conn = _helper_conn(T - seq_len + 1)
    outcomes = _outcomes(*args) if conn is None else _paired(conn, *args)
    loss_sum = 0.0
    result = None if wrt == "params" else np.zeros(series.shape)
    with closing(outcomes):
        for rows, outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            value, part = outcome
            loss_sum += value
            if wrt is not None and not np.isfinite(loss_sum):
                return loss_sum, None
            if wrt != "params":
                result[rows] += part
            elif result is None:
                result = {name: grad.astype(np.float64, copy=False)
                          for name, grad in part.items()}
            else:
                for name, grad in part.items():
                    result[name] += grad
    if wrt is None:
        result /= coverage_counts(T, seq_len)[:, None]
    return loss_sum, result
