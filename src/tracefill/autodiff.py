"""Tape-based reverse-mode automatic differentiation over float32 and float64 arrays.

A :class:`Tape` records operations eagerly: every node caches its forward
value, and :meth:`Tape.backward` walks the recording once in reverse to
produce exact gradients of a scalar loss with respect to the leaves that
call names, so one recording serves a sweep by any of its inputs. When a
leaf feeds several consumers its gradient contributions accumulate by
summation.

Values are dense numpy arrays, 1-D or 2-D (scalars are shape ``(1,)``).
A float32 input stays float32 and every other input becomes float64, so
the dtype of the data decides the precision of the ops it flows through
(see ``lstm`` and ``weighted_mse`` below). Shapes are validated per
operation and mismatches raise :class:`ShapeError` naming both shapes.
The op set is closed; adding an op means adding a forward rule, a
derivative rule, and an entry in the finite-difference check table below
(``run_op_checks`` sweeps the table). A forward rule returns its value
plus the residuals its derivative rule reuses; both live on the node, so
a backward pass never recomputes the forward.

Shape rules per op:

==================  ==========================================  ============
op                  inputs                                      output
==================  ==========================================  ============
lstm                ``x [S*B, in]``, ``wx [4h, in]``,           ``[S*B, p]``
                    ``wh [4h, h]``, ``bias [4h]``,
                    ``w_head [p, h]``, ``b_head [p]``;
                    ``steps=S``, ``squash``
windows             ``[T, n]``; ``steps=S``, ``1 <= S <= T``    ``[S*W, n]``
sum                 one tensor                                  ``[1]``
weighted_mse        two ``[m, n]`` tensors; ``weights`` (n)     ``[1]``
==================  ==========================================  ============

The set holds what the autoencoder and its loss record, plus ``sum`` for
whole-tensor gradient checks: ``windows`` cuts a series into the network's
input stack, two ``lstm`` ops run the network, and ``weighted_mse`` scores
it. There is no transpose op: ``lstm`` takes its weights ``[out, in]``,
as the model file stores them, and transposes inside. :class:`Var` has
no arithmetic operators, so every recorded op is named at its call site.

``windows`` takes every stride-1 window of ``S`` samples (W = T - S + 1 of
them) in the step-major layout ``lstm`` reads: rows ``t*W .. (t+1)*W`` of
the output are step ``t`` of all W windows. Its forward and backward are
``preprocess.window_stack`` and its adjoint ``preprocess.window_sum``, so
the layout is written down once; the backward adds each sample's window
cells, which keeps a sample's coverage count an exact integer.

``weighted_mse(target, output, weights)`` is ``sum_j w_j * mean((o_j -
t_j)**2)`` over the columns j. It reads only the columns of positive
weight, in the forward and in the backward, so a column of weight 0
cannot change the loss or any gradient by a single bit, whatever it holds.
It takes the column means in float64, so the loss is a float64 number
whatever the dtype of its inputs.

``lstm`` runs a whole LSTM layer and the dense layer after it over a
step-major stack: rows ``t*B .. (t+1)*B`` of ``x`` are step ``t`` of B
sequences, state starts at zero, and the hidden states ``hs``, stacked
the same way, go through the head ``hs @ w_head.T + b_head``, then through
``tanh`` if ``squash`` is true. The encoder's latent head squashes, the
decoder's readout does not. A ``[S*B, h]`` hidden-state stack therefore
never becomes a node of the tape. The row blocks of ``wx``, ``wh`` and
``bias`` are the gates in ``GATE_ORDER``. Inside, the op works
gate-major: it copies the weights once per call to contiguous
``[4, in+1, h]`` and ``[4, h, h]`` blocks (and the head weight to
``[h, p]``), the bias as the last input row, multiplied by a ones column
appended to ``x``, so one product gives the pre-activations and, in the
backward, the bias gradient with the input weights'. The kernel order is
forget, input, output, candidate: sigmoid gates first, and the forget
gate first of all, so the zero-state first step, where the forget gate
multiplies a zero cell, skips that block in the forward and the
backward. Activations and their gradients are kept as ``[4, S*B, h]``,
so each gate of each step is one contiguous ``[B, h]`` block. The gates'
sigmoid is evaluated as ``0.5 + 0.5 * tanh(x / 2)``, which is finite for
every finite ``x`` and agrees with ``1 / (1 + exp(-x))`` to within
2.2e-16 in float64. The inner 0.5 is folded into the sigmoid blocks of
the weight copies, where halving is exact, so one ``tanh`` over all four
blocks serves every gate. The backward is closed-form backpropagation
through time over the cell states and gate activations kept from the
forward, after the head's own backward has turned the output gradient
into the hidden states' gradient; it maps the weight gradients back to
``GATE_ORDER`` rows of the ``[out, in]`` layout once, after the time loop.
The op computes in the dtype of ``x``: its weight copies, working arrays,
output and gradients are float32 for a float32 ``x``, whatever the dtype
of the weights, and float64 for a float64 one.

Inside ``lstm_arena()`` the op keeps those residuals, the hidden states
among them, and takes its scratch arrays, the hidden states' gradient
among them, from per-thread buffers that live from one opening to the
next instead of fresh arrays per call. ``nn.windowed_objective`` opens
it around each chunk of windows. The op's output, the node value, is a
fresh ``[S*B, p]`` array everywhere, and outside an arena so is every
other.

Backward itself is not recorded, so higher-order derivatives are out of
scope. Node values should be treated as read-only by callers. A tape
holds no Var, so it is never part of a reference cycle and is freed as
soon as neither it nor any of its Vars is referenced.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .preprocess import window_stack, window_sum

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes do not conform to the operation's shape rule."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite contains NaN or Inf."""


def as_tensor(value) -> Array:
    """Coerce to an array of rank 1 or 2 (scalars become shape (1,)).

    A float32 array stays float32; anything else becomes float64.
    """
    arr = np.asarray(value)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim > 2:
        raise ShapeError(f"tensors are 1-D or 2-D, got shape {arr.shape}")
    return arr


class Var:
    """Handle to one tape node. Compared by identity; create via Tape methods."""

    __slots__ = ("tape", "id", "shape")

    def __init__(self, tape: "Tape", node_id: int, shape: tuple[int, ...]):
        self.tape = tape
        self.id = node_id
        self.shape = shape

    @property
    def value(self) -> Array:
        """Cached forward value (read-only by convention)."""
        return self.tape._nodes[self.id].value

    def item(self) -> float:
        v = self.value
        if v.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {v.shape}")
        return float(v.reshape(()))

    def __repr__(self) -> str:
        return f"Var(id={self.id}, shape={self.shape})"


class _Node:
    __slots__ = ("op", "inputs", "kwargs", "value", "saved")

    def __init__(self, op, inputs, kwargs, value, saved):
        self.op = op
        self.inputs = inputs
        self.kwargs = kwargs
        self.value = value
        self.saved = saved


@dataclass(frozen=True)
class _OpRule:
    # forward(values, kwargs) -> (output array, saved); ``saved`` holds the
    # residuals the backward rule reuses (None if it needs none) and lives
    # on the node. Raises ShapeError on mismatch.
    forward: Callable[..., tuple]
    # backward(g, out, saved, values, needs, kwargs) -> per-input contribution
    # (None where needs[i] is False); never mutates g in place
    backward: Callable[..., tuple]


# Gate blocks of the stacked LSTM pre-activations, in column order:
# input gate, forget gate, candidate, output gate.
GATE_ORDER = ("input", "forget", "candidate", "output")

# The lstm kernel's gate order, as indices into GATE_ORDER: forget, input,
# output, candidate. The sigmoid gates come first, so ``[:3]`` holds all
# three, and the forget gate leads, so ``[1:]`` holds the gates a zero
# state needs. The permutation is its own inverse, so the same indices map
# results back.
_KERNEL_GATES = [1, 0, 3, 2]
# sigmoid(a) = 0.5 + 0.5 * tanh(a / 2): the sigmoid blocks of the weight
# copies carry the inner 0.5, which is exact, so one tanh serves all four;
# one copy per kernel dtype, so the product stays in that dtype
_HALF = {dtype: np.array([0.5, 0.5, 0.5, 1.0], dtype).reshape(4, 1, 1)
         for dtype in (np.dtype(np.float32), np.dtype(np.float64))}


class _Arena(threading.local):
    """One thread's ``lstm`` working arrays, kept from one opening to the next."""

    def __init__(self):
        self.buffers: dict = {}
        self.open = False
        self.position = 0    # lstm forwards run since the arena opened
        self.generation = 0  # openings so far


_arena = _Arena()


@contextmanager
def lstm_arena():
    """Let the ``lstm`` ops recorded or run inside reuse this thread's arrays.

    Inside, each ``lstm`` forward keeps its residuals in buffers of its call
    position (first, second, ... op since the arena opened), and forward and
    backward take their scratch arrays from shared buffers. Each buffer has
    the size of the largest call seen; a smaller call takes a leading view.
    The next opening overwrites the residuals, so a tape recorded inside
    must be gone before the next opening: its backward would raise. Node
    values, and every op outside an arena, get fresh arrays.
    """
    if _arena.open:
        raise RuntimeError("lstm_arena is already open in this thread")
    _arena.open = True
    _arena.generation += 1
    try:
        yield
    finally:
        _arena.open, _arena.position = False, 0


def _work(key, shape: tuple[int, ...], dtype) -> Array:
    """An uninitialised array: a view of arena buffer ``(key, dtype)``, or fresh."""
    if not _arena.open:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    key = key, dtype
    buf = _arena.buffers.get(key)
    if buf is None or buf.size < size:
        buf = _arena.buffers[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _gate_blocks(w: Array) -> Array:
    """``[4h, cols]`` GATE_ORDER row blocks as a ``[4, h, cols]`` copy in kernel order."""
    return w.reshape(4, -1, w.shape[1])[_KERNEL_GATES]


def _gate_rows(g4: Array) -> Array:
    """Kernel-order ``[4, cols, h]`` blocks as ``[4h, cols]`` GATE_ORDER rows."""
    return g4[_KERNEL_GATES].transpose(0, 2, 1).reshape(-1, g4.shape[1])


def _fw_lstm(values, kwargs):
    x, wx, wh, bias, w_head, b_head = values
    steps = kwargs["steps"]
    h = wh.shape[-1]
    if (x.ndim != 2 or wx.shape != (4 * h, x.shape[1]) or wh.shape != (4 * h, h)
            or bias.shape != (4 * h,) or w_head.ndim != 2 or w_head.shape[1] != h
            or b_head.shape != w_head.shape[:1]):
        raise ShapeError(f"lstm: shapes x {x.shape}, wx {wx.shape}, wh {wh.shape}, "
                         f"bias {bias.shape}, w_head {w_head.shape} and b_head "
                         f"{b_head.shape} do not conform")
    if steps < 1 or x.shape[0] < steps or x.shape[0] % steps:
        raise ShapeError(f"lstm: {x.shape[0]} rows do not split into {steps} steps")
    n, n_in = x.shape
    batch = n // steps
    dtype = x.dtype
    pos = _arena.position
    if _arena.open:
        _arena.position += 1
    # the bias is the last weight row, multiplied by a ones column of x
    xa = _work(("xa", pos), (n, n_in + 1), dtype)
    xa[:, :n_in] = x
    xa[:, n_in] = 1.0
    # contiguous [4, in+1, h] and [4, h, h] factors in x's dtype, sigmoid
    # blocks halved: as transposed views the products take more than twice
    # as long
    wxb4, wh4 = (np.ascontiguousarray(_gate_blocks(w).transpose(0, 2, 1), dtype)
                 * _HALF[dtype] for w in (np.hstack((wx, bias[:, None])), wh))
    # [4, S*B, h] pre-activations, overwritten by activations step by step
    acts = np.matmul(xa, wxb4, out=_work(("acts", pos), (4, n, h), dtype))
    recur = _work("recur", (4, batch, h), dtype)
    hs = _work(("hs", pos), (n, h), dtype)
    cs = _work(("cs", pos), (n, h), dtype)
    tanh_cs = _work(("tanh_cs", pos), (n, h), dtype)
    tmp = _work("tmp", (batch, h), dtype)
    for t in range(steps):
        rows, prev = slice(t * batch, (t + 1) * batch), slice((t - 1) * batch, t * batch)
        a = acts[:, rows]
        # from a zero state the forget gate multiplies a zero cell: skip it
        live = a[1:] if t == 0 else a
        if t:
            a += np.matmul(hs[prev], wh4, out=recur)
        np.tanh(live, out=live)
        sig = live[:-1]
        sig *= 0.5
        sig += 0.5
        gate_f, gate_i, gate_o, cand = a
        np.multiply(gate_i, cand, out=cs[rows])
        if t:
            cs[rows] += np.multiply(gate_f, cs[prev], out=tmp)
        np.tanh(cs[rows], out=tanh_cs[rows])
        np.multiply(gate_o, tanh_cs[rows], out=hs[rows])
    # the head: a fresh [S*B, p] product by a contiguous copy of w_head.T (the
    # view rounds differently), then the bias, then the squash
    out = hs @ np.ascontiguousarray(w_head.T, dtype)
    out += b_head.astype(dtype, copy=False)
    if kwargs["squash"]:
        np.tanh(out, out=out)
    generation = _arena.generation if _arena.open else None
    return out, (xa, acts, cs, tanh_cs, hs, generation)


def _bw_lstm(g, out, saved, values, needs, kwargs):
    x, wx, wh, bias, w_head, b_head = values
    xa, acts, cs, tanh_cs, hs, generation = saved
    if generation is not None and generation != _arena.generation:
        raise RuntimeError("lstm: a later lstm_arena overwrote this tape's residuals")
    steps = kwargs["steps"]
    batch = x.shape[0] // steps
    h = wh.shape[1]
    dtype = x.dtype
    # the head first: its weights' gradients, then the hidden states' gradient
    gz = g * (1.0 - out * out) if kwargs["squash"] else g
    gw_head = (hs.T @ gz).T if needs[4] else None
    # a product with ones: gz.sum(axis=0) over a narrow [S*B, p] gradient is 5x slower
    gb_head = np.ones(gz.shape[0], dtype) @ gz if needs[5] else None
    dhs = np.matmul(gz, w_head.astype(dtype, copy=False),
                    out=_work("dhs", hs.shape, dtype))
    wx4 = _gate_blocks(wx).astype(dtype, copy=False)
    wh4 = _gate_blocks(wh).astype(dtype, copy=False)
    dpre = _work("dpre", acts.shape, dtype)
    dh4 = _work("dh4", (4, batch, h), dtype)
    dh = _work("dh", (batch, h), dtype)
    dc = _work("dc", (batch, h), dtype)
    dc[...] = 0.0
    tmp = _work("tmp", (batch, h), dtype)
    sig_slope = _work("sig_slope", (3, batch, h), dtype)
    for t in range(steps - 1, -1, -1):
        rows, prev = slice(t * batch, (t + 1) * batch), slice((t - 1) * batch, t * batch)
        if t < steps - 1:
            np.matmul(dpre[:, (t + 1) * batch:(t + 2) * batch], wh4, out=dh4)
            dh4.sum(axis=0, out=dh)
            dh += dhs[rows]
        else:
            dh[...] = dhs[rows]
        a, d = acts[:, rows], dpre[:, rows]
        gate_f, gate_i, gate_o, cand = a
        d_f, d_i, d_o, d_cand = d
        tanh_c = tanh_cs[rows]
        # dc += dh * gate_o * (1 - tanh_c^2), with d_o as scratch
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, gate_o, out=d_o)
        d_o *= tmp
        dc += d_o
        np.multiply(dh, tanh_c, out=d_o)
        np.multiply(dc, cand, out=d_i)
        np.multiply(dc, gate_i, out=d_cand)
        # through the activations: sigmoid' = s (1 - s), tanh' = 1 - tanh^2;
        # at the zero state the forget gate was never evaluated and d_f is 0
        if t:
            np.multiply(dc, cs[prev], out=d_f)
            dc *= gate_f
            sig, slope, d_sig = a[:3], sig_slope, d[:3]
        else:
            d_f[...] = 0.0
            sig, slope, d_sig = a[1:3], sig_slope[1:], d[1:3]
        np.subtract(1.0, sig, out=slope)
        slope *= sig
        d_sig *= slope
        np.multiply(cand, cand, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        d_cand *= tmp
    gx = (np.matmul(dpre, wx4, out=_work("gx4", (4, *x.shape), dtype)).sum(axis=0)
          if needs[0] else None)
    # the ones column of xa turns the last row into the bias gradient
    gwxb = _gate_rows(np.matmul(xa.T, dpre)) if needs[1] or needs[3] else None
    gwx = gwxb[:, :-1] if needs[1] else None
    gwh = _gate_rows(np.matmul(hs[:-batch].T, dpre[:, batch:])) if needs[2] else None
    gb = gwxb[:, -1] if needs[3] else None
    return (gx, gwx, gwh, gb, gw_head, gb_head)


def _fw_sum(values, kwargs):
    return np.array([values[0].sum()]), None


def _bw_sum(g, out, saved, values, needs, kwargs):
    return (np.full_like(values[0], float(g.reshape(()))),)


def _fw_windows(values, kwargs):
    (series,) = values
    steps = kwargs["steps"]
    if series.ndim != 2 or not 1 <= steps <= series.shape[0]:
        raise ShapeError(f"windows: {steps} steps invalid for shape {series.shape}")
    return window_stack(series, steps), None


def _bw_windows(g, out, saved, values, needs, kwargs):
    return (window_sum(g, kwargs["steps"]),)


def _fw_weighted_mse(values, kwargs):
    target, output = values
    weights = np.asarray(kwargs["weights"])
    if target.ndim != 2 or target.shape != output.shape or weights.shape != (target.shape[1],):
        raise ShapeError(f"weighted_mse: shapes {target.shape} and {output.shape} "
                         f"with {weights.size} weights do not conform")
    # a weight-0 column is never read, so not even 0 * inf = nan can leak
    keep = np.flatnonzero(weights)
    d = output[:, keep] - target[:, keep]
    w = weights[keep]
    return np.array([(d * d).mean(axis=0, dtype=np.float64) @ w]), (keep, w, d)


def _bw_weighted_mse(g, out, saved, values, needs, kwargs):
    keep, w, d = saved
    grad = np.zeros_like(values[0])
    grad[:, keep] = d * (2.0 / d.shape[0] * float(g.reshape(())) * w).astype(d.dtype)
    return (-grad if needs[0] else None, grad if needs[1] else None)


_OPS: dict[str, _OpRule] = {
    "lstm": _OpRule(_fw_lstm, _bw_lstm),
    "windows": _OpRule(_fw_windows, _bw_windows),
    "sum": _OpRule(_fw_sum, _bw_sum),
    "weighted_mse": _OpRule(_fw_weighted_mse, _bw_weighted_mse),
}


def registered_ops() -> tuple[str, ...]:
    return tuple(sorted(_OPS))


class Tape:
    """Recording of a forward computation, ready for one reverse sweep."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value) -> Var:
        """Register an input tensor. Distinct calls make distinct leaves."""
        arr = as_tensor(value).copy()
        if not np.isfinite(arr).all():
            raise NonFiniteError("leaf: value contains NaN or Inf")
        self._nodes.append(_Node("leaf", (), {}, arr, None))
        return Var(self, len(self._nodes) - 1, arr.shape)

    def apply(self, op: str, *inputs: Var, **kwargs) -> Var:
        """Record one op; computes and caches its value immediately."""
        rule = _OPS.get(op)
        if rule is None:
            raise KeyError(f"unknown op {op!r}; registered: {registered_ops()}")
        for v in inputs:
            if v.tape is not self:
                raise ValueError(f"{op}: input {v!r} belongs to a different tape")
        values = [self._nodes[v.id].value for v in inputs]
        out, saved = rule.forward(values, kwargs)
        # tuples from lists, here and in weighted_mse: tuple() of a generator
        # allocates 10 slots and shrinks them, which leaves one block per
        # call on CPython's tuple free list, up to its cap of 2000
        self._nodes.append(_Node(op, tuple([v.id for v in inputs]), kwargs, out, saved))
        return Var(self, len(self._nodes) - 1, out.shape)

    # Conveniences, one per op.

    def lstm(self, x: Var, wx: Var, wh: Var, bias: Var, w_head: Var, b_head: Var,
             steps: int, squash: bool) -> Var:
        return self.apply("lstm", x, wx, wh, bias, w_head, b_head, steps=int(steps),
                          squash=bool(squash))

    def windows(self, series: Var, steps: int) -> Var:
        return self.apply("windows", series, steps=int(steps))

    def sum(self, a: Var) -> Var:
        return self.apply("sum", a)

    def weighted_mse(self, target: Var, output: Var, weights: Sequence[float]) -> Var:
        return self.apply("weighted_mse", target, output,
                          weights=tuple([float(w) for w in weights]))

    def backward(self, loss: Var, wrt: Sequence[Var]) -> list[Array]:
        """Gradients of a scalar loss, one fresh array per leaf of ``wrt``, in order.

        A leaf the loss does not reach gets zeros; a Var of another tape, or
        not a leaf, raises ValueError. Derivative rules are asked only for
        inputs that depend on a ``wrt`` leaf. Repeated calls recompute from
        scratch and are bit-identical. A gradient has the dtype its rules
        computed it in, which need not be its leaf's: a float64 weight that
        feeds a float32 ``lstm`` gets a float32 gradient.
        """
        if loss.tape is not self:
            raise ValueError("backward: loss belongs to a different tape")
        for v in wrt:
            if v.tape is not self or self._nodes[v.id].op != "leaf":
                raise ValueError(f"backward: {v!r} is not a leaf of this tape")
        loss_val = self._nodes[loss.id].value
        if loss_val.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {loss_val.shape}")
        if not np.isfinite(loss_val).all():
            raise NonFiniteError("backward: loss is not finite")

        # reach[i]: node i depends on a wrt leaf; only leaves have no inputs
        wanted = {v.id for v in wrt}
        reach: list[bool] = []
        for nid in range(loss.id + 1):
            reach.append(nid in wanted or any(reach[i] for i in self._nodes[nid].inputs))
        grads: list[Array | None] = [None] * (loss.id + 1)
        grads[loss.id] = np.ones_like(loss_val)
        for nid in range(loss.id, -1, -1):
            g = grads[nid]
            node = self._nodes[nid]
            if g is None or not reach[nid] or node.op == "leaf":
                continue
            grads[nid] = None  # consumed here: freed once its rule has run
            needs = [reach[i] for i in node.inputs]
            values = [self._nodes[i].value for i in node.inputs]
            contribs = _OPS[node.op].backward(g, node.value, node.saved, values, needs,
                                              node.kwargs)
            for iid, contrib in zip(node.inputs, contribs):
                if contrib is None:
                    continue
                prev = grads[iid]
                # out-of-place accumulation: rules may return shared arrays
                grads[iid] = contrib if prev is None else prev + contrib

        return [np.zeros_like(v.value) if v.id > loss.id or grads[v.id] is None
                else grads[v.id].copy() for v in wrt]


def grad_check(f: Callable[[Tape, Var], Var], x, eps: float = 1e-6) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` receives a fresh tape plus a leaf holding ``x`` and must return a
    scalar loss Var; it must be pure (no state between calls). The analytic
    gradient is ``backward(loss, [leaf])``, so every other leaf ``f``
    records is a constant. Returns the maximum over components of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.
    """
    if not 1e-8 <= eps <= 1e-4:
        raise ValueError(f"grad_check: eps {eps} outside [1e-8, 1e-4]")
    x = as_tensor(x)

    tape = Tape()
    var = tape.leaf(x)
    (analytic,) = tape.backward(f(tape, var), [var])

    def loss_at(arr: Array) -> float:
        t = Tape()
        return f(t, t.leaf(arr)).item()

    numeric = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        hi[idx] += eps
        lo = x.copy()
        lo[idx] -= eps
        numeric[idx] = (loss_at(hi) - loss_at(lo)) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float((np.abs(analytic - numeric) / denom).max())


def _op_check_cases(rng) -> list[tuple[str, Callable[[], tuple], dict]]:
    """Random conforming inputs and the kwargs per op for the finite-difference sweep.

    Draws keep gradient components away from zero so the relative-error
    criterion is meaningful; targets sit outside the reachable output range.
    """

    def plain(shape, lo=-1.5, hi=1.5):
        return rng.uniform(lo, hi, shape)

    def lstm_inputs():
        # all-positive draws: every backward term of one component then has
        # one sign, so none cancels; with random signs cancellation alone
        # pushes the finite-difference error on wh to 1e-3 while the
        # gradient is exact to rounding
        return tuple(plain(shape, 0.1, 0.6)
                     for shape in ((6, 3), (8, 3), (8, 2), (8,), (3, 2), (3,)))

    return [
        ("lstm", lstm_inputs, {"steps": 3, "squash": True}),
        ("lstm", lstm_inputs, {"steps": 3, "squash": False}),
        ("windows", lambda: (plain((5, 2)),), {"steps": 3}),
        ("sum", lambda: (plain((3, 4)),), {}),
        # the weight-0 column must get an exactly zero gradient, which the
        # relative error accepts only if the finite difference is zero too
        ("weighted_mse", lambda: (plain((3, 4), 0.5, 1.5), plain((3, 4), -1.5, -0.5)),
         {"weights": (0.7, 0.0, 1.8, 0.25)}),
    ]


def run_op_checks(seed: int = 0, samples_per_op: int = 100) -> dict[str, float]:
    """Finite-difference sweep over every registered op.

    For each op, each differentiable input position is checked on
    ``samples_per_op`` random inputs; the result maps op name to the worst
    relative error seen. The loss wrapper is a mean-square distance to a
    fixed out-of-range target, so every gradient component stays O(1).
    """
    from .rng import Xoshiro256

    if samples_per_op < 1:
        raise ValueError(f"samples_per_op must be at least 1, got {samples_per_op}")
    rng = Xoshiro256(seed)
    cases = _op_check_cases(rng)
    missing = set(_OPS) - {name for name, _, _ in cases}
    if missing:
        raise AssertionError(f"ops missing a finite-difference case: {sorted(missing)}")

    worst: dict[str, float] = {}
    for op, make, kwargs in cases:
        err = 0.0
        for _ in range(samples_per_op):
            inputs = make()
            for pos in range(len(inputs)):

                def f(tape: Tape, x: Var, _inputs=inputs, _pos=pos) -> Var:
                    vars_ = [
                        x if j == _pos else tape.leaf(arr)
                        for j, arr in enumerate(_inputs)
                    ]
                    out = tape.apply(op, *vars_, **kwargs)
                    if out.value.size == 1:
                        return out
                    target = tape.leaf(np.full(out.shape, 4.0))
                    return tape.weighted_mse(target, out, np.ones(out.shape[1]))

                err = max(err, grad_check(f, inputs[pos], eps=1e-6))
        worst[op] = max(worst.get(op, 0.0), err)
    return worst
