"""Tape-based reverse-mode automatic differentiation over float64 arrays.

A :class:`Tape` records operations eagerly: every node caches its forward
value, and :meth:`Tape.backward` walks the recording once in reverse to
produce exact gradients of a scalar loss with respect to every leaf created
with ``requires_grad=True``. When a leaf feeds several consumers its
gradient contributions accumulate by summation.

Values are dense numpy float64 arrays, 1-D or 2-D (scalars are shape
``(1,)``). Shapes are validated per operation and mismatches raise
:class:`ShapeError` naming both shapes. The op set is closed; adding an op
means adding a forward rule, a derivative rule, and an entry in the
finite-difference check table below (``run_op_checks`` sweeps the table).
A forward rule returns its value plus the residuals its derivative rule
reuses; both live on the node, so a backward pass never recomputes the
forward.

Shape rules per op:

==================  ==========================================  ============
op                  inputs                                      output
==================  ==========================================  ============
matmul              ``[m, k]`` and ``[k, r]``                   ``[m, r]``
tanh                one tensor                                  same shape
add_bias            ``[m, n]`` and row vector ``[n]``           ``[m, n]``
lstm                ``x [S*B, in]``, ``wx [in, 4h]``,           ``[S*B, h]``
                    ``wh [h, 4h]``, ``bias [4h]``; ``steps=S``
windows             ``[T, n]``; ``steps=S``, ``1 <= S <= T``    ``[S*W, n]``
sum                 one tensor                                  ``[1]``
weighted_mse        two ``[m, n]`` tensors; ``weights`` (n)     ``[1]``
==================  ==========================================  ============

The set holds what the autoencoder and its loss record, plus ``sum`` for
whole-tensor gradient checks: ``windows`` cuts a series into the network's
input stack, ``lstm``, ``matmul``, ``add_bias`` and ``tanh`` run the
network, and ``weighted_mse`` scores it. There is no transpose: the
autoencoder's weights are lifted in the ``[in, out]`` layout its matmuls
use. :class:`Var` has no arithmetic operators, so every recorded op is
named at its call site.

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

``lstm`` runs a whole LSTM layer over a step-major stack: rows
``t*B .. (t+1)*B`` of ``x`` are step ``t`` of B sequences, state starts at
zero, and the output stacks every step's hidden state the same way. Gate
blocks of ``wx``, ``wh`` and ``bias`` are in ``GATE_ORDER``. Inside, the
op works gate-major: it copies the weights once per call to ``[4, in,
h]``, ``[4, h, h]`` and ``[4, 1, h]`` blocks, sigmoid gates first, and
keeps the activations and their gradients as ``[4, S*B, h]``, so each gate
of each step is one contiguous ``[B, h]`` block. The gates' sigmoid is
evaluated as ``0.5 + 0.5 * tanh(x / 2)``, which is finite for every finite
``x`` and agrees with ``1 / (1 + exp(-x))`` to within 2.2e-16. The inner
0.5 is folded into the sigmoid blocks of the weight copies, where halving
is exact, so one ``tanh`` over all four blocks serves every gate. The
backward is closed-form backpropagation through time over the cell states
and gate activations kept from the forward; it maps the weight gradients
back to ``GATE_ORDER`` columns once, after the time loop.

Backward itself is not recorded, so higher-order derivatives are out of
scope. Node values should be treated as read-only by callers. A tape is
freed as soon as neither it nor any of its Vars is referenced: it holds
its gradient leaves weakly, so it is never part of a reference cycle.
"""

from __future__ import annotations

import weakref
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
    """Coerce to a float64 array of rank 1 or 2 (scalars become shape (1,))."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim > 2:
        raise ShapeError(f"tensors are 1-D or 2-D, got shape {arr.shape}")
    return arr


class Var:
    """Handle to one tape node. Compared by identity; create via Tape methods."""

    __slots__ = ("tape", "id", "shape", "__weakref__")

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
    __slots__ = ("op", "inputs", "kwargs", "value", "saved", "needs_grad")

    def __init__(self, op, inputs, kwargs, value, saved, needs_grad):
        self.op = op
        self.inputs = inputs
        self.kwargs = kwargs
        self.value = value
        self.saved = saved
        self.needs_grad = needs_grad


@dataclass(frozen=True)
class _OpRule:
    # forward(values, kwargs) -> (output array, saved); ``saved`` holds the
    # residuals the backward rule reuses (None if it needs none) and lives
    # on the node. Raises ShapeError on mismatch.
    forward: Callable[..., tuple]
    # backward(g, out, saved, values, needs, kwargs) -> per-input contribution
    # (None where needs[i] is False); never mutates g in place
    backward: Callable[..., tuple]


def _fw_matmul(values, kwargs):
    a, b = values
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    return a @ b, None


def _bw_matmul(g, out, saved, values, needs, kwargs):
    a, b = values
    ga = g @ b.T if needs[0] else None
    gb = a.T @ g if needs[1] else None
    return (ga, gb)


def _fw_tanh(values, kwargs):
    return np.tanh(values[0]), None


def _bw_tanh(g, out, saved, values, needs, kwargs):
    return (g * (1.0 - out * out),)


def _fw_add_bias(values, kwargs):
    a, b = values
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {a.shape} and {b.shape} do not conform")
    return a + b, None


def _bw_add_bias(g, out, saved, values, needs, kwargs):
    ga = g if needs[0] else None
    gb = g.sum(axis=0) if needs[1] else None
    return (ga, gb)


# Gate blocks of the stacked LSTM pre-activations, in column order:
# input gate, forget gate, candidate, output gate.
GATE_ORDER = ("input", "forget", "candidate", "output")

# The lstm kernel's gate order, as indices into GATE_ORDER: the sigmoid
# gates first, so ``[:3]`` holds all three. The permutation is its own
# inverse, so the same indices map results back.
_KERNEL_GATES = [0, 1, 3, 2]
# sigmoid(a) = 0.5 + 0.5 * tanh(a / 2): the sigmoid blocks of the weight
# copies carry the inner 0.5, which is exact, so one tanh serves all four
_HALF = np.array([0.5, 0.5, 0.5, 1.0]).reshape(4, 1, 1)


def _gate_major(w: Array) -> Array:
    """A ``[rows, 4h]`` GATE_ORDER array as a ``[4, rows, h]`` copy in kernel order."""
    return w.reshape(w.shape[0], 4, -1).transpose(1, 0, 2)[_KERNEL_GATES]


def _gate_columns(g4: Array) -> Array:
    """Inverse of ``_gate_major``: ``[4, rows, h]`` kernel order to ``[rows, 4h]``."""
    return g4[_KERNEL_GATES].transpose(1, 0, 2).reshape(g4.shape[1], -1)


def _fw_lstm(values, kwargs):
    x, wx, wh, bias = values
    steps = kwargs["steps"]
    h = wh.shape[0]
    if (x.ndim != 2 or wx.shape != (x.shape[1], 4 * h) or wh.shape != (h, 4 * h)
            or bias.shape != (4 * h,)):
        raise ShapeError(f"lstm: shapes x {x.shape}, wx {wx.shape}, wh {wh.shape} "
                         f"and bias {bias.shape} do not conform")
    if steps < 1 or x.shape[0] < steps or x.shape[0] % steps:
        raise ShapeError(f"lstm: {x.shape[0]} rows do not split into {steps} steps")
    batch = x.shape[0] // steps
    # [4, S*B, h] pre-activations, overwritten by activations step by step
    acts = np.matmul(x, _gate_major(wx) * _HALF)
    acts += _gate_major(bias.reshape(1, -1)) * _HALF
    wh4 = _gate_major(wh) * _HALF
    recur = np.empty((4, batch, h))
    hs = np.empty((x.shape[0], h))
    cs = np.empty_like(hs)
    tanh_cs = np.empty_like(hs)
    tmp = np.empty((batch, h))
    for t in range(steps):
        rows, prev = slice(t * batch, (t + 1) * batch), slice((t - 1) * batch, t * batch)
        a = acts[:, rows]
        if t:
            a += np.matmul(hs[prev], wh4, out=recur)
        np.tanh(a, out=a)
        sig = a[:3]
        sig *= 0.5
        sig += 0.5
        gate_i, gate_f, gate_o, cand = a
        np.multiply(gate_i, cand, out=cs[rows])
        if t:
            cs[rows] += np.multiply(gate_f, cs[prev], out=tmp)
        np.tanh(cs[rows], out=tanh_cs[rows])
        np.multiply(gate_o, tanh_cs[rows], out=hs[rows])
    return hs, (acts, cs, tanh_cs)


def _bw_lstm(g, out, saved, values, needs, kwargs):
    x, wx, wh, bias = values
    acts, cs, tanh_cs = saved
    steps = kwargs["steps"]
    batch = x.shape[0] // steps
    h = wh.shape[0]
    # block k is wx_k.T (wh_k.T); as views, the products take twice as long
    wx4_t = _gate_major(wx).transpose(0, 2, 1).copy()
    wh4_t = _gate_major(wh).transpose(0, 2, 1).copy()
    dpre = np.empty_like(acts)
    dh4 = np.empty((4, batch, h))
    dh = np.empty((batch, h))
    dc = np.zeros((batch, h))
    tmp = np.empty((batch, h))
    sig_slope = np.empty((3, batch, h))
    for t in range(steps - 1, -1, -1):
        rows, prev = slice(t * batch, (t + 1) * batch), slice((t - 1) * batch, t * batch)
        if t < steps - 1:
            np.matmul(dpre[:, (t + 1) * batch:(t + 2) * batch], wh4_t, out=dh4)
            dh4.sum(axis=0, out=dh)
            dh += g[rows]
        else:
            dh[...] = g[rows]
        a, d = acts[:, rows], dpre[:, rows]
        gate_i, gate_f, gate_o, cand = a
        d_i, d_f, d_o, d_cand = d
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
        if t:
            np.multiply(dc, cs[prev], out=d_f)
        else:
            d_f[...] = 0.0
        dc *= gate_f
        # through the activations: sigmoid' = s (1 - s), tanh' = 1 - tanh^2
        sig = a[:3]
        np.subtract(1.0, sig, out=sig_slope)
        sig_slope *= sig
        d[:3] *= sig_slope
        np.multiply(cand, cand, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        d_cand *= tmp
    gx = np.matmul(dpre, wx4_t).sum(axis=0) if needs[0] else None
    gwx = _gate_columns(np.matmul(x.T, dpre)) if needs[1] else None
    gwh = _gate_columns(np.matmul(out[:-batch].T, dpre[:, batch:])) if needs[2] else None
    # a product with ones: a sum over the middle axis of dpre is 10x slower
    ones = np.ones((1, x.shape[0]))
    gb = _gate_columns(np.matmul(ones, dpre)).ravel() if needs[3] else None
    return (gx, gwx, gwh, gb)


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
    return np.array([(d * d).mean(axis=0) @ w]), (keep, w, d)


def _bw_weighted_mse(g, out, saved, values, needs, kwargs):
    keep, w, d = saved
    grad = np.zeros_like(values[0])
    grad[:, keep] = d * (2.0 / d.shape[0] * float(g.reshape(())) * w)
    return (-grad if needs[0] else None, grad if needs[1] else None)


_OPS: dict[str, _OpRule] = {
    "matmul": _OpRule(_fw_matmul, _bw_matmul),
    "tanh": _OpRule(_fw_tanh, _bw_tanh),
    "add_bias": _OpRule(_fw_add_bias, _bw_add_bias),
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
        # held weakly: a Var holds its tape, so a strong registry would make
        # each tape a reference cycle that lives until a cyclic collection
        self._grad_leaves: weakref.WeakValueDictionary[int, Var] = (
            weakref.WeakValueDictionary())

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value, requires_grad: bool = False) -> Var:
        """Register an input tensor. Distinct calls make distinct leaves."""
        arr = as_tensor(value).copy()
        if not np.isfinite(arr).all():
            raise NonFiniteError("leaf: value contains NaN or Inf")
        node = _Node("leaf", (), {}, arr, None, bool(requires_grad))
        self._nodes.append(node)
        var = Var(self, len(self._nodes) - 1, arr.shape)
        if requires_grad:
            self._grad_leaves[var.id] = var
        return var

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
        needs = any(self._nodes[v.id].needs_grad for v in inputs)
        node = _Node(op, tuple(v.id for v in inputs), kwargs, out, saved, needs)
        self._nodes.append(node)
        return Var(self, len(self._nodes) - 1, out.shape)

    # Conveniences, one per op.

    def matmul(self, a: Var, b: Var) -> Var:
        return self.apply("matmul", a, b)

    def tanh(self, a: Var) -> Var:
        return self.apply("tanh", a)

    def add_bias(self, a: Var, bias: Var) -> Var:
        return self.apply("add_bias", a, bias)

    def lstm(self, x: Var, wx: Var, wh: Var, bias: Var, steps: int) -> Var:
        return self.apply("lstm", x, wx, wh, bias, steps=int(steps))

    def windows(self, series: Var, steps: int) -> Var:
        return self.apply("windows", series, steps=int(steps))

    def sum(self, a: Var) -> Var:
        return self.apply("sum", a)

    def weighted_mse(self, target: Var, output: Var, weights: Sequence[float]) -> Var:
        return self.apply("weighted_mse", target, output,
                          weights=tuple(float(w) for w in weights))

    def backward(self, loss: Var) -> dict[Var, Array]:
        """Gradients of a scalar loss for every requires_grad leaf still referenced.

        Leaves that do not influence the loss get zero gradients. Non-leaf
        gradients are discarded. Repeated calls recompute from scratch and
        are bit-identical.
        """
        if loss.tape is not self:
            raise ValueError("backward: loss belongs to a different tape")
        loss_val = self._nodes[loss.id].value
        if loss_val.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {loss_val.shape}")
        if not np.isfinite(loss_val).all():
            raise NonFiniteError("backward: loss is not finite")

        grads: list[Array | None] = [None] * (loss.id + 1)
        grads[loss.id] = np.ones_like(loss_val)
        for nid in range(loss.id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self._nodes[nid]
            if node.op == "leaf" or not node.needs_grad:
                continue
            rule = _OPS[node.op]
            needs = [self._nodes[i].needs_grad for i in node.inputs]
            values = [self._nodes[i].value for i in node.inputs]
            contribs = rule.backward(g, node.value, node.saved, values, needs,
                                     node.kwargs)
            for iid, contrib in zip(node.inputs, contribs):
                if contrib is None:
                    continue
                prev = grads[iid]
                # out-of-place accumulation: rules may return shared arrays
                grads[iid] = contrib if prev is None else prev + contrib

        out: dict[Var, Array] = {}
        for lid, var in self._grad_leaves.items():
            g = grads[lid] if lid <= loss.id else None
            value = self._nodes[lid].value
            out[var] = np.array(g, copy=True) if g is not None else np.zeros_like(value)
        return out


def grad_check(f: Callable[[Tape, Var], Var], x, eps: float = 1e-6) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` receives a fresh tape plus a leaf holding ``x`` and must return a
    scalar loss Var; it must be pure (no state between calls). Returns the
    maximum over components of ``|analytic - numeric| /
    max(|analytic|, |numeric|, 1e-12)``.
    """
    if not 1e-8 <= eps <= 1e-4:
        raise ValueError(f"grad_check: eps {eps} outside [1e-8, 1e-4]")
    x = as_tensor(x)

    tape = Tape()
    var = tape.leaf(x, requires_grad=True)
    loss = f(tape, var)
    analytic = tape.backward(loss)[var]

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

    def signed(shape, lo=0.5, hi=1.5):
        mag = rng.uniform(lo, hi, shape)
        sign = np.where(rng.uniform(0.0, 1.0, shape) < 0.5, -1.0, 1.0)
        return mag * sign

    def plain(shape, lo=-1.5, hi=1.5):
        return rng.uniform(lo, hi, shape)

    return [
        ("matmul", lambda: (signed((3, 4)), signed((4, 2))), {}),
        ("tanh", lambda: (plain((3, 4)),), {}),
        ("add_bias", lambda: (plain((3, 4)), plain((4,))), {}),
        # all-positive draws: every backward term of one component then has
        # one sign, so none cancels; with random signs cancellation alone
        # pushes the finite-difference error on wh to 1e-3 while the
        # gradient is exact to rounding
        ("lstm", lambda: (plain((6, 3), 0.1, 0.6), plain((3, 8), 0.1, 0.6),
                          plain((2, 8), 0.1, 0.6), plain((8,), 0.1, 0.6)),
         {"steps": 3}),
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
        worst[op] = err
    return worst
