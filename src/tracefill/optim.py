"""Losses on the tape and the Adam optimizer.

``reduced_loss`` records one ``weighted_mse`` op, the weighted sum of
per-column mean-square errors. That op owns the column-weight policy: it
checks the weights, and it never reads a column with weight 0.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .autodiff import Tape, Var


# kept as a public name because the benchmark's tracer binds optim.mse
def mse(tape: Tape, a: Var, b: Var) -> Var:
    """Mean over all elements of the squared difference: weights 1/n."""
    return reduced_loss(tape, a, b, np.full(a.shape[-1], 1.0 / a.shape[-1]))


# kept as a public name because the benchmark's tracer binds it and
# nn.windowed_loss records through it
def reduced_loss(tape: Tape, target: Var, output: Var, weights: Sequence[float]) -> Var:
    """Weighted sum of per-column MSEs of two [M, n] tensors: one ``weighted_mse`` op."""
    return tape.weighted_mse(target, output, weights)


class Adam:
    """Adam with bias correction; state is owned by one optimization run.

    Update per array: ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    then ``x -= lr * m_hat / (sqrt(v_hat) + eps)`` with the usual
    ``1 - b^t`` corrections and the stock constants below. ``step``
    returns fresh arrays and never mutates its inputs, so callers control
    exactly which values change.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float):
        if not learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, values: Mapping[str, np.ndarray],
             grads: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update over every named array; requires a grad per value."""
        missing = set(values) - set(grads)
        if missing:
            raise KeyError(f"no gradient for: {sorted(missing)}")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        out: dict[str, np.ndarray] = {}
        for name in values:
            g = grads[name]
            x = values[name]
            if g.shape != x.shape:
                raise ValueError(
                    f"{name}: grad shape {g.shape} != value shape {x.shape}"
                )
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(x)
                v = np.zeros_like(x)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            out[name] = x - self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return out
