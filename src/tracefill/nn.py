"""LSTM autoencoder built on the autodiff tape.

Architecture (hourglass): an LSTM encoder reads a window step by step, a
tanh linear head compresses each hidden state to a narrow latent vector,
an LSTM decoder consumes the latent sequence, and a linear readout (no
activation) maps each decoder state back to feature space. All recurrent
state starts at zero.

Forward passes are expressed once, batched across windows, on step-major
stacks: rows ``t*B .. (t+1)*B`` of a ``[seq_len*B, n]`` tensor hold step
``t`` of all B windows. Each LSTM layer is one fused ``lstm`` tape op
over the whole stack, and the latent head and readout are one matmul
each over all ``seq_len*B`` rows, so a forward pass records seven ops
whatever the window count. A single window is the ``B == 1`` special
case. ``windowed_loss`` is the one objective that training (over the
weights) and reconstruction (over a missing column) both minimize.

The parameters are one table of ten named arrays, spelled out only in
``param_shapes``: training writes it, the model file stores it and
reconstruction reads it frozen. ``lift_params`` puts each array on a tape
once, matrices transposed to the ``[in, out]`` layout the forward pass
multiplies by, and the layers look their weights up by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# GATE_ORDER is re-exported: the gate layout of the stored LSTM arrays
from .autodiff import GATE_ORDER, Tape, Var
from .optim import reduced_loss
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


def param_count(config: NetConfig) -> int:
    """Total parameter count implied by the dimensions alone."""
    return sum(int(np.prod(shape)) for shape in param_shapes(config).values())


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


def lift_params(tape: Tape, params: AutoencoderParams,
                requires_grad: bool) -> dict[str, Var]:
    """Register every parameter array as one leaf of ``tape``, keyed as ``params``.

    Matrices are lifted transposed, ``[in, out]``, the layout the forward
    pass multiplies by, so a matrix leaf's gradient is the transpose of
    the storage-layout gradient. ``requires_grad=False`` freezes them:
    backward never touches the parameter side of the graph.
    """
    return {name: tape.leaf(arr.T, requires_grad=requires_grad)
            for name, arr in params.items()}


def _linear(tape: Tape, net: dict[str, Var], prefix: str, x: Var) -> Var:
    return tape.add_bias(tape.matmul(x, net[f"{prefix}.weight"]), net[f"{prefix}.bias"])


def _lstm(tape: Tape, net: dict[str, Var], prefix: str, x: Var, steps: int) -> Var:
    return tape.lstm(x, net[f"{prefix}.wx"], net[f"{prefix}.wh"], net[f"{prefix}.bias"],
                     steps)


def forward_steps(tape: Tape, net: dict[str, Var], x: Var, steps: int) -> Var:
    """Batched forward pass over a step-major stack of windows.

    Rows ``t*B .. (t+1)*B`` of ``x`` (``[steps*B, n]``) hold step ``t`` of
    every window; the returned output stack has the same layout.
    """
    h_enc = _lstm(tape, net, "encoder", x, steps)
    latent = tape.tanh(_linear(tape, net, "latent", h_enc))
    return _linear(tape, net, "readout", _lstm(tape, net, "decoder", latent, steps))


def windowed_forward(tape: Tape, net: dict[str, Var], series: Var,
                     seq_len: int) -> tuple[Var, Var]:
    """Forward every stride-1 window of a [T, n] series as one batch.

    Step ``t`` of every window is the row block [t, t + T - seq_len + 1) of
    the series, taken with one differentiable slice, so a sample that sits
    in k windows receives k gradient contributions. Returns the step-major
    input and output stacks, each ``[seq_len * num_windows, n]``.
    """
    num_windows = series.shape[0] - seq_len + 1
    x = tape.concat_rows([tape.slice_rows(series, t, t + num_windows)
                          for t in range(seq_len)])
    return x, forward_steps(tape, net, x, seq_len)


def windowed_loss(tape: Tape, net: dict[str, Var], series: Var,
                  seq_len: int, weights: Sequence[float]) -> tuple[Var, Var]:
    """The objective of training and reconstruction, plus the output stack.

    Sum over features j of ``weights[j]`` times the mean-square error
    between the inputs and outputs of every stride-1 window of ``series``
    in column j. A feature with weight 0 does not enter the loss.
    """
    x, y = windowed_forward(tape, net, series, seq_len)
    return reduced_loss(tape, x, y, weights), y


def window_outputs(y: Var, seq_len: int) -> np.ndarray:
    """An output stack of ``windowed_forward`` as ``[num_windows, seq_len, n]``."""
    return y.value.reshape(seq_len, -1, y.shape[1]).swapaxes(0, 1)
