"""LSTM autoencoder built on the autodiff tape.

Architecture (hourglass): an LSTM encoder reads a window step by step, a
tanh linear head compresses each hidden state to a narrow latent vector,
an LSTM decoder consumes the latent sequence, and a linear readout (no
activation) maps each decoder state back to feature space. All recurrent
state starts at zero.

Forward passes are expressed once, batched across windows: at step ``t``
the input is a ``[num_windows, n_features]`` matrix. A single window is
the ``num_windows == 1`` special case, so every code path shares the same
tape ops. ``windowed_loss`` is the one objective that training (over the
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

from .autodiff import Tape, Var
from .optim import reduced_loss
from .rng import Xoshiro256

# Gate blocks inside stacked LSTM parameters, in fixed order:
# input gate, forget gate, candidate, output gate.
GATE_ORDER = ("input", "forget", "candidate", "output")


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


def lstm_step(tape: Tape, net: dict[str, Var], prefix: str, x: Var,
              h_prev: Var, c_prev: Var) -> tuple[Var, Var]:
    """One step of the LSTM ``prefix`` ("encoder" or "decoder") on a batch.

    ``x`` is ``[batch, in]``, states are ``[batch, hidden]``. Gate
    pre-activations are computed stacked then split per GATE_ORDER.
    """
    wh = net[f"{prefix}.wh"]
    h = wh.shape[0]
    pre = tape.add_bias(tape.add(tape.matmul(x, net[f"{prefix}.wx"]),
                                 tape.matmul(h_prev, wh)), net[f"{prefix}.bias"])
    gate_i = tape.sigmoid(tape.slice_cols(pre, range(0, h)))
    gate_f = tape.sigmoid(tape.slice_cols(pre, range(h, 2 * h)))
    cand = tape.tanh(tape.slice_cols(pre, range(2 * h, 3 * h)))
    gate_o = tape.sigmoid(tape.slice_cols(pre, range(3 * h, 4 * h)))
    c_new = tape.add(tape.mul(gate_f, c_prev), tape.mul(gate_i, cand))
    h_new = tape.mul(gate_o, tape.tanh(c_new))
    return h_new, c_new


def _linear(tape: Tape, net: dict[str, Var], prefix: str, x: Var) -> Var:
    return tape.add_bias(tape.matmul(x, net[f"{prefix}.weight"]), net[f"{prefix}.bias"])


def forward_steps(tape: Tape, net: dict[str, Var],
                  xs: Sequence[Var]) -> list[Var]:
    """Batched forward pass over per-step input matrices.

    ``xs[t]`` holds row ``t`` of every window, shape ``[batch, n]``. The
    returned outputs mirror that layout.
    """
    zeros = np.zeros((xs[0].shape[0], net["encoder.wh"].shape[0]))
    h_enc = tape.leaf(zeros)
    c_enc = tape.leaf(zeros)
    latents = []
    for x in xs:
        h_enc, c_enc = lstm_step(tape, net, "encoder", x, h_enc, c_enc)
        latents.append(tape.tanh(_linear(tape, net, "latent", h_enc)))

    h_dec = tape.leaf(zeros)
    c_dec = tape.leaf(zeros)
    outputs = []
    for z in latents:
        h_dec, c_dec = lstm_step(tape, net, "decoder", z, h_dec, c_dec)
        outputs.append(_linear(tape, net, "readout", h_dec))
    return outputs


def windowed_forward(tape: Tape, net: dict[str, Var], series: Var,
                     seq_len: int) -> tuple[list[Var], list[Var]]:
    """Forward every stride-1 window of a [T, n] series as one batch.

    Step ``t`` of every window is the row block [t, t + T - seq_len + 1) of
    the series, taken with one differentiable slice, so a sample that sits
    in k windows receives k gradient contributions. Returns the per-step
    inputs and outputs, each ``[num_windows, n]``.
    """
    num_windows = series.shape[0] - seq_len + 1
    xs = [tape.slice_rows(series, t, t + num_windows) for t in range(seq_len)]
    return xs, forward_steps(tape, net, xs)


def windowed_loss(tape: Tape, net: dict[str, Var], series: Var,
                  seq_len: int, weights: Sequence[float]) -> tuple[Var, list[Var]]:
    """The objective of training and reconstruction, plus the step outputs.

    Sum over features j of ``weights[j]`` times the mean-square error
    between the inputs and outputs of every stride-1 window of ``series``
    in column j. A feature with weight 0 does not enter the loss.
    """
    xs, outputs = windowed_forward(tape, net, series, seq_len)
    loss = reduced_loss(tape, tape.concat_rows(xs), tape.concat_rows(outputs), weights)
    return loss, outputs
