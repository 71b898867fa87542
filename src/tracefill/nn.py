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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class LSTMParams:
    """Stacked gate parameters; rows ordered per GATE_ORDER blocks."""

    wx: np.ndarray  # [4h, in]
    wh: np.ndarray  # [4h, h]
    bias: np.ndarray  # [4h]


@dataclass
class LinearParams:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]


@dataclass
class AutoencoderParams:
    encoder: LSTMParams
    latent: LinearParams
    decoder: LSTMParams
    readout: LinearParams

    _NAMES = (
        "encoder.wx", "encoder.wh", "encoder.bias",
        "latent.weight", "latent.bias",
        "decoder.wx", "decoder.wh", "decoder.bias",
        "readout.weight", "readout.bias",
    )

    def as_dict(self) -> dict[str, np.ndarray]:
        """Named view of every parameter array (order is fixed)."""
        return {
            "encoder.wx": self.encoder.wx,
            "encoder.wh": self.encoder.wh,
            "encoder.bias": self.encoder.bias,
            "latent.weight": self.latent.weight,
            "latent.bias": self.latent.bias,
            "decoder.wx": self.decoder.wx,
            "decoder.wh": self.decoder.wh,
            "decoder.bias": self.decoder.bias,
            "readout.weight": self.readout.weight,
            "readout.bias": self.readout.bias,
        }

    @classmethod
    def from_dict(cls, arrays: dict[str, np.ndarray]) -> "AutoencoderParams":
        missing = set(cls._NAMES) - set(arrays)
        if missing:
            raise KeyError(f"missing parameter arrays: {sorted(missing)}")
        a = {k: np.asarray(arrays[k], dtype=np.float64) for k in cls._NAMES}
        return cls(
            encoder=LSTMParams(a["encoder.wx"], a["encoder.wh"], a["encoder.bias"]),
            latent=LinearParams(a["latent.weight"], a["latent.bias"]),
            decoder=LSTMParams(a["decoder.wx"], a["decoder.wh"], a["decoder.bias"]),
            readout=LinearParams(a["readout.weight"], a["readout.bias"]),
        )

    def copy(self) -> "AutoencoderParams":
        return AutoencoderParams.from_dict(
            {k: v.copy() for k, v in self.as_dict().items()}
        )


def param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter array, keyed and ordered as ``as_dict``."""
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


@dataclass
class LSTMLeaves:
    """One LSTM's parameters lifted onto a tape (weights pre-transposed)."""

    wx_t: Var  # [in, 4h]
    wh_t: Var  # [h, 4h]
    bias: Var  # [4h]
    hidden: int


@dataclass
class LinearLeaves:
    weight_t: Var  # [in, out]
    bias: Var  # [out]


@dataclass
class AutoencoderLeaves:
    encoder: LSTMLeaves
    latent: LinearLeaves
    decoder: LSTMLeaves
    readout: LinearLeaves
    leaves: dict[str, Var] = field(default_factory=dict)


def lift_params(tape: Tape, params: AutoencoderParams,
                requires_grad: bool) -> AutoencoderLeaves:
    """Register all parameters as leaves of ``tape``.

    ``requires_grad=False`` freezes them: backward never touches the
    parameter side of the graph. The returned ``leaves`` dict keys match
    ``AutoencoderParams.as_dict`` and point at the untransposed leaves, so
    gradients can be read out in storage layout.
    """
    raw = {name: tape.leaf(arr, requires_grad=requires_grad)
           for name, arr in params.as_dict().items()}

    def lstm(prefix: str, h: int) -> LSTMLeaves:
        return LSTMLeaves(
            wx_t=tape.transpose(raw[f"{prefix}.wx"]),
            wh_t=tape.transpose(raw[f"{prefix}.wh"]),
            bias=raw[f"{prefix}.bias"],
            hidden=h,
        )

    def linear(prefix: str) -> LinearLeaves:
        return LinearLeaves(
            weight_t=tape.transpose(raw[f"{prefix}.weight"]),
            bias=raw[f"{prefix}.bias"],
        )

    h = params.encoder.wh.shape[1]
    return AutoencoderLeaves(
        encoder=lstm("encoder", h),
        latent=linear("latent"),
        decoder=lstm("decoder", h),
        readout=linear("readout"),
        leaves=raw,
    )


def lstm_step(tape: Tape, p: LSTMLeaves, x: Var, h_prev: Var,
              c_prev: Var) -> tuple[Var, Var]:
    """One LSTM time step on a batch.

    ``x`` is ``[batch, in]``, states are ``[batch, hidden]``. Gate
    pre-activations are computed stacked then split per GATE_ORDER.
    """
    h = p.hidden
    pre = tape.add_bias(tape.add(tape.matmul(x, p.wx_t),
                                 tape.matmul(h_prev, p.wh_t)), p.bias)
    gate_i = tape.sigmoid(tape.slice_cols(pre, range(0, h)))
    gate_f = tape.sigmoid(tape.slice_cols(pre, range(h, 2 * h)))
    cand = tape.tanh(tape.slice_cols(pre, range(2 * h, 3 * h)))
    gate_o = tape.sigmoid(tape.slice_cols(pre, range(3 * h, 4 * h)))
    c_new = tape.add(tape.mul(gate_f, c_prev), tape.mul(gate_i, cand))
    h_new = tape.mul(gate_o, tape.tanh(c_new))
    return h_new, c_new


def _linear(tape: Tape, p: LinearLeaves, x: Var) -> Var:
    return tape.add_bias(tape.matmul(x, p.weight_t), p.bias)


@dataclass
class ForwardDetail:
    outputs: list[Var]  # per step, [batch, n_features]
    latents: list[Var]  # per step, [batch, latent_dim]


def forward_steps(tape: Tape, net: AutoencoderLeaves,
                  xs: Sequence[Var]) -> ForwardDetail:
    """Batched forward pass over per-step input matrices.

    ``xs[t]`` holds row ``t`` of every window, shape ``[batch, n]``. The
    outputs list mirrors that layout. Latents are exposed for inspection
    (they are tanh-bounded to (-1, 1)).
    """
    batch = xs[0].shape[0]
    h = net.encoder.hidden
    zeros = np.zeros((batch, h))
    h_enc = tape.leaf(zeros)
    c_enc = tape.leaf(zeros)
    latents = []
    for x in xs:
        h_enc, c_enc = lstm_step(tape, net.encoder, x, h_enc, c_enc)
        latents.append(tape.tanh(_linear(tape, net.latent, h_enc)))

    h_dec = tape.leaf(zeros)
    c_dec = tape.leaf(zeros)
    outputs = []
    for z in latents:
        h_dec, c_dec = lstm_step(tape, net.decoder, z, h_dec, c_dec)
        outputs.append(_linear(tape, net.readout, h_dec))
    return ForwardDetail(outputs=outputs, latents=latents)


def windowed_forward(tape: Tape, net: AutoencoderLeaves, series: Var,
                     seq_len: int) -> tuple[list[Var], list[Var]]:
    """Forward every stride-1 window of a [T, n] series as one batch.

    Step ``t`` of every window is the row block [t, t + T - seq_len + 1) of
    the series, taken with one differentiable slice, so a sample that sits
    in k windows receives k gradient contributions. Returns the per-step
    inputs and outputs, each ``[num_windows, n]``.
    """
    num_windows = series.shape[0] - seq_len + 1
    xs = [tape.slice_rows(series, t, t + num_windows) for t in range(seq_len)]
    return xs, forward_steps(tape, net, xs).outputs


def windowed_loss(tape: Tape, net: AutoencoderLeaves, series: Var,
                  seq_len: int, weights: Sequence[float]) -> tuple[Var, list[Var]]:
    """The objective of training and reconstruction, plus the step outputs.

    Sum over features j of ``weights[j]`` times the mean-square error
    between the inputs and outputs of every stride-1 window of ``series``
    in column j. A feature with weight 0 does not enter the loss.
    """
    xs, outputs = windowed_forward(tape, net, series, seq_len)
    loss = reduced_loss(tape, tape.concat_rows(xs), tape.concat_rows(outputs), weights)
    return loss, outputs
