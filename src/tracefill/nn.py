"""LSTM autoencoder built on the autodiff tape.

Architecture (hourglass): an LSTM encoder reads a window step by step, a
tanh linear head compresses each hidden state to a narrow latent vector,
an LSTM decoder consumes the latent sequence, and a linear readout (no
activation) maps each decoder state back to feature space. All recurrent
state starts at zero.

Forward passes are expressed once, batched across windows, on step-major
stacks: rows ``t*B .. (t+1)*B`` of a ``[seq_len*B, n]`` tensor hold step
``t`` of all B windows (``preprocess.window_stack`` owns that layout, and
one ``windows`` tape op applies it to a series). Each LSTM layer is one
fused ``lstm`` tape op over the whole stack, and the latent head and
readout are one matmul each over all ``seq_len*B`` rows, so a forward
pass records seven ops whatever the window count. A single window is the
``B == 1`` special case. ``windowed_loss`` is the objective on one tape:
one ``windows`` op, the seven of the network, and one ``weighted_mse``.

``windowed_objective`` is the one loop that training (over the weights),
reconstruction (over the series) and evaluation (forward only) run. It
splits the windows of a series into chunks of ``CHUNK_WINDOWS`` and records
each chunk on its own tape, whose backward runs before the next chunk is
recorded. Each chunk's weights are scaled by its share of the windows, so
the chunk losses and gradients add up to those of one whole-series
``windowed_loss`` tape, while tape memory stays the same for any series
length.

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

    One ``windows`` op cuts the series into the step-major input stack; its
    backward adds each window's gradient back onto the samples, so a sample
    that sits in k windows receives k contributions. Returns the input and
    output stacks, each ``[seq_len * num_windows, n]``.
    """
    x = tape.windows(series, seq_len)
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


# Windows per tape in ``windowed_objective``. A fixed constant, so results
# do not depend on the machine; at 512 windows the ``lstm`` op's
# [4, S*B, h] working arrays stay in cache.
CHUNK_WINDOWS = 512


def windowed_objective(params: AutoencoderParams, series: np.ndarray, seq_len: int,
                       weights: Sequence[float], wrt: str | None = None,
                       hold: list | None = None):
    """``windowed_loss`` of a [T, n] series, one tape per chunk of windows.

    Chunk ``[w0, w1)`` of the W = T - seq_len + 1 windows (at most
    ``CHUNK_WINDOWS`` of them) gets a tape over samples
    ``[w0, w1 + seq_len - 1)`` and the weights times ``(w1 - w0) / W``, so
    the chunk losses add up to the whole-series loss. A series of at most
    ``CHUNK_WINDOWS`` windows is one chunk with share 1.0, which is exactly
    one ``windowed_loss`` tape.

    Returns ``(loss, result)``, where ``result`` depends on ``wrt``:

    - ``"params"``: the ten parameter gradients, in storage layout;
    - ``"series"``: the [T, n] gradient of the series (parameters frozen);
    - ``None``: no backward; the output windows merged by overlap mean, [T, n].

    A chunk whose loss is not finite ends the loop before its backward
    runs, and the non-finite loss is returned with ``None``. The forward
    passes run with numpy's overflow and invalid-value warnings off: a
    diverged run reports itself through that loss, not through a warning.

    Each chunk's tape stays alive until the next chunk's forward pass is
    recorded, and the last one is left in ``hold`` (a list the caller
    passes to each of its calls) until the next call records its first
    chunk. The memory a tape frees then lies below a live tape, where the
    next chunk reuses it. Freed at the top of the heap, glibc would hand it
    back to the kernel, and the next chunk would fault it in again:
    2300-2470 minor faults per training update instead of 240-710 (T=2000,
    hidden 16, six datasets).
    """
    if wrt not in ("params", "series", None):
        raise ValueError(f"wrt must be 'params', 'series' or None, got {wrt!r}")
    T = series.shape[0]
    if not 1 <= seq_len <= T:
        raise ValueError(f"seq_len {seq_len} invalid for {T} samples")
    num_windows = T - seq_len + 1
    weights = np.asarray(weights, dtype=np.float64)
    hold = [] if hold is None else hold
    loss_sum = 0.0
    result = None if wrt == "params" else np.zeros(series.shape)
    for w0 in range(0, num_windows, CHUNK_WINDOWS):
        w1 = min(w0 + CHUNK_WINDOWS, num_windows)
        rows = slice(w0, w1 + seq_len - 1)
        tape = Tape()
        net = lift_params(tape, params, requires_grad=wrt == "params")
        leaf = tape.leaf(series[rows], requires_grad=wrt == "series")
        # a diverged run overflows here; the loss is checked for it below
        with np.errstate(over="ignore", invalid="ignore"):
            loss, y = windowed_loss(tape, net, leaf, seq_len,
                                    weights * ((w1 - w0) / num_windows))
        hold[:] = [loss]  # frees the previous chunk's tape
        loss_sum += loss.item()
        if wrt is None:
            result[rows] += window_sum(y.value, seq_len)
            continue
        if not np.isfinite(loss_sum):
            return loss_sum, None
        grads = tape.backward(loss)
        if wrt == "series":
            result[rows] += grads[leaf]
        elif result is None:
            # matrices were lifted transposed; .T returns them in storage layout
            result = {name: grads[v].T for name, v in net.items()}
        else:
            for name, v in net.items():
                result[name] += grads[v].T
        del grads  # its keys would keep this tape alive past the next forward
    if wrt is None:
        result /= coverage_counts(T, seq_len)[:, None]
    return loss_sum, result
