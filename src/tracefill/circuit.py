"""Nonlinear low-pass filter simulator and the bundled waveform suite.

The circuit is a driven series R-L branch feeding an output node that is
loaded by a voltage-dependent capacitor and a resistive load:

    source u1 --- R1 --- L --- node (u2)
                                |-- C(u2) to ground
                                |-- Rload to ground, load current i2

State variables are the inductor current ``i1`` and the node voltage
``u2``; the capacitance shrinks with bias, ``C(u) = C0 / (1 + (u/V0)^2)``,
which makes the filter's ring frequency swing with amplitude. Equations:

    di1/dt = (u1 - R1*i1 - u2) / L
    du2/dt = (i1 - u2/Rload) / C(u2)
    i2     = u2 / Rload

Integration is classical fixed-step RK4 from zero initial state. Recorded
features per sample: u1, i1, u2, i2.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .preprocess import TimeSeriesSet
from .rng import Xoshiro256

FEATURES = ("u1", "i1", "u2", "i2")


class SimulationError(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass(frozen=True)
class CircuitParams:
    r1: float = 1.0       # series resistance, ohm
    l: float = 1e-5       # inductance, henry
    c0: float = 1e-6      # zero-bias capacitance, farad
    v0: float = 5.0       # capacitance roll-off voltage, volt
    rload: float = 10.0   # load resistance, ohm

    def __post_init__(self):
        for name in ("r1", "l", "c0", "v0", "rload"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def capacitance(u: float | np.ndarray, params: CircuitParams):
    """Voltage-dependent capacitance C0 / (1 + (u/V0)^2)."""
    return params.c0 / (1.0 + (u / params.v0) ** 2)


# Each term and ``WaveformSpec`` take a float or an array of times and
# return the same kind; an array is sampled point by point with the bits of
# the float call.


@dataclass(frozen=True)
class Dc:
    level: float

    def __call__(self, t):
        return np.full(np.shape(t), self.level)[()]


@dataclass(frozen=True)
class Sine:
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __call__(self, t):
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * t + self.phase)


@dataclass(frozen=True)
class Trapezoid:
    """Periodic trapezoid: rise, stay high, fall, stay low."""

    low: float
    high: float
    rise: float
    high_time: float
    fall: float
    period: float

    def __post_init__(self):
        if self.rise + self.high_time + self.fall > self.period:
            raise ValueError("trapezoid segments exceed the period")
        for name in ("rise", "high_time", "fall", "period"):
            if getattr(self, name) < 0 or (name == "period" and self.period <= 0):
                raise ValueError(f"invalid trapezoid {name}: {getattr(self, name)}")

    def __call__(self, t):
        tau = np.remainder(t, self.period)
        # the time into the plateau and into the fall, each subtracted from
        # the one before, which rounds as a per-point loop does
        tau_high = tau - self.rise
        tau_fall = tau_high - self.high_time
        # a zero-length segment divides by zero where it is not selected
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                tau < self.rise, self.low + (self.high - self.low) * tau / self.rise,
                np.where(tau_high < self.high_time, self.high,
                         np.where(tau_fall < self.fall,
                                  self.high - (self.high - self.low) * tau_fall / self.fall,
                                  self.low)))[()]


Term = Dc | Sine | Trapezoid


@dataclass(frozen=True)
class WaveformSpec:
    """Additive combination of waveform terms driving the source."""

    terms: tuple[Term, ...]

    def __call__(self, t):
        total = sum((term(t) for term in self.terms), np.zeros(np.shape(t)))
        return total if np.ndim(t) else float(total)


def term_to_dict(term: Term) -> dict:
    return {"kind": type(term).__name__.lower(), **dataclasses.asdict(term)}


def _derivatives(params: CircuitParams, u1: float, i1: float,
                 u2: float) -> tuple[float, float]:
    di1 = (u1 - params.r1 * i1 - u2) / params.l
    du2 = (i1 - u2 / params.rload) / capacitance(u2, params)
    return di1, du2


def simulate(params: CircuitParams, source: WaveformSpec,
             dt: float, n_samples: int, t0: float = 0.0) -> TimeSeriesSet:
    """Fixed-step RK4 integration from zero state; one row per grid point.

    The source is sampled once per grid, on arrays: at ``t0 + k*dt``, and
    for the stages half a step and a whole step later. The stages then run
    on Python floats, bit for bit as a per-point loop would.

    Emits a warning when ``dt`` is coarse relative to the filter's natural
    period sqrt(L*C0) (accuracy degrades well before instability).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    natural = np.sqrt(params.l * params.c0)
    if dt > 0.3 * natural:
        warnings.warn(
            f"dt={dt:g} is coarse for natural time scale {natural:g}; "
            "RK4 accuracy degrades",
            stacklevel=2,
        )

    times = t0 + np.arange(n_samples) * dt
    drive = source(times).tolist()
    drive_mid = source(times[:-1] + 0.5 * dt).tolist()
    drive_end = source(times[:-1] + dt).tolist()
    i1s, u2s = [0.0], [0.0]
    i1, u2 = 0.0, 0.0
    for k in range(n_samples - 1):
        u1_mid = drive_mid[k]
        # classical RK4 stages; arithmetic on a diverging state can hit
        # literal overflow or a zero capacitance denominator, which count
        # as the same failure as reaching a non-finite state
        try:
            k1i, k1u = _derivatives(params, drive[k], i1, u2)
            k2i, k2u = _derivatives(params, u1_mid, i1 + 0.5 * dt * k1i,
                                    u2 + 0.5 * dt * k1u)
            k3i, k3u = _derivatives(params, u1_mid, i1 + 0.5 * dt * k2i,
                                    u2 + 0.5 * dt * k2u)
            k4i, k4u = _derivatives(params, drive_end[k], i1 + dt * k3i, u2 + dt * k3u)
        except (OverflowError, ZeroDivisionError) as exc:
            raise SimulationError(
                f"state diverged during step {k} (t={times[k]:g}): {exc}"
            ) from exc
        i1 += dt * (k1i + 2.0 * k2i + 2.0 * k3i + k4i) / 6.0
        u2 += dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        if not (math.isfinite(i1) and math.isfinite(u2)):
            raise SimulationError(
                f"non-finite state after step {k} (t={times[k] + dt:g})")
        i1s.append(i1)
        u2s.append(u2)

    u2_col = np.array(u2s)
    rows = np.column_stack([drive, i1s, u2_col, u2_col / params.rload])
    return TimeSeriesSet(FEATURES, t0, dt, rows)


def kcl_residual(data: TimeSeriesSet, params: CircuitParams) -> np.ndarray:
    """Current balance at the output node, per sample.

    Uses the same right-hand side the integrator evaluates, so on
    simulator output the residual is at rounding level:
    ``i1 - C(u2)*du2/dt - u2/Rload``.
    """
    i1 = data.column("i1")
    u2 = data.column("u2")
    c = capacitance(u2, params)
    du2 = (i1 - u2 / params.rload) / c
    return i1 - c * du2 - u2 / params.rload


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    role: str  # "train" or "test"
    waveform: WaveformSpec
    data: TimeSeriesSet


@dataclass(frozen=True)
class Suite:
    train: tuple[SuiteEntry, ...]
    test: SuiteEntry
    params: CircuitParams
    seed: int
    dt: float
    n_samples: int

    @property
    def entries(self) -> tuple[SuiteEntry, ...]:
        return self.train + (self.test,)


# Component values for the bundled suite. Faster than the CircuitParams
# defaults (ring frequency ~1.1 MHz, tau_L ~ 1 us) so that at the suite's
# 10 ns sample spacing the dynamics move visibly within a length-3 window;
# with slow components every feature is locally constant and the inductor
# branch cannot be told apart from the source.
SUITE_PARAMS = CircuitParams(r1=1.0, l=1e-6, c0=2e-8, v0=5.0, rload=10.0)


def _suite_waveforms(rng: Xoshiro256) -> list[tuple[str, WaveformSpec]]:
    """Six training drive combinations plus one held-out test combination.

    Frequencies straddle the suite circuit's ring frequency (~1.1 MHz) and
    amplitudes are large enough to swing the nonlinear capacitance over a
    wide range. The test combination draws smaller amplitudes than any
    training range so the held-out series stays inside the training
    envelope (min-max scaling extrapolates poorly outside it).
    """

    def low_sine(lo=3.0, hi=7.0):
        return Sine(
            amplitude=rng.uniform(lo, hi),
            frequency=rng.uniform(2e5, 6e5),
            phase=rng.uniform(0.0, 2.0 * np.pi),
        )

    def high_sine():
        return Sine(
            amplitude=rng.uniform(1.5, 4.0),
            frequency=rng.uniform(1.5e6, 4e6),
            phase=rng.uniform(0.0, 2.0 * np.pi),
        )

    def dc(lo=1.5, hi=4.0):
        level = rng.uniform(lo, hi)
        return Dc(level if rng.random() < 0.5 else -level)

    def trapezoid():
        period = rng.uniform(3e-6, 8e-6)
        rise = rng.uniform(0.08, 0.2) * period
        fall = rng.uniform(0.08, 0.2) * period
        high_time = rng.uniform(0.25, 0.4) * period
        return Trapezoid(
            low=rng.uniform(-5.0, -2.0),
            high=rng.uniform(3.0, 7.0),
            rise=rise,
            high_time=high_time,
            fall=fall,
            period=period,
        )

    return [
        ("train_1", WaveformSpec((dc(), low_sine()))),
        ("train_2", WaveformSpec((low_sine(3.0, 6.0), high_sine()))),
        ("train_3", WaveformSpec((trapezoid(),))),
        ("train_4", WaveformSpec((dc(), high_sine(), low_sine(2.0, 4.0)))),
        ("train_5", WaveformSpec((low_sine(5.0, 8.0),))),
        ("train_6", WaveformSpec((trapezoid(), low_sine(1.5, 3.0)))),
        ("test_1", WaveformSpec((dc(0.8, 1.8), low_sine(2.0, 3.5),
                                 low_sine(1.0, 2.0)))),
    ]


def generate_suite(seed: int, params: CircuitParams | None = None,
                   dt: float = 1e-8, n_samples: int = 2000) -> Suite:
    """Deterministic simulation suite: six training sets, one test set.

    All waveform parameters are drawn from the seeded generator, so the
    same seed reproduces every series bit for bit.
    """
    params = params or SUITE_PARAMS
    rng = Xoshiro256(seed)
    train, test = [], None
    for name, waveform in _suite_waveforms(rng):
        role = "train" if name.startswith("train") else "test"
        data = simulate(params, waveform, dt, n_samples)
        entry = SuiteEntry(name, role, waveform, data)
        if role == "train":
            train.append(entry)
        else:
            test = entry
    return Suite(tuple(train), test, params, seed, dt, n_samples)
