"""Circuit simulator tests: physics invariants, integrator order, waveforms."""

import math
import warnings

import numpy as np
import pytest

from tracefill.circuit import (
    FEATURES,
    SUITE_PARAMS,
    CircuitParams,
    Dc,
    SimulationError,
    Sine,
    Trapezoid,
    WaveformSpec,
    capacitance,
    generate_suite,
    kcl_residual,
    simulate,
    term_to_dict,
)

FAST = CircuitParams(r1=1.0, l=1e-6, c0=2e-8, v0=5.0, rload=10.0)


def point_source(term, t: float) -> float:
    """One term at one time, as a plain float, the way a per-point loop samples it."""
    if isinstance(term, Dc):
        return term.level
    if isinstance(term, Sine):
        return term.amplitude * math.sin(2.0 * math.pi * term.frequency * t + term.phase)
    tau = t % term.period
    if tau < term.rise:
        return term.low + (term.high - term.low) * tau / term.rise
    tau -= term.rise
    if tau < term.high_time:
        return term.high
    tau -= term.high_time
    if tau < term.fall:
        return term.high - (term.high - term.low) * tau / term.fall
    return term.low


def point_by_point(params, spec, dt, n_samples, t0=0.0):
    """``simulate``'s rows from a loop that samples the source at each point."""

    def source(t):
        return float(sum(point_source(term, t) for term in spec.terms))

    def derivatives(u1, i1, u2):
        return ((u1 - params.r1 * i1 - u2) / params.l,
                (i1 - u2 / params.rload) / capacitance(u2, params))

    rows = np.empty((n_samples, 4))
    i1, u2 = 0.0, 0.0
    for k in range(n_samples):
        t = t0 + k * dt
        u1 = source(t)
        rows[k] = (u1, i1, u2, u2 / params.rload)
        if k == n_samples - 1:
            break
        try:
            k1i, k1u = derivatives(u1, i1, u2)
            u1_mid = source(t + 0.5 * dt)
            k2i, k2u = derivatives(u1_mid, i1 + 0.5 * dt * k1i, u2 + 0.5 * dt * k1u)
            k3i, k3u = derivatives(u1_mid, i1 + 0.5 * dt * k2i, u2 + 0.5 * dt * k2u)
            k4i, k4u = derivatives(source(t + dt), i1 + dt * k3i, u2 + dt * k3u)
        except (OverflowError, ZeroDivisionError) as exc:
            raise SimulationError(
                f"state diverged during step {k} (t={t:g}): {exc}") from exc
        i1 += dt * (k1i + 2.0 * k2i + 2.0 * k3i + k4i) / 6.0
        u2 += dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        if not (np.isfinite(i1) and np.isfinite(u2)):
            raise SimulationError(f"non-finite state after step {k} (t={t + dt:g})")
    return rows


class TestComponents:
    def test_capacitance_shrinks_with_bias(self):
        params = CircuitParams()
        assert capacitance(0.0, params) == params.c0
        # at u = v0 the denominator is exactly 2
        assert capacitance(params.v0, params) == params.c0 / 2.0
        assert capacitance(-params.v0, params) == params.c0 / 2.0

    def test_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitParams(r1=-1.0)
        with pytest.raises(ValueError):
            CircuitParams(l=0.0)


class TestWaveforms:
    def test_dc_is_constant(self):
        assert Dc(3.5)(0.0) == 3.5
        assert Dc(3.5)(1e-3) == 3.5

    def test_sine_amplitude_and_period(self):
        term = Sine(amplitude=2.0, frequency=1e3, phase=0.0)
        assert term(0.0) == 0.0
        np.testing.assert_allclose(term(0.25e-3), 2.0, rtol=1e-12)
        np.testing.assert_allclose(term(1e-3), 0.0, atol=1e-11)

    def test_trapezoid_plateau_levels(self):
        term = Trapezoid(
            low=-1.0, high=2.0, rise=0.1, high_time=0.3, fall=0.1, period=1.0
        )
        assert term(0.05) == pytest.approx(0.5)  # mid-rise
        assert term(0.2) == 2.0  # on the plateau
        assert term(0.9) == -1.0  # back at the base level
        assert term(1.2) == 2.0  # periodic repeat

    def test_trapezoid_segments_must_fit_period(self):
        with pytest.raises(ValueError):
            Trapezoid(low=0.0, high=1.0, rise=0.5, high_time=0.5, fall=0.5, period=1.0)

    def test_arrays_give_the_bits_of_point_calls(self):
        # every kind of term, sampled on an array and point by point, at
        # times on and off the trapezoid's corners; zero-length segments
        # select no division by zero
        terms = [Dc(-1.25), Sine(2.5, 3.1e5, 0.9),
                 Trapezoid(-2.0, 3.0, 4e-7, 1.2e-6, 5e-7, 3e-6),
                 Trapezoid(-1.0, 1.0, 0.0, 1e-6, 0.0, 2e-6)]
        t = 7.3e-8 + np.arange(2000) * 1e-8
        t = np.concatenate([t, [0.0, 4e-7, 1.6e-6, 2.1e-6, 3e-6]])
        for term in terms:
            got = term(t)
            assert got.shape == t.shape
            np.testing.assert_array_equal(got, [point_source(term, x) for x in t.tolist()])
        spec = WaveformSpec(tuple(terms))
        np.testing.assert_array_equal(spec(t), [spec(x) for x in t.tolist()])
        assert type(spec(1e-7)) is float

    def test_waveform_sums_terms(self):
        spec = WaveformSpec((Dc(1.0), Sine(2.0, 1e3, 0.0)))
        np.testing.assert_allclose(spec(0.25e-3), 3.0, rtol=1e-12)

    def test_term_serialization_round_trip(self):
        # the manifest's waveform entries, one per term kind
        assert term_to_dict(Dc(2.5)) == {"kind": "dc", "level": 2.5}
        assert term_to_dict(Sine(1.5, 3e5, 0.7)) == {
            "kind": "sine", "amplitude": 1.5, "frequency": 3e5, "phase": 0.7,
        }
        assert term_to_dict(Trapezoid(-2.0, 3.0, 1e-7, 2e-7, 1e-7, 1e-6)) == {
            "kind": "trapezoid", "low": -2.0, "high": 3.0, "rise": 1e-7,
            "high_time": 2e-7, "fall": 1e-7, "period": 1e-6,
        }


class TestSimulation:
    def test_feature_order(self):
        assert FEATURES == ("u1", "i1", "u2", "i2")

    def test_dc_steady_state_matches_voltage_divider(self):
        # long after transients, i1 = u / (r1 + rload) and u2 = u * rload / (r1 + rload)
        params = FAST
        level = 5.0
        data = simulate(params, WaveformSpec((Dc(level),)), 1e-8, 4000)
        i1_inf = level / (params.r1 + params.rload)
        u2_inf = level * params.rload / (params.r1 + params.rload)
        tail = data.values[-200:]
        np.testing.assert_allclose(tail[:, 1], i1_inf, rtol=1e-3)
        np.testing.assert_allclose(tail[:, 2], u2_inf, rtol=1e-3)

    def test_load_current_is_ohms_law(self):
        data = simulate(FAST, WaveformSpec((Sine(3.0, 3e5, 0.0),)), 1e-8, 500)
        np.testing.assert_array_equal(
            data.column("i2"), data.column("u2") / FAST.rload
        )

    def test_kcl_residual_is_machine_small(self):
        data = simulate(FAST, WaveformSpec((Sine(3.0, 3e5, 0.2), Dc(1.0))), 1e-8, 1000)
        residual = kcl_residual(data, FAST)
        assert np.max(np.abs(residual)) < 1e-6 * np.max(np.abs(data.column("i1")))

    def test_rk4_order_under_step_halving(self):
        # global error should fall ~16x per halving for a smooth source
        params = FAST
        spec = WaveformSpec((Sine(3.0, 2e5, 0.3), Dc(1.0)))
        t_end = 4e-6

        def final_state(dt):
            n = int(round(t_end / dt)) + 1
            data = simulate(params, spec, dt, n)
            return data.values[-1, :3]

        reference = final_state(1.25e-9)
        err_coarse = np.abs(final_state(2e-8) - reference).max()
        err_fine = np.abs(final_state(1e-8) - reference).max()
        ratio = err_coarse / err_fine
        assert 12.0 <= ratio <= 20.0, f"convergence ratio {ratio:.2f}"

    def test_nonlinearity_produces_harmonics(self):
        # a pure sine through the voltage-dependent capacitor acquires
        # energy away from the driving frequency
        from tracefill.metrics import amplitude_spectrum

        freq = 2.5e5
        data = simulate(FAST, WaveformSpec((Sine(4.0, freq, 0.0),)), 1e-8, 2000)
        freqs, mags = amplitude_spectrum(data.column("u2"), 1e-8)
        fundamental = np.argmin(np.abs(freqs - freq))
        others = mags.copy()
        window = 3
        others[max(0, fundamental - window) : fundamental + window + 1] = 0.0
        others[0] = 0.0
        assert others.max() > 0.01 * mags[fundamental]

    def test_timestep_warning_for_coarse_grids(self):
        # just above the warning threshold but still inside the stable
        # region, so the run completes while warning about accuracy
        params = FAST
        coarse = math.sqrt(params.l * params.c0)
        with pytest.warns(UserWarning):
            simulate(params, WaveformSpec((Dc(1.0),)), coarse, 16)

    def test_divergence_raises_simulation_error(self):
        # an absurdly large step makes RK4 blow up to non-finite values,
        # after the coarse-grid warning
        params = CircuitParams(r1=1.0, l=1e-9, c0=1e-9, v0=5.0, rload=10.0)
        with pytest.warns(UserWarning, match="coarse"), pytest.raises(SimulationError):
            simulate(params, WaveformSpec((Dc(100.0),)), 1e-3, 200)

    @pytest.mark.parametrize("t0", [0.0, 3.7e-7])
    def test_bit_identical_to_sampling_point_by_point(self, t0):
        spec = WaveformSpec((Dc(0.7), Sine(3.0, 3e5, 0.4),
                             Trapezoid(-2.0, 4.0, 4e-7, 1.2e-6, 5e-7, 3e-6)))
        data = simulate(FAST, spec, 1e-8, 3000, t0)
        assert data.t0 == t0
        np.testing.assert_array_equal(data.values, point_by_point(FAST, spec, 1e-8, 3000, t0))
        for entry in generate_suite(seed=7, n_samples=500).entries:
            np.testing.assert_array_equal(
                simulate(SUITE_PARAMS, entry.waveform, 1e-8, 500, t0).values,
                point_by_point(SUITE_PARAMS, entry.waveform, 1e-8, 500, t0))

    @pytest.mark.parametrize("params,spec,dt", [
        (CircuitParams(r1=1.0, l=1e-9, c0=1e-9, v0=5.0, rload=10.0),
         WaveformSpec((Dc(1.0),)), 3e-8),
        (CircuitParams(), WaveformSpec((Dc(math.nan),)), 1e-9),
    ], ids=["overflow", "non-finite state"])
    def test_divergence_messages_match_sampling_point_by_point(self, params, spec, dt):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the coarse-grid warning
            with pytest.raises(SimulationError) as want:
                point_by_point(params, spec, dt, 50, 2e-9)
            with pytest.raises(SimulationError) as got:
                simulate(params, spec, dt, 50, 2e-9)
        assert str(got.value) == str(want.value)

    def test_initial_state_is_zero(self):
        data = simulate(FAST, WaveformSpec((Dc(2.0),)), 1e-8, 10)
        np.testing.assert_array_equal(data.values[0, 1:3], [0.0, 0.0])
        assert data.values[0, 0] == 2.0  # source applies from t = 0


class TestSuite:
    def test_generate_suite_is_deterministic(self):
        a = generate_suite(seed=7)
        b = generate_suite(seed=7)
        assert [e.name for e in a.entries] == [e.name for e in b.entries]
        for ea, eb in zip(a.entries, b.entries):
            np.testing.assert_array_equal(ea.data.values, eb.data.values)

    def test_suite_shape(self):
        suite = generate_suite(seed=7, n_samples=400)
        assert len(suite.train) == 6
        assert suite.test.role == "test"
        assert all(e.role == "train" for e in suite.train)
        for entry in suite.entries:
            assert entry.data.values.shape == (400, 4)
            assert entry.data.feature_names == FEATURES

    def test_different_seeds_give_different_waveforms(self):
        a = generate_suite(seed=7, n_samples=64)
        b = generate_suite(seed=8, n_samples=64)
        assert not np.array_equal(a.test.data.values, b.test.data.values)

    def test_kcl_holds_on_every_suite_entry(self):
        suite = generate_suite(seed=7, n_samples=500)
        for entry in suite.entries:
            residual = kcl_residual(entry.data, suite.params)
            bound = 1e-6 * np.max(np.abs(entry.data.column("i1")))
            assert np.max(np.abs(residual)) < bound, entry.name

    def test_test_set_is_inside_training_envelope(self):
        suite = generate_suite(seed=7)
        train_values = np.stack([e.data.values for e in suite.train])
        lo = train_values.min(axis=(0, 1))
        hi = train_values.max(axis=(0, 1))
        assert (suite.test.data.values.min(axis=0) >= lo).all()
        assert (suite.test.data.values.max(axis=0) <= hi).all()
