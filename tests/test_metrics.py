"""Error metrics and spectrum tests.

The spectrum oracle is a direct O(T^2) DFT sum, checked itself against
numpy's FFT at small sizes; Parseval's identity is checked as a property.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tracefill.metrics import amplitude_spectrum, rmse_report

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
SIZES = [1, 2, 3, 8, 17, 64]


def direct_dft(x):
    """X_k = sum_t x_t e^{-2 pi i k t / T}, evaluated term by term."""
    T = x.size
    angle = -2.0 * np.pi / T * np.outer(np.arange(T), np.arange(T))
    return (np.cos(angle) @ x) + 1j * (np.sin(angle) @ x)


def direct_amplitudes(x):
    """One-sided amplitudes from the direct sum, one bin at a time."""
    T = x.size
    mags = np.abs(direct_dft(x)[: T // 2 + 1]) / T
    for k in range(1, T // 2 + 1):
        if not (T % 2 == 0 and k == T // 2):
            mags[k] *= 2.0
    return mags


class TestDFT:
    @pytest.mark.parametrize("T", SIZES)
    def test_matches_numpy_fft(self, T):
        # the oracle itself agrees with numpy's full complex FFT
        rng = np.random.default_rng(T)
        x = rng.normal(0, 1, T)
        np.testing.assert_allclose(direct_dft(x), np.fft.fft(x), rtol=1e-9, atol=1e-9)

    @given(arrays(np.float64, st.integers(2, 32), elements=finite))
    @settings(max_examples=30, deadline=None)
    def test_parseval_identity(self, x):
        # an interior bin stands for two mirrored coefficients of modulus
        # T*A/2 and adds T*A^2/2; DC and Nyquist are unpaired and add T*A^2
        T = x.size
        _, mags = amplitude_spectrum(x, 1.0)
        paired = np.ones(mags.size, dtype=bool)
        paired[0] = False
        if T % 2 == 0:
            paired[-1] = False
        freq_energy = T * ((mags[~paired] ** 2).sum() + (mags[paired] ** 2).sum() / 2)
        assert (x * x).sum() == pytest.approx(freq_energy, rel=1e-9, abs=1e-9)

    def test_constant_signal_concentrates_at_dc(self):
        _, mags = amplitude_spectrum(np.full(16, 2.5), 1e-3)
        assert mags[0] == pytest.approx(2.5)
        np.testing.assert_allclose(mags[1:], 0.0, atol=1e-12)


class TestAmplitudeSpectrum:
    def test_pure_sine_on_bin(self):
        T, dt, k, amp = 64, 1e-3, 5, 2.0
        t = np.arange(T) * dt
        freq = k / (T * dt)
        x = amp * np.sin(2 * np.pi * freq * t)
        freqs, mags = amplitude_spectrum(x, dt)
        assert freqs[k] == pytest.approx(freq)
        assert mags[k] == pytest.approx(amp, rel=1e-9)
        others = mags.copy()
        others[k] = 0.0
        np.testing.assert_allclose(others, 0.0, atol=1e-9)

    def test_dc_offset_reads_directly(self):
        x = np.full(32, 1.5)
        _, mags = amplitude_spectrum(x, 1e-3)
        assert mags[0] == pytest.approx(1.5)

    def test_nyquist_bin_for_even_length(self):
        # alternating signal sits exactly at the Nyquist frequency
        x = 3.0 * np.array([1.0, -1.0] * 8)
        freqs, mags = amplitude_spectrum(x, 0.5)
        assert freqs[-1] == pytest.approx(1.0)  # 1/(2*dt)
        assert mags[-1] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("T", SIZES)
    def test_matches_direct_dft(self, T):
        x = np.random.default_rng(100 + T).normal(0.3, 1.0, T)
        _, mags = amplitude_spectrum(x, 1e-8)
        np.testing.assert_allclose(mags, direct_amplitudes(x), rtol=0, atol=1e-9)

    def test_frequency_axis(self):
        _, dt, T = None, 2e-3, 10
        freqs, mags = amplitude_spectrum(np.zeros(T), dt)
        assert len(freqs) == len(mags) == T // 2 + 1
        np.testing.assert_allclose(freqs, np.arange(6) / (T * dt))


class TestRMSE:
    def test_report_values(self):
        ref = np.array([0.0, 2.0, 4.0])
        cand = np.array([1.0, 2.0, 3.0])
        report = rmse_report("x", ref, cand)
        assert report.mse == pytest.approx(2.0 / 3.0)
        assert report.rmse == pytest.approx(np.sqrt(2.0 / 3.0))
        assert report.rel_rmse == pytest.approx(np.sqrt(2.0 / 3.0) / ref.std())

    def test_perfect_match_is_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        report = rmse_report("x", x, x.copy())
        assert report.mse == report.rmse == report.rel_rmse == 0.0

    def test_constant_reference_with_error_is_infinite(self):
        report = rmse_report("x", np.ones(4), np.zeros(4))
        assert np.isinf(report.rel_rmse)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse_report("x", np.zeros(3), np.zeros(4))
