import numpy as np
import pytest
from scipy import signal as sps

from eegcnn.preprocess import (
    FilterCoeffs,
    apply_zero_phase,
    design_highpass,
    gain_db,
    welch_psd,
)

FS = 500.0


class TestDesignHighpass:
    def test_minus_3db_at_cutoff(self):
        coeffs = design_highpass(1.0, 4, FS)
        assert gain_db(coeffs, 1.0) == pytest.approx(-3.0103, abs=0.1)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            design_highpass(250.0, 4, FS)

    def test_non_positive_order_rejected(self):
        with pytest.raises(ValueError):
            design_highpass(1.0, 0, FS)

    def test_dc_killed(self):
        coeffs = design_highpass(1.0, 4, FS)
        x = np.ones(10000)
        y = sps.lfilter(coeffs.b, coeffs.a, x)
        assert abs(y[-1]) < 1e-6

    def test_stability_invariant(self):
        # impulse response tail must have decayed to numerical zero by 10 s
        coeffs = design_highpass(1.0, 4, FS)
        impulse = np.zeros(int(12 * FS))
        impulse[0] = 1.0
        h = sps.lfilter(coeffs.b, coeffs.a, impulse)
        assert np.all(np.abs(h[int(10 * FS):]) < 1e-12)

    def test_unstable_coeffs_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            FilterCoeffs(b=np.array([1.0]), a=np.array([1.0, -1.5]),
                         cutoff_hz=1.0, order=1, fs=FS)


class TestApplyZeroPhase:
    def setup_method(self):
        self.coeffs = design_highpass(1.0, 4, FS)

    def test_constant_rejected(self):
        c = 7.5
        out = apply_zero_phase(self.coeffs, np.full(5000, c))
        interior = out[500:-500]
        assert np.max(np.abs(interior)) < 1e-6 * abs(c)

    def test_passband_sinusoid_amplitude_and_phase(self):
        # oracle: analytic single-pass |H(10 Hz)| for a 4th-order 1 Hz Butterworth
        # high-pass is 1/sqrt(1 + (1/10)^8); squared for forward-backward
        t = np.arange(10000) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = apply_zero_phase(self.coeffs, x)
        interior = slice(2500, -2500)  # outside the 1 Hz filter's edge transient
        amp = np.max(np.abs(y[interior]))
        expected = (1.0 / np.sqrt(1.0 + (1.0 / 10.0) ** 8)) ** 2
        assert amp == pytest.approx(expected, rel=0.01)
        assert amp == pytest.approx(1.0, rel=0.01)
        # zero-phase property: cross-correlation peak at zero lag
        lags = range(-20, 21)
        corr = [np.dot(x[4000:6000], y[4000 + l : 6000 + l]) for l in lags]
        assert lags[int(np.argmax(corr))] == 0

    def test_linearity(self, rng):
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        lhs = apply_zero_phase(self.coeffs, 2.5 * x - 1.25 * y)
        rhs = 2.5 * apply_zero_phase(self.coeffs, x) - 1.25 * apply_zero_phase(self.coeffs, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            apply_zero_phase(self.coeffs, np.ones(10))

    def test_length_preserved(self, rng):
        x = rng.standard_normal(777)
        assert apply_zero_phase(self.coeffs, x).shape == x.shape


class TestWelchPsd:
    def test_sinusoid_peak_at_bin(self):
        t = np.arange(2500) / FS
        x = np.sin(2 * np.pi * 20.0 * t)
        est = welch_psd(x, FS)
        assert est.freqs[np.argmax(est.power)] == pytest.approx(20.0)

    def test_white_noise_flat(self, rng):
        # Monte-Carlo flatness: 300 realizations averaged
        x = rng.standard_normal((300, 2500))
        from eegcnn.preprocess import welch_psd_batch

        freqs, power = welch_psd_batch(x, FS)
        mean_power = power.mean(axis=0)
        band = (freqs >= 1.0) & (freqs <= 240.0)
        ratio = mean_power[band].max() / mean_power[band].min()
        assert ratio < 1.5

    def test_zero_signal(self):
        est = welch_psd(np.zeros(2500), FS)
        assert np.all(est.power == 0.0)

    def test_parseval_sanity(self, rng):
        x = rng.standard_normal(50000)
        est = welch_psd(x, FS)
        df = est.freqs[1] - est.freqs[0]
        total = np.sum(est.power) * df
        assert total == pytest.approx(np.var(x), rel=0.1)

    def test_phase_shift_invariance(self):
        t = np.arange(2500) / FS
        f = 20.0  # whole-bin frequency for a 1 s window
        a = welch_psd(np.sin(2 * np.pi * f * t), FS)
        b = welch_psd(np.sin(2 * np.pi * f * t + 1.234), FS)
        np.testing.assert_allclose(a.power, b.power, atol=1e-9)

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(ValueError, match="window"):
            welch_psd(np.zeros(100), FS, window_len=500)

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            welch_psd(np.zeros(1000), FS, overlap=1.0)

    def test_csv_export(self, tmp_path, rng):
        est = welch_psd(rng.standard_normal(2500), FS)
        path = tmp_path / "psd.csv"
        est.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq,power"
        assert len(lines) == est.freqs.size + 1
        cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert cells.tobytes() == np.stack([est.freqs, est.power], axis=1).tobytes()
