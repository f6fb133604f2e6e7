import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import eegcnn.preprocess
from eegcnn.data import ConfigError, CsvFormatError, Manifest, ManifestEntry, write_subject_csv
from eegcnn.model import MAX_FLOATS
from eegcnn.preprocess import apply_zero_phase, design_highpass, load_filtered, welch_psd_batch

from conftest import gain_db, make_recording, reference_load_filtered

FS = 500.0


class TestDesignHighpass:
    def test_minus_3db_at_cutoff(self):
        sos = design_highpass(1.0, 4, FS)
        assert gain_db(sos, 1.0, FS) == pytest.approx(-3.0103, abs=0.1)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            design_highpass(250.0, 4, FS)

    def test_non_positive_order_rejected(self):
        with pytest.raises(ValueError):
            design_highpass(1.0, 0, FS)

    # at 7.9e-8 Hz and fs 100 Hz scipy divides 0 by 0 before the solve
    # fails; a numpy warning fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cutoff", [1e-300, 1e-10, 7.943282347242822e-8])
    def test_cutoff_too_low_for_initial_state_rejected(self, cutoff):
        with pytest.raises(ConfigError, match=f"cutoff_hz {cutoff} is too low for filter_order 4"):
            design_highpass(cutoff, 4, 100.0)

    # scipy overflowed 2**63 - 1 and 2**63 - 3 into the identity section
    # [[1, 0, 0, 1, 0, 0]], so the split was not filtered at all; at 2**62
    # numpy raised its unnamed "array is too big"
    @pytest.mark.parametrize("order", [2**63 - 1, 2**63 - 3, 2**62, MAX_FLOATS // 2 + 1])
    def test_order_beyond_one_array_rejected(self, order):
        with pytest.raises(ConfigError, match=f"^filter_order {order} is too high: its {order} "
                                              "complex poles hold more float64 values"):
            design_highpass(1.0, order, FS)

    def test_cutoff_that_scipy_normalizes_to_zero_rejected(self):
        # 2 * cutoff / fs underflows to 0, which scipy rejects with a bare ValueError
        with pytest.raises(ConfigError, match=r"^cutoff_hz 5e-324 is too low for filter_order "
                                              r"4 at fs 100.0 Hz: cutoff_hz / \(fs / 2\) "
                                              "rounds to 0$"):
            design_highpass(5e-324, 4, 100.0)

    def test_dc_killed(self):
        sos = design_highpass(1.0, 4, FS)
        x = np.ones(10000)
        y = sps.sosfilt(sos, x)
        assert abs(y[-1]) < 1e-6

    def test_stability_invariant(self):
        # impulse response tail must have decayed to numerical zero by 10 s
        sos = design_highpass(1.0, 4, FS)
        impulse = np.zeros(int(12 * FS))
        impulse[0] = 1.0
        h = sps.sosfilt(sos, impulse)
        assert np.all(np.abs(h[int(10 * FS):]) < 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(fs=st.floats(1.0, 10_000.0), fraction=st.floats(1e-4, 0.49),
           order=st.integers(1, 20))
    @example(fs=FS, fraction=1.0 / FS, order=7)
    @example(fs=FS, fraction=0.5 / FS, order=6)
    @example(fs=FS, fraction=1.0 / FS, order=8)
    def test_gain_matches_analytic_butterworth(self, fs, fraction, order):
        # oracle: the bilinear-transform Butterworth high-pass has
        # |H(w)| = 1 / sqrt(1 + (tan(wc / 2) / tan(w / 2))^(2n))
        cutoff = fraction * fs
        sos = design_highpass(cutoff, order, fs)
        # from cutoff / 8 up: much closer to DC, sosfreqz's own sum over the
        # zeros at z = 1 loses digits (relative error about eps / w^2)
        freqs = np.geomspace(cutoff / 8, 0.499 * fs, 200)
        _, h = sps.sosfreqz(sos, worN=freqs, fs=fs)
        ratio = np.tan(np.pi * cutoff / fs) / np.tan(np.pi * freqs / fs)
        with np.errstate(over="ignore"):
            want = 1.0 / np.sqrt(1.0 + ratio ** (2 * order))
        got = np.abs(h)
        seen = (got > 1e-6) | (want > 1e-6)
        np.testing.assert_allclose(got[seen], want[seen], rtol=1e-6)
        # each section's poles on their own: a (b, a) form of the whole filter
        # is what loses the accuracy at high orders and low cutoffs
        poles = np.concatenate([np.roots(section[3:]) for section in sos])
        assert np.all(np.abs(poles) < 1.0)


class TestApplyZeroPhase:
    def setup_method(self):
        self.sos = design_highpass(1.0, 4, FS)

    def test_constant_rejected(self):
        c = 7.5
        out = apply_zero_phase(self.sos, np.full(5000, c))
        interior = out[500:-500]
        assert np.max(np.abs(interior)) < 1e-6 * abs(c)

    def test_passband_sinusoid_amplitude_and_phase(self):
        # oracle: analytic single-pass |H(10 Hz)| for a 4th-order 1 Hz Butterworth
        # high-pass is 1/sqrt(1 + (1/10)^8); squared for forward-backward
        t = np.arange(10000) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = apply_zero_phase(self.sos, x)
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
        lhs = apply_zero_phase(self.sos, 2.5 * x - 1.25 * y)
        rhs = 2.5 * apply_zero_phase(self.sos, x) - 1.25 * apply_zero_phase(self.sos, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError, match="^signal length 10 too short for the edge "
                                              r"padding of filter_order 4 \(needs > 15\)$"):
            apply_zero_phase(self.sos, np.ones(10))

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 7])
    def test_edge_pad_is_three_times_order_plus_one(self, order):
        sos = design_highpass(1.0, order, FS)
        pad = 3 * (order + 1)
        with pytest.raises(ValueError, match=f"needs > {pad}"):
            apply_zero_phase(sos, np.ones(pad))
        assert apply_zero_phase(sos, np.ones(pad + 1)).shape == (pad + 1,)

    def test_length_preserved(self, rng):
        x = rng.standard_normal(777)
        assert apply_zero_phase(self.sos, x).shape == x.shape


class TestWelchPsd:
    def test_sinusoid_peak_at_bin(self):
        t = np.arange(2500) / FS
        x = np.sin(2 * np.pi * 20.0 * t)
        freqs, power = welch_psd_batch(x, FS)
        assert freqs[np.argmax(power)] == pytest.approx(20.0)

    def test_white_noise_flat(self, rng):
        # Monte-Carlo flatness: 300 realizations averaged
        x = rng.standard_normal((300, 2500))
        freqs, power = welch_psd_batch(x, FS)
        mean_power = power.mean(axis=0)
        band = (freqs >= 1.0) & (freqs <= 240.0)
        ratio = mean_power[band].max() / mean_power[band].min()
        assert ratio < 1.5

    def test_zero_signal(self):
        _, power = welch_psd_batch(np.zeros(2500), FS)
        assert np.all(power == 0.0)

    def test_parseval_sanity(self, rng):
        x = rng.standard_normal(50000)
        freqs, power = welch_psd_batch(x, FS)
        df = freqs[1] - freqs[0]
        total = np.sum(power) * df
        assert total == pytest.approx(np.var(x), rel=0.1)

    def test_phase_shift_invariance(self):
        t = np.arange(2500) / FS
        f = 20.0  # whole-bin frequency for a 1 s window
        _, a = welch_psd_batch(np.sin(2 * np.pi * f * t), FS)
        _, b = welch_psd_batch(np.sin(2 * np.pi * f * t + 1.234), FS)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(ValueError, match="window"):
            welch_psd_batch(np.zeros(int(FS) - 1), FS)

    @settings(max_examples=300, deadline=None)
    @given(fs=st.integers(1, 600).map(float) | st.floats(0.51, 600.0),
           lead=st.lists(st.integers(1, 3), max_size=2), stretch=st.floats(0.0, 1.0),
           fortran=st.booleans(), reverse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(fs=1.0, lead=[2], stretch=1.0, fortran=False, reverse=False, seed=0)  # n = 1
    @example(fs=FS, lead=[3, 2], stretch=0.3, fortran=True, reverse=False, seed=0)
    @example(fs=FS, lead=[3, 2], stretch=0.3, fortran=True, reverse=True, seed=0)
    def test_matches_scipy_welch(self, fs, lead, stretch, fortran, reverse, seed):
        # oracle: scipy's own Welch at the same settings. Bitwise equal with
        # scipy 1.17; a tolerance, since other versions may reorder the sums.
        n = round(fs)
        length = n + int(stretch * (5 * n + 7))  # n to 6n + 7 samples
        x = np.random.default_rng(seed).standard_normal((*lead, length))
        if fortran:
            x = np.asfortranarray(x)
        if reverse:  # negative strides on every axis
            x = x[(slice(None, None, -1),) * x.ndim]
        want_freqs, want = sps.welch(x, fs, window="hann", nperseg=n, noverlap=n // 2,
                                     detrend=False, scaling="density")
        freqs, power = welch_psd_batch(x, fs)
        if scipy.__version__.startswith("1.17."):
            assert freqs.tobytes() == want_freqs.tobytes()
            assert power.shape == want.shape and power.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(freqs, want_freqs, rtol=1e-14, atol=0)
            np.testing.assert_allclose(power, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("fs", [0.4, 0.5])  # round(0.5) is 0
    def test_zero_sample_window_rejected(self, fs):
        with pytest.raises(ValueError, match=f"fs {fs} Hz gives a 1 s Welch window of 0"):
            welch_psd_batch(np.zeros(10), fs)


def write_cohort(root, n_subjects, channels=3, n_samples=3000):
    """A manifest of ``n_subjects`` CSVs of noise written under ``root``."""
    names = [f"ch{i}" for i in range(channels)]
    entries = []
    for i in range(n_subjects):
        rec = make_recording(f"S{i:03d}", label=i % 2, fs=FS, channels=channels,
                             n_samples=n_samples, seed=i)
        path = root / f"{rec.subject_id}.csv"
        write_subject_csv(path, rec, names)
        entries.append(ManifestEntry(rec.subject_id, str(path), rec.label))
    return Manifest(entries=entries, fs=FS, channel_names=names)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs load_filtered sees; returns the worker count of
    each pool it starts."""
    pools = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            pools.append(max_workers)

    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return pools

    monkeypatch.setattr(eegcnn.preprocess, "ProcessPoolExecutor", Pool)
    return see


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes are forked")


class TestLoadFiltered:
    @needs_fork
    def test_pool_matches_serial_loop(self, tmp_path, cpus):
        pools = cpus(2)
        manifest = write_cohort(tmp_path, 5)  # more subjects than workers
        got = load_filtered(manifest, 1.0, 4)
        assert pools == [2]
        want = reference_load_filtered(manifest, 1.0, 4)
        assert [r.subject_id for r in got] == [e.subject_id for e in manifest.entries]
        for g, w in zip(got, want, strict=True):
            assert (g.subject_id, g.label, g.fs) == (w.subject_id, w.label, w.fs)
            assert g.samples.dtype == w.samples.dtype and g.samples.shape == w.samples.shape
            assert g.samples.tobytes() == w.samples.tobytes()

    def test_one_cpu_runs_in_process(self, tmp_path, cpus):
        pools = cpus(1)
        manifest = write_cohort(tmp_path, 3)
        got = load_filtered(manifest, 1.0, 4)
        assert pools == []
        for g, w in zip(got, reference_load_filtered(manifest, 1.0, 4), strict=True):
            assert g.samples.tobytes() == w.samples.tobytes()

    @needs_fork
    def test_first_bad_subject_in_manifest_order_raises(self, tmp_path, cpus):
        """S001 fails late (a bad cell in its last row sends the parse through
        the row-by-row scan), S003 fails at once (empty file); the error is
        S001's, as in the serial loop."""
        cpus(2)
        manifest = write_cohort(tmp_path, 4, n_samples=20000)
        with open(manifest.entries[1].file, "a") as fh:
            fh.write("1.0,x,2.0\n")
        open(manifest.entries[3].file, "w").close()
        with pytest.raises(CsvFormatError) as want:
            reference_load_filtered(manifest, 1.0, 4)
        with pytest.raises(CsvFormatError) as got:
            load_filtered(manifest, 1.0, 4)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{manifest.entries[1].file}: non-numeric cell 'x'")
        assert multiprocessing.active_children() == []
