import multiprocessing
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    fir_power_response,
    gen_sinusoid_probe,
    make_params,
    needs_fork,
    needs_openblas,
    reference_filter_response,
    reference_pooling_sensitivity,
    sampled_filter_response,
)
from eegcnn.data import ConfigError
from eegcnn.interpret import (POOL_MIN_WORK, ProbeSpec, conv_filter_response,
                              pooling_sensitivity, relu_arc_sums)
from eegcnn.model import MAX_FLOATS
from eegcnn.preprocess import _openblas, welch_segments

FS = 500.0


def single_filter_model(kernel, bias=0.0):
    """One input channel, one conv output channel holding the given FIR kernel."""
    kernel = np.asarray(kernel, dtype=np.float64)
    return make_params(
        conv_weight=kernel[None, None, :],
        conv_bias=np.array([bias]),
        fc_weight=np.ones((2, 1)),
        fc_bias=np.zeros(2),
    )


def identity_model(channels, kernel=3):
    w = np.zeros((channels, channels, kernel))
    for c in range(channels):
        w[c, c, (kernel - 1) // 2] = 1.0
    return make_params(
        conv_weight=w,
        conv_bias=np.zeros(channels),
        fc_weight=np.ones((2, channels)),
        fc_bias=np.zeros(2),
    )


def small_spec(**overrides):
    defaults = dict(fs=FS, epoch_len=2500, repeats_sine=2, seed=3)
    defaults.update(overrides)
    return ProbeSpec(**defaults)


class TestProbeSpec:
    def test_default_grid_covers_zero_to_nyquist(self):
        spec = ProbeSpec()
        grid = spec.freq_grid
        assert grid[0] == 0.0 and grid[-1] == 250.0 and grid.size == 251

    def test_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            ProbeSpec(fs=500.0, frequencies=np.array([260.0]))

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            ProbeSpec(repeats_sine=0)

    def test_too_long_epoch_rejected(self):
        ProbeSpec(epoch_len=MAX_FLOATS // 4)
        with pytest.raises(ValueError, match=f"^epoch_len {MAX_FLOATS // 4 + 1} is too long"):
            ProbeSpec(epoch_len=MAX_FLOATS // 4 + 1)

    def test_removed_settings_accepted_and_ignored(self):
        """bench/run.py still passes channels and repeats_noise; they are
        init-only arguments that change nothing and are not fields."""
        spec = ProbeSpec(fs=100.0, epoch_len=500, repeats_sine=2, seed=4)
        assert ProbeSpec(fs=100.0, epoch_len=500, channels=59, repeats_sine=2,
                         repeats_noise=3, seed=4) == spec
        assert {"channels", "repeats_noise"}.isdisjoint(f.name for f in fields(ProbeSpec))

    @pytest.mark.parametrize("fs", [0.0, -100.0, float("nan"), float("inf")])
    def test_bad_fs_rejected(self, fs):
        with pytest.raises(ValueError, match="fs must be a finite positive number"):
            ProbeSpec(fs=fs)

    def test_empty_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch_len must be >= 1"):
            ProbeSpec(epoch_len=0)

    def test_empty_frequencies_rejected(self):
        with pytest.raises(ValueError, match="no probe frequencies"):
            ProbeSpec(frequencies=np.array([]))

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_negative_frequency_rejected(self, bad):
        with pytest.raises(ValueError, match="must be >= 0"):
            ProbeSpec(frequencies=np.array([10.0, bad]))


class TestGenSinusoidProbe:
    def test_zero_frequency_constant_channels(self, rng):
        spec = small_spec()
        probe = gen_sinusoid_probe(0.0, spec, rng, 4)
        assert probe.shape == (4, 2500)
        for ch in probe:
            np.testing.assert_allclose(ch, ch[0], atol=1e-12)
            assert -1.0 <= ch[0] <= 1.0

    def test_amplitude_and_mean(self, rng):
        probe = gen_sinusoid_probe(5.0, small_spec(), rng, 4)
        assert np.max(np.abs(probe)) == pytest.approx(1.0, abs=0.01)
        assert np.all(np.abs(probe.mean(axis=1)) < 0.01)

    def test_channels_are_time_shifted_copies(self, rng):
        # same frequency, random phases: normalized cross-correlation peak ~ 1
        probe = gen_sinusoid_probe(10.0, small_spec(), rng, 4)
        a, b = probe[0], probe[1]
        lags = np.arange(-60, 61)
        corr = [
            np.dot(a[100:-100], np.roll(b, lag)[100:-100]) for lag in lags
        ]
        peak = np.max(np.abs(corr)) / (np.linalg.norm(a[100:-100]) * np.linalg.norm(b[100:-100]))
        assert peak == pytest.approx(1.0, abs=0.02)

    def test_above_nyquist_rejected(self, rng):
        with pytest.raises(ValueError):
            gen_sinusoid_probe(300.0, small_spec(), rng, 4)


def test_one_phase_draw_equals_sequential_draws():
    """pooling_sensitivity draws every frequency's R phase vectors in one call;
    the per-repeat oracle draws them one repeat at a time."""
    for freqs, repeats, channels in [(1, 1, 1), (3, 5, 3), (4, 100, 59)]:
        at_once = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi,
                                                   size=(freqs, repeats, channels))
        gen = np.random.default_rng(7)
        one_by_one = [[gen.uniform(0.0, 2.0 * np.pi, size=channels) for _ in range(repeats)]
                      for _ in range(freqs)]
        np.testing.assert_array_equal(at_once, np.array(one_by_one))


class TestReluArcSums:
    # p, q, b rows: M = 0 with b > 0, b = 0 and b < 0; b = M and b = -M exactly
    # (M = 5); arcs centred on pi, just below it and just above -pi, which wrap
    # past +-pi; an arc narrower than one sample step
    EDGE_ROWS = np.array([
        [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0],
        [3.0, 4.0, 5.0], [-3.0, 4.0, -5.0], [3.0, -4.0, 5.0], [-4.0, -3.0, -5.0],
        [0.0, -1.0, 0.2], [np.sin(np.pi - 0.1), np.cos(np.pi - 0.1), 0.5],
        [np.sin(0.1 - np.pi), np.cos(0.1 - np.pi), 0.5], [0.0, 2.0, -1.9999],
    ])

    @pytest.mark.parametrize("omega", [0.0, np.pi, 0.3, 2.0 * np.pi * 57.0 / FS, 2.9])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 600])
    def test_matches_direct_sum(self, omega, n):
        """omega = 0 and omega = pi repeat their angles; n = 0 is an empty interior."""
        gen = np.random.default_rng(n)
        rows = np.vstack([self.EDGE_ROWS, gen.standard_normal((200, 3)) * [1.0, 1.0, 0.7]])
        p, q, b = rows.T
        angle = omega * np.arange(5, 5 + n)
        want = np.maximum(p[:, None] * np.sin(angle) + q[:, None] * np.cos(angle)
                          + b[:, None], 0.0).sum(axis=1)
        got = relu_arc_sums(p, q, b, angle)
        assert got.shape == want.shape
        scale = (np.abs(p) + np.abs(q) + np.abs(b)) * max(n, 1)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


class TestPoolingSensitivity:
    @given(
        in_c=st.integers(1, 4),
        out_c=st.integers(1, 4),
        kernel=st.sampled_from([1, 3, 5, 7, 9, 15]),
        t=st.integers(1, 40),  # includes epochs no longer than 2 * pad
        fs=st.floats(1.0, 1000.0),
        amplitude=st.floats(0.1, 10.0),
        # fractions of Nyquist, so 0 Hz and fs/2 come up often
        nyquist_fractions=st.lists(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3,
        ),
        bias_sign=st.sampled_from([-1.0, 1.0]),
        repeats=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    # the paper and acceptance shapes, and more than 1000 (R * out) rows
    @example(in_c=59, out_c=59, kernel=11, t=600, fs=FS, amplitude=1.0,
             nyquist_fractions=[0.0, 0.0548, 0.4, 1.0], bias_sign=1.0, repeats=20, seed=11)
    @example(in_c=59, out_c=59, kernel=11, t=2500, fs=FS, amplitude=1.0,
             nyquist_fractions=[0.0, 0.0548, 0.4, 1.0], bias_sign=1.0, repeats=2, seed=5)
    @example(in_c=8, out_c=8, kernel=51, t=600, fs=FS, amplitude=1.0,
             nyquist_fractions=[0.0, 0.0548, 0.4, 1.0], bias_sign=-1.0, repeats=9, seed=5)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_repeat_forward(self, in_c, out_c, kernel, t, fs, amplitude,
                                        nyquist_fractions, bias_sign, repeats, seed):
        gen = np.random.default_rng(seed)
        model = make_params(
            conv_weight=gen.standard_normal((out_c, in_c, kernel)),
            conv_bias=bias_sign * gen.uniform(0.0, 2.0, size=out_c),
            fc_weight=np.ones((2, out_c)),
            fc_bias=np.zeros(2),
        )
        spec = ProbeSpec(fs=fs, epoch_len=t, amplitude=amplitude,
                         frequencies=np.array(nyquist_fractions) * (fs / 2),
                         repeats_sine=repeats, seed=seed)
        got = pooling_sensitivity(model, spec).activation
        want = reference_pooling_sensitivity(model, spec)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_identity_kernel_rectified_mean(self):
        model = identity_model(channels=3)
        spec = small_spec(frequencies=np.arange(5.0, 246.0, 20.0))
        smap = pooling_sensitivity(model, spec)
        np.testing.assert_allclose(smap.activation, 1 / np.pi, atol=0.02)

    def test_bias_only_model(self):
        channels = 2
        model = make_params(
            conv_weight=np.zeros((channels, channels, 3)),
            conv_bias=np.array([0.6, 0.25]),
            fc_weight=np.ones((2, channels)),
            fc_bias=np.zeros(2),
        )
        spec = small_spec(frequencies=np.array([0.0, 10.0, 100.0]))
        smap = pooling_sensitivity(model, spec)
        np.testing.assert_allclose(smap.activation[0], 0.6, atol=1e-12)
        np.testing.assert_allclose(smap.activation[1], 0.25, atol=1e-12)

    def test_bandpass_kernel_peaks_at_its_frequency(self):
        # windowed 20 Hz tone as the kernel: narrow band-pass around 20 Hz
        k = 251
        n = np.arange(k)
        kernel = np.sin(2 * np.pi * 20.0 * n / FS) * np.hanning(k)
        model = single_filter_model(kernel)
        freqs = np.arange(1.0, 61.0)
        spec = small_spec(frequencies=freqs, repeats_sine=3)
        smap = pooling_sensitivity(model, spec)
        peak = freqs[np.argmax(smap.activation[0])]
        assert abs(peak - 20.0) <= 2.0

    def test_zero_model_is_zero_everywhere(self):
        channels = 2
        model = make_params(
            conv_weight=np.zeros((channels, channels, 3)),
            conv_bias=np.zeros(channels),
            fc_weight=np.zeros((2, channels)),
            fc_bias=np.zeros(2),
        )
        spec = small_spec(frequencies=np.array([0.0, 25.0, 200.0]))
        smap = pooling_sensitivity(model, spec)
        assert np.all(smap.activation == 0.0)

    # the largest arrays per frequency hold 2 * repeats * max(in, out * K)
    # values; at 2**62 numpy raised its unnamed "array is too big"
    # (the [n_freqs, repeats * out] arrays of 51 frequencies are larger still)
    @pytest.mark.parametrize("in_c, out_c, kernel", [(2, 2, 3), (9, 1, 1)])
    def test_repeats_beyond_one_array_rejected(self, in_c, out_c, kernel):
        params = make_params(conv_weight=np.ones((out_c, in_c, kernel)),
                             conv_bias=np.zeros(out_c), fc_weight=np.ones((2, out_c)),
                             fc_bias=np.zeros(2))
        repeats = MAX_FLOATS // (2 * max(in_c, out_c * kernel)) + 1
        spec = small_spec(fs=100.0, epoch_len=500, repeats_sine=repeats)
        with pytest.raises(ConfigError, match=f"^repeats_sine {repeats} is too large for a "
                                              f"checkpoint of in_channels {in_c}, out_channels "
                                              f"{out_c} and kernel {kernel}"):
            pooling_sensitivity(params, spec)

    def test_repeats_beyond_the_stored_sweep_rejected(self):
        """A 1x1x1 checkpoint at 500 001 frequencies: the per-frequency arrays
        fit, but the phases and totals of the whole sweep do not. The
        sweep used to reach numpy's bare "array is too big"."""
        model = single_filter_model([1.0])
        repeats = 2**42
        spec = small_spec(fs=1e6, epoch_len=10**6, repeats_sine=repeats)
        assert 2 * repeats <= MAX_FLOATS < 500_001 * repeats
        with pytest.raises(ConfigError, match=f"^repeats_sine {repeats} is too large for a "
                                              f"checkpoint of in_channels 1, out_channels 1 "
                                              f"and kernel 1 with 500001 probe frequencies "
                                              f"\\(fs 1e\\+06\\)"):
            pooling_sensitivity(model, spec)

    def test_repeats_beyond_the_stored_phases_rejected(self):
        """2**20 input channels and one output: the per-frequency arrays and
        the totals fit, but the phases of 51 frequencies, [51, R, 2**20],
        do not."""
        in_c, repeats = 2**20, 2**38
        model = make_params(conv_weight=np.ones((1, in_c, 1)), conv_bias=np.zeros(1),
                            fc_weight=np.ones((2, 1)), fc_bias=np.zeros(2))
        spec = small_spec(fs=100.0, epoch_len=500, repeats_sine=repeats)
        assert repeats * 2 * in_c <= MAX_FLOATS < 51 * repeats * in_c
        with pytest.raises(ConfigError, match=f"^repeats_sine {repeats} is too large for a "
                                              f"checkpoint of in_channels {in_c}, out_channels "
                                              f"1 and kernel 1 with 51 probe frequencies"):
            pooling_sensitivity(model, spec)

    def test_deterministic_given_seed(self):
        model = identity_model(channels=2)
        spec = small_spec(frequencies=np.array([10.0, 20.0]))
        a = pooling_sensitivity(model, spec)
        b = pooling_sensitivity(model, spec)
        np.testing.assert_array_equal(a.activation, b.activation)

    def test_csv_shape(self, tmp_path):
        model = identity_model(channels=2)
        spec = small_spec(frequencies=np.array([10.0, 20.0, 30.0]))
        smap = pooling_sensitivity(model, spec)
        path = tmp_path / "sens.csv"
        smap.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 pool outputs
        assert lines[0].split(",")[1:] == ["10", "20", "30"]


@st.composite
def noise_probe_cases(draw):
    """A small conv layer and a ProbeSpec whose 1 s Welch window fits the epoch."""
    in_c, out_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kernel = draw(st.sampled_from([1, 3, 5, 7, 9, 15]))
    t = draw(st.integers(1, 30))
    fs = draw(st.floats(0.51, t + 0.49))  # round(fs) in [1, t]
    gen = np.random.default_rng(draw(st.integers(0, 1000)))
    weight = gen.standard_normal((out_c, in_c, kernel)) * draw(st.sampled_from([0.0, 1.0]))
    model = make_params(weight, gen.standard_normal(out_c), np.ones((2, out_c)), np.zeros(2))
    return model, ProbeSpec(fs=fs, epoch_len=t)


class TestConvFilterResponse:
    @given(case=noise_probe_cases())
    # a kernel longer than the epoch, a one-sample epoch, non-integer rates
    @example(case=(make_params(np.arange(30.0).reshape(2, 1, 15) / 10, np.array([0.5, -1.0]),
                               np.ones((2, 2)), np.zeros(2)), ProbeSpec(fs=4.6, epoch_len=6)))
    @example(case=(make_params(np.full((1, 1, 1), 2.0), np.array([0.3]), np.ones((2, 1)),
                               np.zeros(2)), ProbeSpec(fs=1.0, epoch_len=1)))
    @example(case=(make_params(np.linspace(-1.0, 1.0, 36).reshape(2, 2, 9), np.zeros(2),
                               np.ones((2, 2)), np.zeros(2)), ProbeSpec(fs=7.3, epoch_len=30)))
    @settings(max_examples=100, deadline=None)
    def test_matches_impulse_sum(self, case):
        model, spec = case
        got = conv_filter_response(model, spec)
        freqs, want = reference_filter_response(model, spec)
        assert got.freqs.tobytes() == freqs.tobytes()
        assert got.power.shape == want.shape
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got.power - want) <= 1e-14 * scale)

    def test_zero_weights_give_the_bias_spectrum(self):
        bias = np.array([0.0, 0.5, -2.0])
        model = make_params(np.zeros((3, 2, 5)), bias, np.ones((2, 3)), np.zeros(2))
        resp = conv_filter_response(model, ProbeSpec(fs=7.3, epoch_len=30))
        _, win, _, _, _, weight = welch_segments(7.3, 30)
        window = np.abs(np.fft.rfft(win)) ** 2 * weight  # one-sided
        np.testing.assert_array_equal(resp.power, bias[:, None] ** 2 * window)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_mean_within_its_standard_error(self, seed):
        """The white-noise loop the closed form replaced estimates it without
        bias: its mean over 300 draws lies within a few standard errors."""
        gen = np.random.default_rng(seed)
        model = make_params(gen.standard_normal((2, 3, 9)), gen.standard_normal(2),
                            np.ones((2, 2)), np.zeros(2))
        spec = ProbeSpec(fs=50.0, epoch_len=250)
        exact = conv_filter_response(model, spec).power
        mean, stderr = sampled_filter_response(model, spec, repeats=300, seed=seed)
        z = (mean - exact) / stderr
        assert np.max(np.abs(z)) < 5.0
        assert abs(z.mean()) < 0.5

    def test_identity_kernel_flat(self):
        model = identity_model(channels=1, kernel=3)
        spec = small_spec()
        resp = conv_filter_response(model, spec)
        band = (resp.freqs >= 1.0) & (resp.freqs <= 240.0)
        power = resp.power[0][band]
        assert power.max() / power.min() < 1.5

    def test_moving_average_is_lowpass(self):
        kernel = np.ones(11) / 11.0
        model = single_filter_model(kernel)
        spec = small_spec()
        resp = conv_filter_response(model, spec)
        low = resp.power[0][(resp.freqs >= 0) & (resp.freqs <= 5)].mean()
        high = resp.power[0][resp.freqs >= 200].mean()
        assert 10 * np.log10(low / high) > 10.0

    def test_matches_analytic_transfer_function(self, rng):
        kernel = rng.standard_normal(11)
        model = single_filter_model(kernel)
        spec = small_spec()
        resp = conv_filter_response(model, spec)
        band = (resp.freqs >= 1.0) & (resp.freqs <= 249.0)
        analytic = fir_power_response(kernel, resp.freqs[band], FS) * (2.0 / FS)
        est = resp.power[0][band]
        rel_rms = np.sqrt(np.mean((est - analytic) ** 2)) / np.sqrt(np.mean(analytic**2))
        assert rel_rms < 0.10

    def test_multichannel_sums_responses(self, rng):
        # two input channels of independent noise: output PSD is the sum of
        # the per-input |H|^2, each scaled by the flat input density
        k1, k2 = rng.standard_normal(5), rng.standard_normal(5)
        w = np.stack([k1, k2])[None, :, :]  # one output channel
        model = make_params(
            conv_weight=w,
            conv_bias=np.zeros(1),
            fc_weight=np.ones((2, 1)),
            fc_bias=np.zeros(2),
        )
        spec = small_spec()
        resp = conv_filter_response(model, spec)
        band = (resp.freqs >= 1.0) & (resp.freqs <= 249.0)
        analytic = (
            fir_power_response(k1, resp.freqs[band], FS)
            + fir_power_response(k2, resp.freqs[band], FS)
        ) * (2.0 / FS)
        est = resp.power[0][band]
        rel_rms = np.sqrt(np.mean((est - analytic) ** 2)) / np.sqrt(np.mean(analytic**2))
        assert rel_rms < 0.10

    def test_one_sided_axis(self):
        model = identity_model(channels=1)
        spec = small_spec()
        resp = conv_filter_response(model, spec)
        assert resp.freqs[0] == 0.0 and resp.freqs[-1] == pytest.approx(FS / 2)

    @needs_openblas
    def test_bytes_do_not_depend_on_the_callers_blas_threads(self):
        """At kernel 51 and fs 500, 2 BLAS threads split the tap GEMMs
        differently: the response runs on 1 whatever the caller's count."""
        gen = np.random.default_rng(0)
        model = make_params(gen.standard_normal((8, 8, 51)), gen.standard_normal(8),
                            np.ones((2, 8)), np.zeros(2))
        one, two = at_one_and_two_blas_threads(
            lambda: conv_filter_response(model, small_spec()).power)
        assert one.tobytes() == two.tobytes()

    def test_csv_per_channel(self, tmp_path):
        model = identity_model(channels=2)
        spec = small_spec()
        resp = conv_filter_response(model, spec)
        paths = resp.to_csv_dir(tmp_path)
        assert len(paths) == 2
        assert all(p.exists() for p in paths)
        for ch, p in enumerate(paths):
            lines = p.read_text().splitlines()
            assert lines[0] == "freq,power"
            cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
            expected = np.stack([resp.freqs, resp.power[ch]], axis=1)
            assert cells.tobytes() == expected.tobytes()


def at_one_and_two_blas_threads(call):
    """call() with OpenBLAS on 1 thread, then on 2; each call must give the
    count it found back."""
    get, put = _openblas()
    before = get()
    try:
        put(1)
        one = call()
        assert get() == 1
        put(2)
        two = call()
        assert get() == 2
    finally:
        put(before)
    return one, two


def paper_case():
    """A random 59-channel, kernel-11 model and a 20-repeat sweep of the
    default grid, above the break-even size."""
    gen = np.random.default_rng(1)
    model = make_params(conv_weight=0.3 * gen.standard_normal((59, 59, 11)),
                        conv_bias=0.2 * gen.standard_normal(59),
                        fc_weight=np.ones((2, 59)), fc_bias=np.zeros(2))
    return model, ProbeSpec(repeats_sine=20, seed=1)


def pool_case(size):
    """A 4-channel, kernel-5 model with random weights and biases, and a
    51-frequency sweep whose arc sums hold about twice (``above``) or half
    (``below``) POOL_MIN_WORK elements."""
    gen = np.random.default_rng(0)
    model = make_params(conv_weight=gen.standard_normal((4, 4, 5)),
                        conv_bias=0.5 * gen.standard_normal(4),
                        fc_weight=np.ones((2, 4)), fc_bias=np.zeros(2))
    epoch_len = {"above": 2 * POOL_MIN_WORK, "below": POOL_MIN_WORK // 2}[size] // 51
    return model, ProbeSpec(fs=100.0, epoch_len=epoch_len, repeats_sine=1, seed=5)


class TestArcSumWorkers:
    """The tone sweep runs in forked workers, on one BLAS thread, above the
    break-even size; the map keeps every byte of the in-process one."""

    @needs_fork
    @needs_openblas
    def test_pooled_sweep_equals_in_process(self, cpus):
        model, spec = pool_case("above")
        pools = cpus(2)
        pooled = pooling_sensitivity(model, spec).activation
        assert pools == [2]
        assert multiprocessing.active_children() == []
        cpus(1)
        alone = pooling_sensitivity(model, spec).activation
        assert pools == [2]  # no second pool
        assert pooled.shape == alone.shape and pooled.tobytes() == alone.tobytes()
        want = reference_pooling_sensitivity(model, spec)
        assert np.max(np.abs(pooled - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n_cpus, size", [(2, "below"), (1, "above")],
                             ids=["below-break-even", "one-cpu"])
    def test_runs_in_process(self, cpus, n_cpus, size):
        model, spec = pool_case(size)
        pools = cpus(n_cpus)
        got = pooling_sensitivity(model, spec).activation
        assert pools == []
        assert multiprocessing.active_children() == []
        want = reference_pooling_sensitivity(model, spec)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @needs_openblas
    @pytest.mark.parametrize("n_cpus", [1, pytest.param(2, marks=needs_fork)],
                             ids=["in-process", "pooled"])
    def test_bytes_do_not_depend_on_the_callers_blas_threads(self, cpus, n_cpus):
        """At paper shape, 2 BLAS threads split the [2R, in] x [in, out * K]
        GEMM differently: the sweep runs on 1 whatever the caller's count,
        which it gives back."""
        model, spec = paper_case()
        cpus(n_cpus)
        one, two = at_one_and_two_blas_threads(lambda: pooling_sensitivity(model, spec).activation)
        assert one.tobytes() == two.tobytes()

    @needs_fork
    @needs_openblas
    def test_calling_process_holds_no_stored_sweep(self, cpus):
        """A pooled sweep holds the phases and the workers' totals, each
        [n_freqs, R * out] here (in = out), in the calling process: a peak of
        about 2.7 such arrays. Keeping each repeat's P, Q and edge sum there
        as well peaked at 5.4."""
        model, spec = paper_case()
        cpus(2)
        pooling_sensitivity(model, spec)  # numpy and the pool's first-use costs
        tracemalloc.start()
        try:
            pooling_sensitivity(model, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = spec.freq_grid.size * spec.repeats_sine * model.conv_weight.shape[0] * 8
        assert peak < 4 * stored
