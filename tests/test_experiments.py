from dataclasses import replace

import numpy as np
import pytest

from eegcnn.data import split_dataset
from eegcnn.experiments import GroupPsd, group_psd, normalize_metric, run_sweep, sweep_configs
from eegcnn.model import ModelConfig
from eegcnn.synth import synthetic_dataset, synthetic_subject
from eegcnn.train import TrainConfig


def tiny_split(channels=4, fs=100.0, seed=3):
    subs = synthetic_dataset(
        n_subjects=12, channels=channels, fs=fs, n_epochs=8,
        f0=3.0, f1=25.0, snr_db=20.0, seed=seed,
    )
    return split_dataset(subs, seed=seed)


TINY_TRAIN = TrainConfig(epochs=3, learning_rate=3e-3, seed=0)


def tiny_sweep(parameter, values, channels=4):
    return sweep_configs(ModelConfig(channels, channels, 7), parameter, values)


class TestSweepConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel must be odd"):
            tiny_sweep("kernel_size", (4,))

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError, match="all model dimensions must be positive"):
            tiny_sweep("out_channels", (2, 0))

    def test_kernel_one_accepted(self):
        assert tiny_sweep("kernel_size", (1,))[1].kernel == 1

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            tiny_sweep("out_channels", ())

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter 'learning_rate'"):
            tiny_sweep("learning_rate", (1,))

    def test_sweep_order_kept(self):
        configs = tiny_sweep("out_channels", (6, 2, 4, 2))
        assert list(configs) == [6, 2, 4]
        assert [c.out_channels for c in configs.values()] == [6, 2, 4]

    def test_sweep_isolation(self):
        # two sweep points differ only in the swept field
        configs = tiny_sweep("kernel_size", (5, 7))
        a, b = configs[5], configs[7]
        assert a.kernel == 5 and b.kernel == 7
        assert (a.in_channels, a.out_channels) == (b.in_channels, b.out_channels)


class TestNormalizeMetric:
    def test_min_max_scaling(self):
        out = normalize_metric(np.array([0.2, 0.6, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_constant_maps_to_one(self):
        np.testing.assert_array_equal(normalize_metric(np.array([0.7, 0.7])), [1.0, 1.0])

    def test_idempotent(self, rng):
        x = rng.random(6)
        once = normalize_metric(x)
        np.testing.assert_allclose(normalize_metric(once), once)


class TestRunSweep:
    def test_single_value_normalized_to_one(self):
        split = tiny_split()
        report = run_sweep(split, TINY_TRAIN, tiny_sweep("kernel_size", (5,)))
        for m, arr in report.normalized.items():
            np.testing.assert_array_equal(arr, [1.0])

    def test_channel_sweep_stable_on_separable_data(self):
        split = tiny_split()
        train_config = replace(TINY_TRAIN, epochs=60)
        report = run_sweep(split, train_config, tiny_sweep("out_channels", (2, 4, 6)))
        accs = [report.reports[v].accuracy for v in (2, 4, 6)]
        assert max(accs) - min(accs) < 0.05

    def test_reproducible_with_fixed_seed(self):
        split = tiny_split()
        configs = tiny_sweep("kernel_size", (3, 5))
        a = run_sweep(split, TINY_TRAIN, configs)
        b = run_sweep(split, TINY_TRAIN, configs)
        for v in (3, 5):
            assert a.reports[v] == b.reports[v]

    def test_failure_recorded_without_abort(self):
        split = tiny_split(channels=4)
        # out_channels=1 trains fine; a kernel wider than practical still works,
        # so force failure via an in_channels mismatch in the base config
        configs = sweep_configs(ModelConfig(5, 4, 5), "out_channels", (2, 4))
        report = run_sweep(split, TrainConfig(epochs=1), configs)  # data has 4 channels
        assert set(report.errors) == {2, 4}
        assert not report.reports

    def test_csv_export(self, tmp_path):
        split = tiny_split()
        report = run_sweep(split, TINY_TRAIN, tiny_sweep("kernel_size", (3, 5)))
        path = tmp_path / "ablation.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("value,precision,recall,f1,auc,accuracy,normalized_")
        assert len(lines) == 3


class TestGroupPsd:
    def test_identical_groups(self):
        rng = np.random.default_rng(0)
        base = synthetic_subject("A", 0, 10.0, rng, channels=3, fs=100.0, n_epochs=3)
        from eegcnn.data import epoch_recording

        eps0 = epoch_recording(base)
        eps1 = [replace(e, label=1) for e in eps0]
        gp = group_psd(eps0 + eps1, fs=100.0)
        np.testing.assert_allclose(gp.mean[0], gp.mean[1])
        np.testing.assert_allclose(gp.sem[0], gp.sem[1])

    def test_peak_separation(self):
        rng = np.random.default_rng(1)
        a = synthetic_subject("A", 0, 10.0, rng, channels=3, fs=500.0, n_epochs=3, snr_db=20.0)
        b = synthetic_subject("B", 1, 25.0, rng, channels=3, fs=500.0, n_epochs=3, snr_db=20.0)
        from eegcnn.data import epoch_recording

        gp = group_psd(epoch_recording(a) + epoch_recording(b), fs=500.0)
        assert gp.freqs[np.argmax(gp.mean[0])] == pytest.approx(10.0)
        assert gp.freqs[np.argmax(gp.mean[1])] == pytest.approx(25.0)

    def test_sem_scales_inverse_sqrt_n(self):
        rng = np.random.default_rng(2)
        from eegcnn.data import epoch_recording

        def sem_for(n_epochs):
            a = synthetic_subject("A", 0, 10.0, rng, channels=2, fs=100.0, n_epochs=n_epochs)
            b = synthetic_subject("B", 1, 20.0, rng, channels=2, fs=100.0, n_epochs=n_epochs)
            gp = group_psd(epoch_recording(a) + epoch_recording(b), fs=100.0)
            return gp.sem[0].mean()

        small, large = sem_for(8), sem_for(32)
        # quadrupling n should halve the SEM, up to Monte-Carlo noise
        assert small / large == pytest.approx(2.0, rel=0.5)

    def test_single_group_rejected(self):
        rng = np.random.default_rng(3)
        from eegcnn.data import epoch_recording

        a = synthetic_subject("A", 0, 10.0, rng, channels=2, fs=100.0, n_epochs=2)
        with pytest.raises(ValueError, match="both"):
            group_psd(epoch_recording(a), fs=100.0)

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(4)
        from eegcnn.data import epoch_recording

        a = synthetic_subject("A", 0, 10.0, rng, channels=2, fs=100.0, n_epochs=2)
        b = synthetic_subject("B", 1, 20.0, rng, channels=2, fs=100.0, n_epochs=2)
        gp = group_psd(epoch_recording(a) + epoch_recording(b), fs=100.0)
        path = tmp_path / "gp.csv"
        gp.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq,mean_0,sem_0,mean_1,sem_1"
        assert len(lines) == gp.freqs.size + 1
        cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        expected = np.stack([gp.freqs, gp.mean[0], gp.sem[0], gp.mean[1], gp.sem[1]], axis=1)
        assert cells.tobytes() == expected.tobytes()
