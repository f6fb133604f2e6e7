import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import eegcnn.experiments
import eegcnn.preprocess
from eegcnn.data import TrainingDivergedError, split_dataset
from eegcnn.experiments import (PSD_BLOCK, GroupPsd, group_psd, normalize_metric, run_sweep,
                                sweep_configs)
from eegcnn.model import ModelConfig
from eegcnn.preprocess import blas_threads, welch_psd_batch
from eegcnn.synth import synthetic_dataset, synthetic_subject
from eegcnn.train import TrainConfig

from conftest import make_epoch, needs_fork, needs_openblas


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

    def test_undefined_values_stay_undefined(self):
        # a None used to count as 0.0: the worst value, or 1.0 when all were None
        assert normalize_metric([0.25, None, 1.25, 0.75]) == [0.0, None, 1.0, 0.5]
        assert normalize_metric([None, 0.7]) == [None, 1.0]
        assert normalize_metric([None, None]) == [None, None]

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

    def test_one_class_test_partition_leaves_normalized_auc_empty(self, tmp_path):
        split = tiny_split()
        control = replace(split, test=[ep for ep in split.test if ep.label == 0])
        report = run_sweep(control, TINY_TRAIN, tiny_sweep("kernel_size", (3, 5)))
        assert [r.auc for r in report.reports.values()] == [None, None]
        assert report.normalized["auc"] == [None, None]
        report.to_csv(tmp_path / "ablation.csv")
        header, *rows = (tmp_path / "ablation.csv").read_text().splitlines()
        column = header.split(",").index("normalized_auc")
        assert [row.split(",")[column] for row in rows] == ["", ""]

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_recorded_without_abort(self):
        split = tiny_split(channels=4)
        # every point diverges; each TrainingDivergedError is recorded and the sweep goes on
        configs = sweep_configs(ModelConfig(4, 4, 5), "out_channels", (2, 4))
        report = run_sweep(split, TrainConfig(epochs=1, learning_rate=1e300), configs)
        assert set(report.errors) == {2, 4}
        assert all(err.startswith("TrainingDivergedError: ") for err in report.errors.values())
        assert not report.reports

    def test_bare_error_ends_the_sweep(self, monkeypatch):
        # only an EegcnnError is a failed point; anything else is a bug or out of memory
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(eegcnn.experiments, "train", boom)
        before = blas_threads()
        with pytest.raises(ValueError, match="^boom$"):
            run_sweep(tiny_split(), TINY_TRAIN, tiny_sweep("kernel_size", (3, 5)))
        assert blas_threads() == before

    def test_epoch_layout_does_not_change_bytes(self):
        # an epoch of an F-ordered recording is an F-ordered view, along whose
        # 8 contiguous channels numpy would sum pairwise
        from eegcnn.data import epoch_recording

        rng = np.random.default_rng(5)
        eps = []
        for label, tone in ((0, 10.0), (1, 20.0)):
            rec = synthetic_subject(f"S{label}", label, tone, rng, channels=8, fs=100.0, n_epochs=3)
            eps += epoch_recording(replace(rec, samples=np.asfortranarray(rec.samples)))
        got = group_psd(eps, fs=100.0)
        want = group_psd([replace(ep, data=ep.data.copy()) for ep in eps], fs=100.0)
        for lb in (0, 1):
            assert got.mean[lb].tobytes() == want.mean[lb].tobytes()
            assert got.sem[lb].tobytes() == want.sem[lb].tobytes()

    def test_csv_export(self, tmp_path):
        split = tiny_split()
        report = run_sweep(split, TINY_TRAIN, tiny_sweep("kernel_size", (3, 5)))
        path = tmp_path / "ablation.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("value,precision,recall,f1,auc,accuracy,normalized_")
        assert len(lines) == 3


class TestSweepWorkers:
    """From SWEEP_POOL_MIN_WORK up, a sweep's points train in forked workers,
    largest first; every point runs on one BLAS thread either way, so the
    report is the same."""

    @needs_fork
    @needs_openblas
    def test_pooled_sweep_equals_in_process(self, cpus, monkeypatch):
        split, configs = tiny_split(), tiny_sweep("kernel_size", (3, 7, 5, 1))
        real = eegcnn.experiments.train

        def train(data, train_config, model_config):  # kernel 5 fails as a diverging point does
            if model_config.kernel == 5:
                raise TrainingDivergedError("planted at kernel 5")
            return real(data, train_config, model_config)

        monkeypatch.setattr(eegcnn.experiments, "train", train)
        monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", 0)
        before = blas_threads()
        pools = cpus(2)
        pooled = run_sweep(split, TINY_TRAIN, configs)
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert blas_threads() == before
        cpus(1)
        alone = run_sweep(split, TINY_TRAIN, configs)
        assert pools == [2]  # no second pool
        assert list(pooled.reports) == list(alone.reports) == [3, 7, 1]  # sweep order
        assert pooled.reports == alone.reports and pooled.normalized == alone.normalized
        assert pooled.errors == alone.errors == {5: "TrainingDivergedError: planted at kernel 5"}

    @needs_openblas
    @pytest.mark.parametrize("n_cpus", [pytest.param(2, marks=needs_fork), 1],
                             ids=["pooled", "in-process"])
    def test_points_train_on_one_blas_thread(self, cpus, monkeypatch, n_cpus):
        """Each point reads the thread count it trains on into its error."""
        def train(*args):
            raise TrainingDivergedError(f"{blas_threads()} BLAS threads")

        monkeypatch.setattr(eegcnn.experiments, "train", train)
        monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", 0)
        pools = cpus(n_cpus)
        report = run_sweep(tiny_split(), TINY_TRAIN, tiny_sweep("kernel_size", (3, 5)))
        assert pools == ([2] if n_cpus == 2 else [])
        assert report.errors == dict.fromkeys((3, 5), "TrainingDivergedError: 1 BLAS threads")

    @pytest.mark.parametrize("n_cpus, min_work, openblas", [
        (2, None, True), (1, 0, True), (2, 0, False),
    ], ids=["below-break-even", "one-cpu", "no-openblas"])
    def test_runs_in_process(self, cpus, monkeypatch, n_cpus, min_work, openblas):
        if min_work is not None:
            monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", min_work)
        if not openblas:
            monkeypatch.setattr(eegcnn.preprocess, "_openblas", lambda: None)
        pools = cpus(n_cpus)
        report = run_sweep(tiny_split(), TINY_TRAIN, tiny_sweep("kernel_size", (3, 5)))
        assert pools == []
        assert multiprocessing.active_children() == []
        assert list(report.reports) == [3, 5]

    @needs_fork
    @needs_openblas
    def test_bare_error_in_a_worker_ends_the_sweep(self, cpus, monkeypatch):
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(eegcnn.experiments, "train", boom)
        monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", 0)
        pools = cpus(2)
        before = blas_threads()
        with pytest.raises(ValueError, match="^boom$"):
            run_sweep(tiny_split(), TINY_TRAIN, tiny_sweep("kernel_size", (3, 5)))
        assert pools == [2]
        assert blas_threads() == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("min_work, want_pools", [
        pytest.param(0, [2], marks=[needs_fork, needs_openblas]), (None, [])],
        ids=["pooled", "in-process"])
    def test_first_bare_error_in_size_order_ends_the_sweep(self, cpus, monkeypatch, min_work,
                                                           want_pools):
        """Kernel 11's model is the larger, so its point starts first and its
        error is raised, pooled or not."""
        def train(data, train_config, model_config):
            raise RuntimeError(f"kernel {model_config.kernel}")

        monkeypatch.setattr(eegcnn.experiments, "train", train)
        if min_work is not None:
            monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", min_work)
        pools = cpus(2)
        with pytest.raises(RuntimeError, match="^kernel 11$"):
            run_sweep(tiny_split(), TINY_TRAIN, tiny_sweep("kernel_size", (3, 11)))
        assert pools == want_pools
        assert multiprocessing.active_children() == []

    @needs_fork
    @needs_openblas
    def test_callers_count_kept_when_numpy_loads_first(self):
        """Imported after numpy, eegcnn's one-thread default does not apply
        (OpenBLAS starts a thread per CPU), and the sweep's scope must not
        change that count for good."""
        code = (
            "import numpy\n"
            "import eegcnn.experiments as ex\n"
            "from eegcnn.preprocess import blas_threads\n"
            "from test_experiments import TINY_TRAIN, tiny_split, tiny_sweep\n"
            "ex.SWEEP_POOL_MIN_WORK = 0\n"
            "before = blas_threads()\n"
            "report = ex.run_sweep(tiny_split(), TINY_TRAIN, tiny_sweep('kernel_size', (3, 5)))\n"
            "print(before, blas_threads(), list(report.reports))\n"
        )
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split(maxsplit=2)
        assert out[0] == out[1] and out[2].strip() == "[3, 5]"


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

    def test_epoch_layout_does_not_change_bytes(self):
        # an epoch of an F-ordered recording is an F-ordered view, along whose
        # 8 contiguous channels numpy would sum pairwise
        from eegcnn.data import epoch_recording

        rng = np.random.default_rng(5)
        eps = []
        for label, tone in ((0, 10.0), (1, 20.0)):
            rec = synthetic_subject(f"S{label}", label, tone, rng, channels=8, fs=100.0, n_epochs=3)
            eps += epoch_recording(replace(rec, samples=np.asfortranarray(rec.samples)))
        got = group_psd(eps, fs=100.0)
        want = group_psd([replace(ep, data=ep.data.copy()) for ep in eps], fs=100.0)
        for lb in (0, 1):
            assert got.mean[lb].tobytes() == want.mean[lb].tobytes()
            assert got.sem[lb].tobytes() == want.sem[lb].tobytes()

    def test_blocks_give_the_bytes_of_one_batch(self):
        # each label spans two full PSD_BLOCKs and a ragged third; the oracle
        # runs Welch on all of a label's channel means at once
        eps = [make_epoch(3, 200, label=i % 2, seed=i) for i in range(2 * (2 * PSD_BLOCK + 3))]
        got = group_psd(iter(eps), fs=50.0)
        for lb in (0, 1):
            freqs, power = welch_psd_batch(
                np.stack([ep.data.mean(axis=0) for ep in eps if ep.label == lb]), 50.0)
            assert got.freqs.tobytes() == freqs.tobytes()
            assert got.mean[lb].tobytes() == power.mean(axis=0).tobytes()
            sem = power.std(axis=0, ddof=1) / np.sqrt(power.shape[0])
            assert got.sem[lb].tobytes() == sem.tobytes()

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
