"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The real-data check only runs when EEGCNN_DATA_MANIFEST points at a
dataset manifest.
"""

import itertools
import os
import time

import numpy as np
import pytest

from eegcnn.checkpoint import save_checkpoint
from eegcnn.data import Epoch, split_dataset
from eegcnn.interpret import ProbeSpec, conv_filter_response, fir_power_response, pooling_sensitivity
from eegcnn.metrics import evaluate, roc_auc
from eegcnn.model import ModelConfig, forward, init_params, param_count
from eegcnn.preprocess import design_highpass
from eegcnn.synth import synthetic_dataset
from eegcnn.train import TrainConfig, train

from conftest import finite_diff_check, gain_db, make_params
from test_metrics import pair_counting_auc


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def report_classifier(name, rep, min_accuracy, min_auc, elapsed, max_seconds):
    """Check a test-set report against its thresholds. A test partition of
    one class leaves AUC undefined (None), and fails as such."""
    if rep.auc is None:
        report(name, False, f"(the test partition holds one class, so AUC is undefined; "
                            f"accuracy {rep.accuracy:.3f}, {rep.n_epochs} epochs)")
    report(
        name,
        rep.accuracy >= min_accuracy and rep.auc >= min_auc and elapsed < max_seconds,
        f"(accuracy {rep.accuracy:.3f}, AUC {rep.auc:.3f}, {elapsed:.0f}s)",
    )


class TestAcceptance:
    def test_architecture_conformance(self):
        t0 = time.time()
        params = init_params(0)  # default config: 59 in/out, kernel 11, 2 classes
        counts = param_count(params)
        x = np.random.default_rng(0).standard_normal((59, 2500))
        cache = forward(params, x, mode="eval")
        ok = (
            counts == {"conv": 38350, "fc": 120}
            and cache.grad_mask.shape == (59, 2500)
            and cache.pooled.shape == (59,)
            and cache.probs.shape == (2,)
        )
        elapsed = time.time() - t0
        report(
            "architecture-conformance",
            ok and elapsed < 1.0,
            f"(counts={counts}, shapes ok, {elapsed:.2f}s)",
        )

    def test_gradient_correctness(self):
        t0 = time.time()
        worst = 0.0
        rng = np.random.default_rng(2024)
        for i in range(20):
            in_c = int(rng.integers(1, 5))
            out_c = int(rng.integers(1, 5))
            kernel = int(rng.choice([3, 5]))
            t = int(rng.integers(4, 17))
            params = init_params(i, ModelConfig(in_c, out_c, kernel))
            ep = Epoch(
                data=rng.standard_normal((in_c, t)),
                label=int(rng.integers(0, 2)),
                subject_id=f"G{i}",
                epoch_index=0,
            )
            worst = max(worst, finite_diff_check(params, ep, eps=1e-5))
        elapsed = time.time() - t0
        report(
            "gradient-correctness",
            worst < 1e-6 and elapsed < 30.0,
            f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
        )

    def test_synthetic_end_to_end(self):
        t0 = time.time()
        subjects = synthetic_dataset(
            n_subjects=20, channels=8, fs=500.0, n_epochs=12,
            f0=10.0, f1=25.0, snr_db=0.0, seed=7,
        )
        split = split_dataset(subjects, seed=7)
        history = train(split, TrainConfig(), ModelConfig(8, 8, 51))
        rep = evaluate(history.best_checkpoint, split.test)
        elapsed = time.time() - t0
        report_classifier("synthetic-end-to-end", rep, 0.95, 0.98, elapsed, 300.0)

    def test_probe_oracle(self):
        t0 = time.time()
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(10):
            kernel = rng.standard_normal(11)
            model = make_params(
                conv_weight=kernel[None, None, :],
                conv_bias=np.zeros(1),
                fc_weight=np.ones((2, 1)),
                fc_bias=np.zeros(2),
            )
            spec = ProbeSpec(fs=500.0, epoch_len=2500, channels=1,
                             repeats_noise=300, seed=int(rng.integers(1e6)))
            resp = conv_filter_response(model, spec)
            band = (resp.freqs >= 1.0) & (resp.freqs <= 249.0)
            analytic = fir_power_response(kernel, resp.freqs[band], 500.0) * (2.0 / 500.0)
            est = resp.power[0][band]
            rel_rms = np.sqrt(np.mean((est - analytic) ** 2)) / np.sqrt(np.mean(analytic**2))
            worst = max(worst, rel_rms)
        elapsed = time.time() - t0
        report(
            "probe-oracle",
            worst < 0.10 and elapsed < 120.0,
            f"(worst rel RMS {worst:.3f}, {elapsed:.0f}s)",
        )

    def test_pooling_sensitivity_analytic(self):
        t0 = time.time()
        channels, kernel = 8, 11
        w = np.zeros((channels, channels, kernel))
        for c in range(channels):
            w[c, c, kernel // 2] = 1.0
        model = make_params(
            conv_weight=w,
            conv_bias=np.zeros(channels),
            fc_weight=np.ones((2, channels)),
            fc_bias=np.zeros(2),
        )
        spec = ProbeSpec(
            fs=500.0, epoch_len=2500, channels=channels,
            frequencies=np.arange(5.0, 246.0, 5.0), repeats_sine=12, seed=0,
        )
        smap = pooling_sensitivity(model, spec)
        dev = np.max(np.abs(smap.activation - 1 / np.pi))
        elapsed = time.time() - t0
        report(
            "pooling-sensitivity-analytic",
            dev <= 0.02 and elapsed < 60.0,
            f"(max |activation - 1/pi| = {dev:.4f}, {elapsed:.0f}s)",
        )

    def test_auc_oracle_exhaustive(self):
        t0 = time.time()
        rng = np.random.default_rng(5)
        ok = True
        for n in range(2, 13):
            scores = rng.integers(0, 5, size=n) / 5.0  # small alphabet forces ties
            for labels in itertools.product([0, 1], repeat=n):
                if len(set(labels)) < 2:
                    continue
                got = roc_auc(list(scores), list(labels))
                want = pair_counting_auc(scores, labels)
                if abs(got - want) > 1e-12:
                    ok = False
                    break
            if not ok:
                break
        elapsed = time.time() - t0
        report("auc-oracle", ok and elapsed < 60.0, f"({elapsed:.0f}s)")

    def test_filter_conformance(self):
        sos = design_highpass(1.0, 4, 500.0)
        dc = gain_db(sos, 0.0, 500.0, zero_phase=True)
        at10 = gain_db(sos, 10.0, 500.0, zero_phase=True)
        report(
            "filter-conformance",
            dc < -40.0 and abs(at10) <= 0.5,
            f"(DC {dc:.1f} dB, 10 Hz {at10:.4f} dB)",
        )

    def test_determinism(self, tmp_path):
        subjects = synthetic_dataset(
            n_subjects=20, channels=8, fs=100.0, n_epochs=12,
            f0=10.0, f1=25.0, snr_db=0.0, seed=7,
        )
        split = split_dataset(subjects, seed=7)
        paths = []
        histories = []
        for run in ("a", "b"):
            history = train(split, TrainConfig(), ModelConfig(8, 8, 11))
            p = tmp_path / f"ckpt_{run}.bin"
            save_checkpoint(p, history.best_checkpoint, seed=0)
            h = tmp_path / f"hist_{run}.json"
            history.save(h)
            paths.append(p)
            histories.append(h)
        ok = (
            paths[0].read_bytes() == paths[1].read_bytes()
            and histories[0].read_bytes() == histories[1].read_bytes()
        )
        report("determinism", ok)

    @pytest.mark.skipif(
        "EEGCNN_DATA_MANIFEST" not in os.environ,
        reason="real dataset not available; set EEGCNN_DATA_MANIFEST to run",
    )
    def test_real_data_replication(self, tmp_path):
        from eegcnn.data import load_manifest
        from eegcnn.preprocess import load_filtered

        t0 = time.time()
        manifest = load_manifest(os.environ["EEGCNN_DATA_MANIFEST"])
        split = split_dataset(load_filtered(manifest, 1.0, 4), seed=0)
        history = train(split, TrainConfig(), ModelConfig())
        rep = evaluate(history.best_checkpoint, split.test)
        elapsed = time.time() - t0
        report_classifier("real-data-replication", rep, 0.90, 0.95, elapsed, 1800.0)
