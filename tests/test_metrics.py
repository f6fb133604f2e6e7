import importlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegcnn.checkpoint import save_checkpoint
from eegcnn.cli import main
from eegcnn.data import DatasetSplit, save_split as _write_split
from eegcnn.metrics import (
    ConfusionMatrix,
    confusion,
    evaluate,
    roc_auc,
    scalar_metrics,
)
from eegcnn.model import ModelConfig, init_params

from conftest import make_epoch, make_params, reference_scalar_metrics

metrics_module = importlib.import_module("eegcnn.metrics")
train_module = importlib.import_module("eegcnn.train")


def pair_counting_auc(scores, labels):
    """Brute-force Mann-Whitney oracle: concordant pairs, ties get half credit."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def trapezoid_auc(scores, labels):
    """The ROC points found threshold by threshold, integrated by np.trapezoid."""
    scores, labels = np.asarray(scores), np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    thresholds = np.unique(scores)[::-1]
    tpr = [0.0] + [np.sum(pos >= t) / pos.size for t in thresholds]
    fpr = [0.0] + [np.sum(neg >= t) / neg.size for t in thresholds]
    return float(np.trapezoid(tpr, fpr))


def oracle_cases(rng):
    """Every two-class labeling of tie-heavy score vectors of length 2 to 8."""
    for n in range(2, 9):
        scores = rng.integers(0, 4, size=n) / 4.0  # small alphabet forces ties
        for labels in itertools.product([0, 1], repeat=n):
            if len(set(labels)) == 2:
                yield list(scores), list(labels)


class TestConfusion:
    def test_perfect_predictions(self):
        cm = confusion([1, 1, 0, 0], [1, 1, 0, 0])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 0, 0)

    def test_all_positive_predictions(self):
        cm = confusion([1, 1, 1, 1], [1, 0, 1, 0])
        assert (cm.tp, cm.fp) == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([1], [1, 0])

    def test_total(self):
        assert confusion([1, 0, 1], [0, 0, 1]).total == 3

    @pytest.mark.parametrize("predictions, labels", [
        ([1, 2, 0], [1, 0, 0]), ([1, 0, 0], [1, 0, 2]), ([-1, 0], [0, 1]),
    ])
    def test_non_binary_rejected(self, predictions, labels):
        # a 3-class prediction used to drop out of every count
        with pytest.raises(ValueError, match="must be 0 or 1"):
            confusion(predictions, labels)


class TestScalarMetrics:
    def test_headline_f1(self):
        # precision 1.0 with recall 0.977 gives F1 ~ 0.988
        cm = ConfusionMatrix(tp=977, fp=0, tn=1000, fn=23)
        m = scalar_metrics(cm)
        assert m["precision"] == 1.0
        assert m["recall"] == pytest.approx(0.977)
        assert m["f1"] == pytest.approx(2 * 0.977 / 1.977, abs=1e-3)
        assert round(m["f1"], 2) == 0.99

    def test_degenerate_zero_positive_predictions(self):
        m = scalar_metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=5))
        assert m["precision"] == 0.0
        assert m["recall"] == 0.0
        assert m["accuracy"] == 0.5
        assert m["degenerate"]

    def test_direct_arithmetic(self):
        m = scalar_metrics(ConfusionMatrix(tp=3, fp=1, tn=4, fn=2))
        assert m["precision"] == pytest.approx(0.75)
        assert m["recall"] == pytest.approx(0.6)
        assert m["accuracy"] == pytest.approx(0.7)
        assert m["f1"] == pytest.approx(2 * 0.45 / 1.35)

    def test_all_metrics_bounded(self, rng):
        for _ in range(200):
            tp, fp, tn, fn = rng.integers(0, 20, size=4)
            if tp + fp + tn + fn == 0:
                continue
            m = scalar_metrics(ConfusionMatrix(int(tp), int(fp), int(tn), int(fn)))
            for key in ("precision", "recall", "f1", "accuracy"):
                assert 0.0 <= m[key] <= 1.0

    def test_same_bits_as_ratio_closure(self):
        # every matrix with counts 0-5 but the empty one: 1295 cases
        for counts in itertools.product(range(6), repeat=4):
            if any(counts):
                cm = ConfusionMatrix(*counts)
                # repr tells every float bit pattern apart, -0.0 included
                assert repr(scalar_metrics(cm)) == repr(reference_scalar_metrics(cm))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_three_quarters(self):
        scores, labels = [0.9, 0.3, 0.8, 0.2], [1, 1, 0, 0]
        assert roc_auc(scores, labels) == pytest.approx(0.75)
        assert pair_counting_auc(scores, labels) == 0.75

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        assert roc_auc([0.1, 0.9], [1, 1]) is None
        assert roc_auc([0.1, 0.9], [0, 0]) is None

    def test_exhaustive_small_instances(self, rng):
        # trapezoidal sweep vs pair counting (the n=12 exhaustive run lives in
        # the acceptance suite)
        for scores, labels in oracle_cases(rng):
            assert roc_auc(scores, labels) == pytest.approx(
                pair_counting_auc(scores, labels), abs=1e-12
            )

    @pytest.mark.skipif(not hasattr(np, "trapezoid"), reason="np.trapezoid needs numpy >= 2.0")
    def test_same_bits_as_numpy_trapezoid(self, rng):
        for scores, labels in oracle_cases(rng):
            assert roc_auc(scores, labels) == trapezoid_auc(scores, labels)

    @given(
        scores=st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=20),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_invariance(self, scores, seed):
        rng = np.random.default_rng(seed)
        labels = list(rng.integers(0, 2, size=len(scores)))
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        base = roc_auc(scores, labels)
        # power-of-two scaling is exact, so order and ties are both preserved
        scaled = [4.0 * s for s in scores]
        assert roc_auc(scaled, labels) == pytest.approx(base, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_infinite_scores_tie(self):
        # a logit margin past float64's range is +-inf; inf - inf is NaN, so
        # a difference would split two infinite scores into two thresholds
        assert roc_auc([np.inf, np.inf, 0.0, -np.inf], [1, 0, 0, 1]) == 0.375

    def test_label_flip_complement(self, rng):
        scores = list(rng.random(10))  # continuous, so no ties
        labels = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
        flipped = [1 - y for y in labels]
        assert roc_auc(scores, flipped) == pytest.approx(1 - roc_auc(scores, labels))


class TestEvaluate:
    def _zero_model(self, channels=2):
        return make_params(
            conv_weight=np.zeros((channels, channels, 3)),
            conv_bias=np.zeros(channels),
            fc_weight=np.zeros((2, channels)),
            fc_bias=np.zeros(2),
        )

    def test_zero_model_degenerate(self):
        epochs = [make_epoch(label=i % 2, seed=i) for i in range(8)]
        report = evaluate(self._zero_model(), epochs)
        # uniform probs: every argmax tie breaks to class 0
        assert report.accuracy == pytest.approx(0.5)
        assert report.auc == pytest.approx(0.5)  # all-ties rule

    def _fixed_logits(self, monkeypatch, logits):
        """Epochs labelled Control, Control, PD, ... for which both modules'
        ``predict`` returns ``logits``."""
        monkeypatch.setattr(metrics_module, "predict", lambda params, epochs: logits)
        monkeypatch.setattr(train_module, "predict", lambda params, epochs: logits)
        return [make_epoch(label=y, seed=i) for i, y in enumerate([0, 0, 1, 1][:len(logits)])]

    def test_same_class_rule_as_validation(self, monkeypatch):
        # the softmax of [0, 1e-17] rounds to a tie, which went to Control
        logits = np.array([[1e-17, 0.0], [0.0, 0.0], [0.0, 1e-17]])
        epochs = self._fixed_logits(monkeypatch, logits)
        params = self._zero_model()
        report = evaluate(params, epochs)
        labels = np.array([ep.label for ep in epochs])
        _, val_accuracy = train_module._eval_pass(train_module.predict(params, epochs), labels)
        assert report.accuracy == val_accuracy == 1.0
        assert report.confusion == ConfusionMatrix(tp=1, fp=0, tn=2, fn=0)

    def test_auc_ranks_by_the_logit_margin(self, monkeypatch):
        # every PD probability past a margin of about 37 rounds to 1.0, which
        # tied the Control margin 40 with the PD margins 45 and 50 (AUC 0.75)
        logits = np.array([[0.0, 1e-17], [0.0, 40.0], [0.0, 45.0], [0.0, 50.0]])
        assert evaluate(self._zero_model(), self._fixed_logits(monkeypatch, logits)).auc == 1.0

    def test_single_class_reports_without_auc(self):
        epochs = [make_epoch(label=0, seed=i) for i in range(4)]
        report = evaluate(self._zero_model(), epochs)
        assert report.auc is None
        assert report.degenerate
        assert report.accuracy == 1.0  # ties to class 0, all labels 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(self._zero_model(), [])

    def test_n_epochs_recorded(self):
        epochs = [make_epoch(label=i % 2, seed=i) for i in range(6)]
        assert evaluate(init_params(0, ModelConfig(2, 2, 3)), epochs).n_epochs == 6

    def test_csv_row_order(self, tmp_path, capsys):
        # `eegcnn evaluate` prints the data row of the metrics.csv it writes;
        # a test partition of one class leaves the AUC cell empty
        params = init_params(0, ModelConfig(2, 2, 3))
        save_checkpoint(tmp_path / "model.bin", params, 0)
        for labels in ([0, 1, 1, 0, 1, 0], [1] * 4):
            test = [make_epoch(label=y, seed=i, subject_id="C") for i, y in enumerate(labels)]
            split = DatasetSplit(
                train=[make_epoch(subject_id="A")], validation=[make_epoch(subject_id="B")],
                test=test, seed=0,
                subject_assignment={"A": "train", "B": "validation", "C": "test"},
            )
            split_dir, out = tmp_path / f"split{len(labels)}", tmp_path / f"eval{len(labels)}"
            _write_split(split_dir, split, 100.0)
            assert main(["evaluate", "--checkpoint", str(tmp_path / "model.bin"),
                         "--split", str(split_dir), "--out", str(out)]) == 0
            header, row = (out / "metrics.csv").read_text().splitlines()
            assert capsys.readouterr().out == row + "\n"
            report = evaluate(params, test)
            assert header.split(",") == list(report.COLUMNS)
            cells = [float(c) if c else None for c in row.split(",")]
            assert cells == [getattr(report, name) for name in header.split(",")]
            assert (report.auc is None) == (len(set(labels)) == 1)

    def test_json_round_trip(self, tmp_path):
        epochs = [make_epoch(label=i % 2, seed=i) for i in range(6)]
        report = evaluate(init_params(0, ModelConfig(2, 2, 3)), epochs)
        report.save(tmp_path / "m.json", tmp_path / "m.csv")
        loaded = json.loads((tmp_path / "m.json").read_text())
        # COLUMNS is no field, so it adds no key
        assert list(loaded) == ["precision", "recall", "f1", "accuracy", "auc", "confusion",
                                "n_epochs", "degenerate"]
        assert loaded["n_epochs"] == 6
        assert loaded["confusion"]["tp"] == report.confusion.tp
