import importlib
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegcnn.data import DatasetSplit, split_dataset
from eegcnn.checkpoint import load_checkpoint, save_checkpoint
from eegcnn.metrics import evaluate
from eegcnn.model import ModelConfig, init_params
from eegcnn.preprocess import fork_map
from eegcnn.synth import synthetic_dataset
from eegcnn.train import (
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    cross_entropy,
    init_adam,
    train,
)

from conftest import (
    finite_diff_check,
    make_epoch,
    make_params,
    needs_fork,
    needs_openblas,
    reference_adam_step,
    reference_backward,
    reference_cross_entropy,
    reference_forward,
    reference_train,
    softmax,
)

# the package binds the name ``train`` to the function, so fetch the module
train_module = importlib.import_module("eegcnn.train")
model_module = importlib.import_module("eegcnn.model")


class TestCrossEntropy:
    def test_symmetric_case(self):
        loss, grad = cross_entropy(np.log([0.5, 0.5]), 0)
        assert loss == pytest.approx(np.log(2))
        np.testing.assert_allclose(grad, [-0.5, 0.5])

    def test_confident_correct(self):
        loss, _ = cross_entropy(np.log([1 - 1e-12, 1e-12]), 0)
        assert loss == pytest.approx(0.0, abs=1e-11)

    def test_confident_wrong(self):
        loss, grad = cross_entropy(np.log([0.9, 0.1]), 1)
        assert loss == pytest.approx(-np.log(0.1))
        np.testing.assert_allclose(grad, [0.9, -0.9])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(np.log([0.5, 0.5]), 2)

    def test_loss_floor(self, rng):
        for _ in range(50):
            z = rng.random(2)
            probs = z / z.sum()
            loss, _ = cross_entropy(np.log(probs), int(rng.integers(0, 2)))
            assert loss >= 0.0

    @pytest.mark.filterwarnings("error")
    def test_confidently_wrong_logits_finite(self):
        """Probabilities [1, 0] gave log(0) = -inf, so a model that was only
        confidently wrong ended training as diverged."""
        loss, grad = cross_entropy(np.array([800.0, -800.0]), 1)
        assert loss == 1600.0
        np.testing.assert_array_equal(grad, [1.0, -1.0])

    @given(rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(0, 1)), min_size=1, max_size=8))
    @example(rows=[(800.0, -800.0, 1), (0.0, 1e-17, 0), (-800.0, 800.0, 1)])
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_each_row_bit_for_bit(self, rows):
        logits = np.array([row[:2] for row in rows])
        labels = np.array([row[2] for row in rows])
        with np.errstate(all="ignore"):  # logits near 1e308 overflow the shift
            losses, grads = cross_entropy(logits, labels)
            deep = cross_entropy(logits[None], labels[None])  # a [1, N, 2] batch
            for i, (z, y) in enumerate(zip(logits, labels)):
                loss, grad = cross_entropy(z, int(y))
                want_loss, want_grad = reference_cross_entropy(z, int(y))
                assert repr(loss) == repr(float(losses[i])) == repr(want_loss)
                assert grad.tobytes() == grads[i].tobytes() == want_grad.tobytes()
        assert deep[0].tobytes() == losses.tobytes() and deep[1].tobytes() == grads.tobytes()

    def test_batch_label_out_of_range(self):
        with pytest.raises(ValueError, match="^label 2 out of range for 2 classes$"):
            cross_entropy(np.zeros((3, 2)), np.array([0, 2, -1]))

    def test_gradient_is_softmax_minus_onehot(self, rng):
        for _ in range(20):
            logits = rng.standard_normal(2) * 10.0
            label = int(rng.integers(0, 2))
            _, grad = cross_entropy(logits, label)
            want = softmax(logits)
            want[label] -= 1.0
            np.testing.assert_array_equal(grad, want)


class TestAdamStep:
    def _setup(self, lr=1e-3):
        cfg = ModelConfig(1, 1, 1)
        params = init_params(0, cfg)
        return init_adam(params), params, TrainConfig(learning_rate=lr)

    def _grads_like(self, params, value):
        return make_params(**{k: np.full_like(v, value) for k, v in params.arrays().items()})

    def test_first_step_magnitude_is_lr(self):
        state, params, cfg = self._setup(lr=1e-3)
        grads = self._grads_like(params, 0.37)
        new_state, new_params = adam_step(state, params, grads, cfg)
        for k in params.arrays():
            delta = new_params.arrays()[k] - params.arrays()[k]
            np.testing.assert_allclose(np.abs(delta), cfg.learning_rate, rtol=1e-4)
        assert new_state.t == 1

    def test_zero_gradient_no_update(self):
        state, params, cfg = self._setup()
        grads = self._grads_like(params, 0.0)
        _, new_params = adam_step(state, params, grads, cfg)
        for k, v in params.arrays().items():
            np.testing.assert_array_equal(v, new_params.arrays()[k])

    def test_identical_gradients_identical_updates(self):
        state, params, cfg = self._setup()
        grads = self._grads_like(params, -1.25)
        _, new_params = adam_step(state, params, grads, cfg)
        deltas = [new_params.arrays()[k] - params.arrays()[k] for k in params.arrays()]
        flat = np.concatenate([d.reshape(-1) for d in deltas])
        np.testing.assert_allclose(flat, flat[0])

    def test_scale_invariant_update_signs(self):
        state, params, cfg = self._setup()
        rng = np.random.default_rng(4)
        g = {k: rng.standard_normal(v.shape) for k, v in params.arrays().items()}
        _, p1 = adam_step(state, params, make_params(**g), cfg)
        state2, _, _ = self._setup()
        _, p2 = adam_step(state2, params, make_params(**{k: 100 * v for k, v in g.items()}), cfg)
        for k in params.arrays():
            d1 = np.sign(p1.arrays()[k] - params.arrays()[k])
            d2 = np.sign(p2.arrays()[k] - params.arrays()[k])
            np.testing.assert_array_equal(d1, d2)

    def test_two_steps_match_textbook_update(self):
        # Kingma & Ba's update with beta1 0.9, beta2 0.999 and eps 1e-8. The
        # first step's size is the learning rate whatever the betas, so a
        # second step with another gradient pins them; gradient entries down
        # to 1e-8 pin eps.
        params = init_params(0, ModelConfig(2, 3, 3))
        rng = np.random.default_rng(5)
        g1, g2 = ({k: rng.standard_normal(v.shape) * 10.0 ** -rng.integers(0, 9, v.shape)
                   for k, v in params.arrays().items()} for _ in range(2))
        cfg = TrainConfig(learning_rate=1e-3)
        state, p1 = adam_step(init_adam(params), params, make_params(**g1), cfg)
        _, p2 = adam_step(state, p1, make_params(**g2), cfg)
        for k, p0 in params.arrays().items():
            m1, v1 = 0.1 * g1[k], 0.001 * g1[k] ** 2
            want1 = p0 - 1e-3 * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
            m2, v2 = 0.9 * m1 + 0.1 * g2[k], 0.999 * v1 + 0.001 * g2[k] ** 2
            want2 = want1 - 1e-3 * (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
            np.testing.assert_allclose(p1.arrays()[k], want1, rtol=1e-12)
            np.testing.assert_allclose(p2.arrays()[k], want2, rtol=1e-12)

    def test_flat_step_matches_per_block_step_bit_for_bit(self):
        # five steps from the same state, with gradient entries over many
        # magnitudes: the flat update gives the per-block update's bits
        params = init_params(2, ModelConfig(3, 4, 5))
        rng = np.random.default_rng(6)
        cfg = TrainConfig(learning_rate=3e-3)
        state = init_adam(params)
        m = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        v = {k: np.zeros_like(a) for k, a in params.arrays().items()}
        ref = params.arrays()
        for t in range(5):
            g = {k: rng.standard_normal(a.shape) * 10.0 ** rng.integers(-9, 3, a.shape)
                 for k, a in params.arrays().items()}
            before = params.flat.copy()
            state, new_params = adam_step(state, params, make_params(**g), cfg)
            m, v, ref = reference_adam_step(m, v, t, ref, g, cfg.learning_rate)
            assert params.flat.tobytes() == before.tobytes()  # a new array, not an update
            params = new_params
            assert state.t == t + 1
            assert state.m.tobytes() == make_params(**m).flat.tobytes()
            assert state.v.tobytes() == make_params(**v).flat.tobytes()
            assert params.flat.tobytes() == make_params(**ref).flat.tobytes()

    def test_non_finite_gradient_names_block(self):
        state, params, cfg = self._setup()
        grads = self._grads_like(params, 1.0)
        bad = grads.arrays()
        bad["fc_weight"] = np.full_like(bad["fc_weight"], np.nan)
        with pytest.raises(TrainingDivergedError, match="fc_weight"):
            adam_step(state, params, make_params(**bad), cfg)


def quick_split(seed=3, channels=4, fs=100.0, n_subjects=8, n_epochs=4, snr_db=10.0):
    subs = synthetic_dataset(
        n_subjects=n_subjects, channels=channels, fs=fs, n_epochs=n_epochs,
        f0=5.0, f1=20.0, snr_db=snr_db, seed=seed,
    )
    return split_dataset(subs, seed=seed)


class TestTrain:
    def test_learns_separable_data(self):
        split = quick_split()
        cfg = TrainConfig(epochs=30, learning_rate=1e-3, seed=1)
        hist = train(split, cfg, ModelConfig(4, 6, 11))
        assert hist.epochs[-1]["train_loss"] < np.log(2)
        rep = evaluate(hist.best_checkpoint, split.train)
        assert rep.accuracy == 1.0

    def test_determinism(self):
        split = quick_split()
        cfg = TrainConfig(epochs=3, seed=9)
        mcfg = ModelConfig(4, 4, 5)
        h1 = train(split, cfg, mcfg)
        h2 = train(split, cfg, mcfg)
        assert h1.epochs == h2.epochs
        assert h1.best_epoch == h2.best_epoch
        for k, v in h1.best_checkpoint.arrays().items():
            np.testing.assert_array_equal(v, h2.best_checkpoint.arrays()[k])

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_empty_partition_rejected(self):
        split = quick_split()
        from dataclasses import replace

        with pytest.raises(ValueError, match="non-empty"):
            train(replace(split, validation=[]), TrainConfig(epochs=1), ModelConfig(4, 4, 5))

    def test_history_length_matches_epochs(self):
        split = quick_split()
        hist = train(split, TrainConfig(epochs=4, seed=0), ModelConfig(4, 4, 5))
        assert len(hist.epochs) == 4

    def test_best_epoch_maximizes_val_accuracy(self):
        split = quick_split()
        hist = train(split, TrainConfig(epochs=6, learning_rate=1e-3, seed=2),
                     ModelConfig(4, 4, 5))
        best_acc = max(e["val_accuracy"] for e in hist.epochs)
        assert hist.epochs[hist.best_epoch]["val_accuracy"] == best_acc

    def test_checkpoint_fidelity(self, tmp_path):
        split = quick_split()
        hist = train(split, TrainConfig(epochs=2, seed=5), ModelConfig(4, 4, 5))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, hist.best_checkpoint, seed=5)
        loaded, seed = load_checkpoint(path)
        assert seed == 5
        before = evaluate(hist.best_checkpoint, split.validation)
        after = evaluate(loaded, split.validation)
        assert before.accuracy == after.accuracy
        for k, v in hist.best_checkpoint.arrays().items():
            np.testing.assert_array_equal(v, loaded.arrays()[k])


def labelled_split(n_train, n_val, channels=3, epoch_len=40, seed=0):
    epochs = [
        make_epoch(channels, epoch_len, label=i % 2, seed=seed + i, subject_id=f"S{i:03d}")
        for i in range(n_train + n_val)
    ]
    return DatasetSplit(train=epochs[:n_train], validation=epochs[n_train:], test=[], seed=seed)


class TestTrainMatchesReference:
    """``train`` gives the bits it gave with the per-example forward and
    backward it was first written with, which unroll the input twice."""

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_same_checkpoint_and_history(self, monkeypatch, kernel, batch_size):
        split = labelled_split(n_train=7, n_val=3)  # last batch ragged for 2 and 3
        cfg = TrainConfig(batch_size=batch_size, learning_rate=3e-3, epochs=3, seed=kernel)
        mcfg = ModelConfig(3, 4, kernel)
        got = train(split, cfg, mcfg)
        monkeypatch.setattr(train_module, "forward", reference_forward)
        monkeypatch.setattr(model_module, "forward", reference_forward)  # predict's
        monkeypatch.setattr(train_module, "backward", reference_backward)
        want = train(split, cfg, mcfg)
        assert (got.epochs, got.best_epoch) == (want.epochs, want.best_epoch)
        for k, v in want.best_checkpoint.arrays().items():
            np.testing.assert_array_equal(got.best_checkpoint.arrays()[k], v)

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_batch_gradient_is_mean_of_examples(self, monkeypatch, batch_size):
        # each Adam step gets (g1 + g2 + ...) / B of its batch's gradients,
        # summed left to right
        examples, steps = [], []
        real_backward, real_adam_step = train_module.backward, train_module.adam_step

        def backward_spy(*args):
            examples.append(real_backward(*args))
            return examples[-1]

        def adam_step_spy(state, params, grads, config):
            steps.append(grads)
            return real_adam_step(state, params, grads, config)

        monkeypatch.setattr(train_module, "backward", backward_spy)
        monkeypatch.setattr(train_module, "adam_step", adam_step_spy)
        train(labelled_split(7, 3), TrainConfig(batch_size=batch_size, epochs=2),
              ModelConfig(3, 4, 3))
        sizes = [min(batch_size, 7 - start) for start in range(0, 7, batch_size)] * 2
        assert len(steps) == len(sizes) and len(examples) == 14
        first = 0
        for grads, size in zip(steps, sizes):
            batch = examples[first : first + size]
            first += size
            for name, got in grads.arrays().items():
                want = getattr(batch[0], name)
                for g in batch[1:]:
                    want = want + getattr(g, name)
                np.testing.assert_array_equal(got, want / size)

    def test_dropout_is_on(self, monkeypatch):
        # the comparison above covers train-mode forwards that draw a mask:
        # some sample must be dropped (0) whose ReLU is on in eval mode
        dropped, real_forward = [], train_module.forward

        def spy(params, x, mode, dropout):
            cache = real_forward(params, x, mode, dropout)
            relu_on = real_forward(params, x, "eval").grad_mask
            dropped.append(np.any((cache.grad_mask == 0) & relu_on))
            return cache

        monkeypatch.setattr(train_module, "forward", spy)
        train(labelled_split(7, 3), TrainConfig(epochs=1), ModelConfig(3, 4, 3))
        assert len(dropped) == 7 and any(dropped)

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_each_example_draws_from_its_own_stream(self, cpus, monkeypatch, batch_size):
        # an example's dropout draw is the [seed, 2, epoch, index] stream's,
        # index its place in the training partition, whatever batch it is in
        split, model = labelled_split(7, 3), ModelConfig(3, 4, 3)
        config = TrainConfig(batch_size=batch_size, epochs=3, seed=6)
        calls, real_forward = [], train_module.forward

        def spy(params, x, mode="eval", dropout=None):
            if mode == "train":
                index = next(i for i, ep in enumerate(split.train) if ep.data is x)
                calls.append((index, dropout.copy()))
            return real_forward(params, x, mode, dropout)

        monkeypatch.setattr(train_module, "forward", spy)
        cpus(1)
        train(split, config, model)
        assert len(calls) == 3 * 7
        for call, (index, dropout) in enumerate(calls):
            epoch = call // 7
            if call % 7 == 0:  # each epoch trains on every example once
                assert sorted(i for i, _ in calls[call : call + 7]) == list(range(7))
            want = np.random.default_rng([config.seed, 2, epoch, index]).random((4, 40))
            assert dropout.tobytes() == want.tobytes(), (epoch, index)


def _train_in_worker(pools, split, config, model_config, seed):
    """The pools a ``fork_map`` worker has seen once it trained, and its bytes."""
    history = train(split, replace(config, seed=seed), model_config)
    return list(pools), history.best_checkpoint.flat.tobytes()


@needs_fork
@needs_openblas
class TestTrainWorkers:
    """From TRAIN_POOL_MIN_WORK up, ``train`` runs each round of a mini-batch
    on this process and one forked worker per further CPU; each process
    makes the dropout draws of the examples it computes. The history and
    checkpoint are the bytes of the loop in one process
    (``conftest.reference_train``) whatever the CPU count."""

    MODEL = ModelConfig(3, 4, 3)

    @pytest.fixture(autouse=True)
    def pool_every_shape(self, monkeypatch):
        monkeypatch.setattr(train_module, "TRAIN_POOL_MIN_WORK", 0)

    @pytest.mark.parametrize("batch_size", [2, 3, 50], ids=["batch2", "batch3", "beyond-train"])
    def test_pooled_equals_one_process(self, cpus, batch_size):
        split = labelled_split(n_train=7, n_val=5)  # the last batch of 2 or 3 is ragged
        config = TrainConfig(batch_size=batch_size, learning_rate=3e-3, epochs=3, seed=4)
        want_rows, want_best, want = reference_train(split, config, self.MODEL)
        for n_cpus in (1, 2, 3, 4):  # 4: more processes than this host may have cores
            pools = cpus(n_cpus)
            started = len(pools)
            got = train(split, config, self.MODEL)
            # one worker per further CPU, and no more processes than a round's examples
            assert pools[started:] == ([min(n_cpus, batch_size) - 1] if n_cpus > 1 else [])
            assert multiprocessing.active_children() == []
            assert (got.epochs, got.best_epoch) == (want_rows, want_best)
            assert got.best_checkpoint.flat.tobytes() == want.flat.tobytes()

    def test_epochs_of_different_lengths(self, cpus):
        # each example's draw has its own epoch's length, whichever process
        # makes it, and one validation epoch leaves the worker without a block
        epochs = [make_epoch(3, 30 + 7 * i, label=i % 2, seed=i, subject_id=f"S{i}")
                  for i in range(7)]
        split = DatasetSplit(train=epochs[:6], validation=epochs[6:], test=[], seed=0)
        config = TrainConfig(batch_size=3, learning_rate=3e-3, epochs=2, seed=1)
        want_rows, want_best, want = reference_train(split, config, self.MODEL)
        pools = cpus(2)
        got = train(split, config, self.MODEL)
        assert pools == [1]
        assert (got.epochs, got.best_epoch) == (want_rows, want_best)
        assert got.best_checkpoint.flat.tobytes() == want.flat.tobytes()
        assert multiprocessing.active_children() == []

    def test_non_finite_loss_in_a_worker_names_its_batch(self, cpus, monkeypatch):
        split = labelled_split(n_train=7, n_val=3)
        config = TrainConfig(batch_size=2, epochs=2, seed=5)
        # the example in the worker's slot of epoch 0's second batch
        planted = split.train[np.random.default_rng([config.seed, 1]).permutation(7)[3]].data
        real_forward = train_module.forward

        def forward(params, x, mode="eval", dropout=None):
            cache = real_forward(params, x, mode, dropout)
            return replace(cache, logits=np.full(2, np.nan)) if x is planted else cache

        monkeypatch.setattr(train_module, "forward", forward)
        errors = []
        for n_cpus in (1, 2):
            pools = cpus(n_cpus)
            with pytest.raises(TrainingDivergedError) as info:
                train(split, config, self.MODEL)
            errors.append(str(info.value))
            assert multiprocessing.active_children() == []
        assert pools == [1]
        assert errors == ["non-finite loss at epoch 0, batch 1"] * 2

    def test_inside_a_fork_map_worker_trains_in_process(self, cpus):
        pools = cpus(2)
        split, config = labelled_split(7, 3), TrainConfig(epochs=2)
        results = fork_map(_train_in_worker, [0, 1], (pools, split, config, self.MODEL), str)
        assert pools == [2]
        for seed, (seen, flat) in zip([0, 1], results):
            assert seen == [2]  # the worker started no pool of its own
            want = reference_train(split, replace(config, seed=seed), self.MODEL)[2]
            assert flat == want.flat.tobytes()
        assert multiprocessing.active_children() == []

    def test_callers_count_kept_when_numpy_loads_first(self):
        """Imported after numpy, eegcnn's one-thread default does not apply
        (OpenBLAS starts a thread per CPU); train runs on one thread and
        then gives the caller its own count back."""
        code = (
            "import numpy\n"
            "import eegcnn.train as tr\n"
            "from eegcnn.model import ModelConfig\n"
            "from eegcnn.preprocess import blas_threads\n"
            "from test_train import labelled_split\n"
            "tr.TRAIN_POOL_MIN_WORK = 0\n"
            "before, during = blas_threads(), []\n"
            "tr.train(labelled_split(7, 3), tr.TrainConfig(epochs=2), ModelConfig(3, 4, 3),\n"
            "         on_epoch=lambda i, row: during.append(blas_threads()))\n"
            "print(before, blas_threads(), during)\n"
        )
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split(maxsplit=2)
        assert out[0] == out[1] and out[2].strip() == "[1, 1]"


class TestOnEpoch:
    def test_called_once_per_epoch_in_order(self):
        calls = []
        hist = train(labelled_split(5, 2), TrainConfig(epochs=4, seed=1),
                     ModelConfig(3, 2, 3), on_epoch=lambda i, row: calls.append((i, row)))
        assert [i for i, _ in calls] == [0, 1, 2, 3]
        assert [row for _, row in calls] == hist.epochs

    def test_called_before_training_ends(self):
        # the callback sees each row as its epoch ends, not after the last one
        class Stop(Exception):
            pass

        seen = []

        def stop_after_two(i, row):
            seen.append(i)
            if i == 1:
                raise Stop

        with pytest.raises(Stop):
            train(labelled_split(5, 2), TrainConfig(epochs=5), ModelConfig(3, 2, 3),
                  on_epoch=stop_after_two)
        assert seen == [0, 1]


class TestFiniteDiffCheck:
    def test_random_tiny_model(self):
        p = init_params(11, ModelConfig(2, 2, 3))
        ep = make_epoch(channels=2, epoch_len=8, label=1, seed=11)
        assert finite_diff_check(p, ep, eps=1e-5) < 1e-6

    def test_zero_input_epoch(self):
        from eegcnn.data import Epoch

        p = init_params(2, ModelConfig(2, 2, 3))
        ep = Epoch(data=np.zeros((2, 8)), label=0, subject_id="S", epoch_index=0)
        from eegcnn.model import backward, forward

        cache = forward(p, ep.data, mode="eval")
        _, gl = cross_entropy(cache.logits, ep.label)
        grads = backward(cache, p, gl)
        assert np.all(grads.conv_weight == 0)
        assert finite_diff_check(p, ep, eps=1e-5) < 1e-6

    def test_zero_eps_rejected(self):
        p = init_params(0, ModelConfig(2, 2, 3))
        with pytest.raises(ValueError, match="eps"):
            finite_diff_check(p, make_epoch(), eps=0.0)

    def test_large_model_rejected(self):
        p = init_params(0)
        with pytest.raises(ValueError, match="too large"):
            finite_diff_check(p, make_epoch(channels=59, epoch_len=16))
