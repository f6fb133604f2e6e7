import importlib

import numpy as np
import pytest

from eegcnn.data import DatasetSplit, split_dataset
from eegcnn.checkpoint import load_checkpoint, save_checkpoint
from eegcnn.metrics import evaluate
from eegcnn.model import ModelConfig, init_params
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
    reference_adam_step,
    reference_backward,
    reference_forward,
)

# the package binds the name ``train`` to the function, so fetch the module
train_module = importlib.import_module("eegcnn.train")
model_module = importlib.import_module("eegcnn.model")


class TestCrossEntropy:
    def test_symmetric_case(self):
        loss, grad = cross_entropy(np.array([0.5, 0.5]), 0)
        assert loss == pytest.approx(np.log(2))
        np.testing.assert_allclose(grad, [-0.5, 0.5])

    def test_confident_correct(self):
        loss, _ = cross_entropy(np.array([1 - 1e-12, 1e-12]), 0)
        assert loss == pytest.approx(0.0, abs=1e-11)

    def test_confident_wrong(self):
        loss, grad = cross_entropy(np.array([0.9, 0.1]), 1)
        assert loss == pytest.approx(-np.log(0.1))
        np.testing.assert_allclose(grad, [0.9, -0.9])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_loss_floor(self, rng):
        for _ in range(50):
            z = rng.random(2)
            probs = z / z.sum()
            loss, _ = cross_entropy(probs, int(rng.integers(0, 2)))
            assert loss >= 0.0


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
        assert got.to_json() == want.to_json()
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

        def spy(params, x, mode, rng):
            cache = real_forward(params, x, mode, rng)
            relu_on = real_forward(params, x, "eval", None).grad_mask
            dropped.append(np.any((cache.grad_mask == 0) & relu_on))
            return cache

        monkeypatch.setattr(train_module, "forward", spy)
        train(labelled_split(7, 3), TrainConfig(epochs=1), ModelConfig(3, 4, 3))
        assert len(dropped) == 7 and any(dropped)


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
        _, gl = cross_entropy(cache.probs, ep.label)
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
