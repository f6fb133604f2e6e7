import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegcnn.model import (
    DROPOUT_RATE,
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    predict,
)

from conftest import (
    conv1d_same,
    layer_param_counts,
    make_epoch,
    make_params,
    reference_backward,
    reference_forward,
    reference_unroll,
    softmax,
)


def identity_params(channels=2, kernel=3):
    """Conv passes each channel through unchanged; FC sums pooled values."""
    w = np.zeros((channels, channels, kernel))
    for c in range(channels):
        w[c, c, (kernel - 1) // 2] = 1.0
    return make_params(
        conv_weight=w,
        conv_bias=np.zeros(channels),
        fc_weight=np.ones((2, channels)),
        fc_bias=np.zeros(2),
    )


class TestInitParams:
    def test_default_param_counts_conv(self):
        p = init_params(0)
        assert layer_param_counts(p)["conv"] == 38350

    def test_default_param_counts_fc(self):
        p = init_params(0)
        assert layer_param_counts(p)["fc"] == 120

    def test_seed_determinism(self):
        a, b = init_params(42), init_params(42)
        for k, v in a.arrays().items():
            np.testing.assert_array_equal(v, b.arrays()[k])

    def test_uniform_draws_in_block_order(self):
        rng = np.random.default_rng(8)
        conv_weight = rng.uniform(-1 / np.sqrt(3 * 5), 1 / np.sqrt(3 * 5), size=(4, 3, 5))
        fc_weight = rng.uniform(-0.5, 0.5, size=(2, 4))
        p = init_params(8, ModelConfig(3, 4, 5))
        assert p.conv_weight.tobytes() == conv_weight.tobytes()
        assert p.fc_weight.tobytes() == fc_weight.tobytes()

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ModelConfig(kernel=10)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(out_channels=0)

    def test_init_ranges_and_zero_bias(self):
        cfg = ModelConfig(in_channels=4, out_channels=4, kernel=5)
        p = init_params(3, cfg)
        assert np.all(np.abs(p.conv_weight) <= 1 / np.sqrt(4 * 5))
        assert np.all(np.abs(p.fc_weight) <= 1 / np.sqrt(4))
        assert np.all(p.conv_bias == 0) and np.all(p.fc_bias == 0)


class TestModelParams:
    CONFIG = ModelConfig(in_channels=2, out_channels=4, kernel=3)  # 24 + 4 + 8 + 2 values

    @pytest.mark.parametrize("flat", [
        pytest.param(np.zeros(37), id="short"),
        pytest.param(np.zeros(39), id="long"),
        pytest.param(np.zeros((1, 38)), id="2-D"),
        pytest.param(np.zeros(38, dtype=np.float32), id="float32"),
    ])
    def test_bad_flat_rejected(self, flat):
        with pytest.raises(ValueError) as exc:
            ModelParams(self.CONFIG, flat)
        message = str(exc.value)
        assert str(self.CONFIG) in message and str(flat.shape) in message

    def test_blocks_are_views_of_flat_in_param_shapes_order(self):
        flat = np.arange(self.CONFIG.size, dtype=np.float64)
        p = ModelParams(self.CONFIG, flat)
        assert self.CONFIG.size == 38
        assert list(p.arrays()) == list(self.CONFIG.param_shapes())
        start = 0
        for name, shape in self.CONFIG.param_shapes().items():
            block = getattr(p, name)
            assert block.shape == shape and np.shares_memory(block, flat)
            np.testing.assert_array_equal(block.ravel(), flat[start : start + block.size])
            start += block.size
        p.fc_bias[1] = -1.0
        assert flat[-1] == -1.0

    def test_arrays_in_param_shapes_order(self):
        p = init_params(0, self.CONFIG)
        assert p.config == self.CONFIG
        assert list(p.arrays()) == list(self.CONFIG.param_shapes())
        assert {k: v.shape for k, v in p.arrays().items()} == self.CONFIG.param_shapes()


class TestParamCount:
    def test_custom_config(self):
        p = init_params(0, ModelConfig(20, 20, 11))
        assert layer_param_counts(p) == {"conv": 20 * 20 * 11 + 20, "fc": 2 * 20 + 2}

    def test_minimal_config(self):
        p = init_params(0, ModelConfig(1, 1, 1))
        assert layer_param_counts(p) == {"conv": 2, "fc": 4}


class TestConv1dSame:
    def test_identity_kernel(self, rng):
        p = identity_params(channels=3, kernel=5)
        x = rng.standard_normal((3, 20))
        np.testing.assert_allclose(conv1d_same(p, x), x, atol=1e-15)

    def test_zero_input_gives_bias(self):
        p = identity_params(channels=2, kernel=3)
        p = make_params(p.conv_weight, np.array([1.5, -0.5]), p.fc_weight, p.fc_bias)
        y = conv1d_same(p, np.zeros((2, 7)))
        np.testing.assert_array_equal(y[0], np.full(7, 1.5))
        np.testing.assert_array_equal(y[1], np.full(7, -0.5))

    def test_hand_convolution(self):
        # single channel, x=[1..5], boxcar kernel of ones, zero padding
        p = make_params(
            conv_weight=np.ones((1, 1, 3)),
            conv_bias=np.zeros(1),
            fc_weight=np.ones((2, 1)),
            fc_bias=np.zeros(2),
        )
        y = conv1d_same(p, np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        np.testing.assert_array_equal(y, [[3.0, 6.0, 9.0, 12.0, 9.0]])

    def test_channel_mismatch_rejected(self):
        p = identity_params(channels=2)
        with pytest.raises(ValueError, match="in_channels"):
            conv1d_same(p, np.zeros((3, 10)))

    @given(
        in_c=st.integers(1, 4),
        out_c=st.integers(1, 4),
        kernel=st.sampled_from([1, 3, 5, 7, 9]),
        t=st.integers(1, 40),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_length_property(self, in_c, out_c, kernel, t, seed):
        p = init_params(seed, ModelConfig(in_c, out_c, kernel))
        x = np.random.default_rng(seed).standard_normal((in_c, t))
        assert conv1d_same(p, x).shape == (out_c, t)

    def test_matches_naive_convolution(self, rng):
        # brute-force oracle for the GEMM implementation
        p = init_params(5, ModelConfig(3, 4, 5))
        x = rng.standard_normal((3, 12))
        pad = 2
        xp = np.pad(x, ((0, 0), (pad, pad)))
        naive = np.zeros((4, 12))
        for o in range(4):
            for t in range(12):
                naive[o, t] = p.conv_bias[o] + sum(
                    p.conv_weight[o, i, k] * xp[i, t + k] for i in range(3) for k in range(5)
                )
        np.testing.assert_allclose(conv1d_same(p, x), naive, atol=1e-12)


class TestForward:
    def test_rectified_sine_pooled_value(self):
        p = identity_params(channels=2, kernel=3)
        t = np.arange(2500) / 500.0
        x = np.tile(np.sin(2 * np.pi * 10.0 * t), (2, 1))
        cache = forward(p, x, mode="eval")
        np.testing.assert_allclose(cache.pooled, 1 / np.pi, atol=0.01)

    def test_zero_weights_give_uniform_probs(self):
        p = make_params(
            conv_weight=np.zeros((2, 2, 3)),
            conv_bias=np.zeros(2),
            fc_weight=np.zeros((2, 2)),
            fc_bias=np.zeros(2),
        )
        cache = forward(p, np.random.default_rng(0).standard_normal((2, 50)))
        np.testing.assert_allclose(softmax(cache.logits), [0.5, 0.5], atol=1e-15)

    def test_eval_mode_deterministic(self, rng):
        p = init_params(1, ModelConfig(3, 3, 3))
        x = rng.standard_normal((3, 30))
        a = forward(p, x, mode="eval")
        b = forward(p, x, mode="eval")
        np.testing.assert_array_equal(a.logits, b.logits)
        # no dropout factor: the gradient mask is the bare ReLU mask
        relu_mask = reference_forward(p, x, mode="eval").relu_mask
        assert a.grad_mask.dtype == bool
        np.testing.assert_array_equal(a.grad_mask, relu_mask)
        np.testing.assert_array_equal(b.grad_mask, relu_mask)

    def test_train_mode_needs_a_draw(self, rng):
        p = init_params(1, ModelConfig(2, 2, 3))
        with pytest.raises(ValueError, match="draw"):
            forward(p, rng.standard_normal((2, 10)), mode="train")

    def test_dropout_draw_sets_the_mask(self):
        # a draw below DROPOUT_RATE drops its output; the others are scaled
        p = identity_params(channels=1, kernel=1)
        x = np.ones((1, 4))
        draw = np.array([[0.0, np.nextafter(DROPOUT_RATE, 0), DROPOUT_RATE, 0.99]])
        keep = 1.0 / (1.0 - DROPOUT_RATE)
        np.testing.assert_array_equal(forward(p, x, mode="train", dropout=draw).grad_mask,
                                      [[0.0, 0.0, keep, keep]])

    def test_non_finite_input_rejected(self):
        p = identity_params()
        x = np.ones((2, 10))
        x[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            forward(p, x)

    def test_dropout_expectation(self, rng):
        # inverted dropout is mean-preserving: E[mask] = 1. Every ReLU is on
        # here, so the gradient mask is the dropout mask alone.
        p = identity_params(channels=1, kernel=3)
        x = np.ones((1, 100))
        assert forward(p, x, mode="eval").grad_mask.all()
        total = np.zeros((1, 100))
        for _ in range(10_000):
            total += forward(p, x, mode="train", dropout=rng.random((1, 100))).grad_mask
        np.testing.assert_allclose(total / 10_000, 1.0, atol=0.02)

    def test_pool_of_constant_channel_is_exact(self):
        p = identity_params(channels=2, kernel=3)
        # interior of a constant signal convolves exactly; use bias instead
        p = make_params(np.zeros_like(p.conv_weight), np.array([0.7, 0.3]),
                        p.fc_weight, p.fc_bias)
        cache = forward(p, np.zeros((2, 40)))
        np.testing.assert_array_equal(cache.pooled, [0.7, 0.3])

    def test_probs_sum_to_one(self, rng):
        p = init_params(9, ModelConfig(2, 3, 3))
        cache = forward(p, rng.standard_normal((2, 17)))
        probs = softmax(cache.logits)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all((probs > 0) & (probs < 1))


class TestPredict:
    def test_rows_are_eval_forward_probs(self):
        p = init_params(4, ModelConfig(2, 3, 3))
        epochs = [make_epoch(seed=i) for i in range(3)]
        logits, labels = predict(p, iter(epochs))
        assert logits.shape == (3, 2)
        for row, ep in zip(logits, epochs):
            np.testing.assert_array_equal(row, forward(p, ep.data, mode="eval").logits)
        assert labels.tolist() == [ep.label for ep in epochs]
        assert [a.shape for a in predict(p, [])] == [(0, 2), (0,)]


class TestSoftmax:
    def test_shift_invariance(self, rng):
        z = rng.standard_normal(4)
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(10):
            assert abs(softmax(rng.standard_normal(3)).sum() - 1.0) < 1e-12


class TestBackward:
    def test_zero_upstream_gradient(self, rng):
        p = init_params(0, ModelConfig(2, 2, 3))
        cache = forward(p, rng.standard_normal((2, 10)))
        g = backward(cache, p, np.zeros(2))
        assert all(np.all(v == 0) for v in g.arrays().values())

    def test_linearity_in_upstream_gradient(self, rng):
        p = init_params(0, ModelConfig(2, 3, 3))
        cache = forward(p, rng.standard_normal((2, 12)))
        gl = np.array([0.3, -0.7])
        g1 = backward(cache, p, gl)
        g2 = backward(cache, p, 2.0 * gl)
        for k, v in g1.arrays().items():
            np.testing.assert_array_equal(2.0 * v, g2.arrays()[k])

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_cached_unroll_matches_fresh_unroll(self, mode, kernel):
        # backward reuses the matrix forward multiplied; over consecutive
        # examples it must give the bits of a backward that unrolls the
        # example's own input again
        p = init_params(4, ModelConfig(3, 4, kernel))
        data = np.random.default_rng(kernel)
        for _ in range(3):
            x = data.standard_normal((3, 25))
            draw = data.random((4, 25))
            cache = forward(p, x, mode=mode, dropout=draw)
            ref = reference_forward(p, x, mode=mode, dropout=draw)
            np.testing.assert_array_equal(cache.unrolled, reference_unroll(x, kernel))
            np.testing.assert_array_equal(cache.grad_mask, ref.dropout_mask * ref.relu_mask)
            np.testing.assert_array_equal(cache.pooled, ref.pooled)
            np.testing.assert_array_equal(cache.logits, ref.logits)
            gl = data.standard_normal(2)
            got, want = backward(cache, p, gl), reference_backward(ref, p, gl)
            assert got.config == want.config
            assert got.flat.tobytes() == want.flat.tobytes()

    def test_cache_params_mismatch_rejected(self, rng):
        p = init_params(0, ModelConfig(2, 2, 3))
        other = init_params(0, ModelConfig(3, 2, 3))
        cache = forward(p, rng.standard_normal((2, 10)))
        with pytest.raises(ValueError, match="cache"):
            backward(cache, other, np.ones(2))

    def test_finite_difference_tiny_model(self):
        # independent oracle lives in conftest.finite_diff_check; exercised
        # here on one fixed instance and heavily in the acceptance suite
        from eegcnn.data import Epoch

        from conftest import finite_diff_check

        p = init_params(7, ModelConfig(2, 2, 3))
        ep = Epoch(
            data=np.random.default_rng(7).standard_normal((2, 8)),
            label=1,
            subject_id="S",
            epoch_index=0,
        )
        assert finite_diff_check(p, ep, eps=1e-5) < 1e-6
