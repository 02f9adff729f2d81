import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from msmda.errors import ShapeError, ValidationError
from msmda.neuralcore import (
    LinearLayer,
    Parameter,
    adam_step,
    finite_difference_check,
    leaky_relu,
    leaky_relu_backward,
    softmax,
    softmax_backward,
    softmax_cross_entropy,
)


def make_layer(weight, bias):
    return LinearLayer(np.asarray(weight, dtype=float), np.asarray(bias, dtype=float))


class TestLinearForward:
    def test_identity_weight(self):
        layer = make_layer(np.eye(2), np.zeros((1, 2)))
        out = layer.forward(np.array([[3.0, -1.0]]))
        assert_array_equal(out, [[3.0, -1.0]])

    def test_hand_product(self):
        layer = make_layer([[1.0], [1.0]], [[0.5]])
        out = layer.forward(np.array([[2.0, 3.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 5.5

    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer.init(3, 7, rng)
        out = layer.forward(rng.uniform(-1, 1, (4, 3)))
        assert out.shape == (4, 7)

    def test_dimension_mismatch_names_both_shapes(self):
        layer = make_layer(np.zeros((3, 7)), np.zeros((1, 7)))
        with pytest.raises(ShapeError) as err:
            layer.forward(np.zeros((4, 6)))
        assert "(4, 6)" in str(err.value) and "(3, 7)" in str(err.value)

    def test_bias_broadcasts_per_row(self):
        layer = make_layer(np.zeros((2, 2)), [[1.0, -2.0]])
        out = layer.forward(np.ones((3, 2)))
        assert_array_equal(out, np.tile([1.0, -2.0], (3, 1)))


class TestLinearBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(1)
        layer = LinearLayer.init(3, 2, rng)
        grad_in = layer.backward(rng.uniform(-1, 1, (5, 3)), np.zeros((5, 2)))
        assert_array_equal(grad_in, np.zeros((5, 3)))
        assert_array_equal(layer.weight.grad, np.zeros((3, 2)))
        assert_array_equal(layer.bias.grad, np.zeros((1, 2)))

    def test_scalar_chain_rule(self):
        layer = make_layer([[2.0]], [[0.0]])
        grad_in = layer.backward(np.array([[3.0]]), np.array([[1.0]]))
        assert layer.weight.grad[0, 0] == 3.0
        assert grad_in[0, 0] == 2.0

    def test_mismatched_input_is_shape_error(self):
        layer = make_layer(np.zeros((2, 2)), np.zeros((1, 2)))
        for x_shape, grad_shape in [
            ((1, 3), (1, 2)),  # x width is not the weight's in_dim
            ((3, 2), (1, 2)),  # x and grad_out rows disagree
            ((1, 2), (1, 3)),  # grad_out width is not the weight's out_dim
        ]:
            with pytest.raises(ShapeError):
                layer.backward(np.ones(x_shape), np.ones(grad_shape))
        assert_array_equal(layer.weight.grad, np.zeros((2, 2)))
        assert_array_equal(layer.bias.grad, np.zeros((1, 2)))

    def test_grad_shapes_round_trip(self):
        rng = np.random.default_rng(2)
        layer = LinearLayer.init(6, 4, rng)
        x = rng.uniform(-1, 1, (9, 6))
        grad_in = layer.backward(x, rng.uniform(-1, 1, (9, 4)))
        assert grad_in.shape == x.shape
        assert layer.weight.grad.shape == layer.weight.shape
        assert layer.bias.grad.shape == layer.bias.shape

    def test_grads_accumulate_across_calls(self):
        layer = make_layer([[1.0]], [[0.0]])
        layer.backward(np.array([[2.0]]), np.array([[1.0]]))
        layer.backward(np.array([[2.0]]), np.array([[1.0]]))
        assert layer.weight.grad[0, 0] == 4.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        layer = LinearLayer.init(4, 3, rng)
        x = rng.uniform(-1, 1, (6, 4))
        labels = rng.integers(0, 3, 6)

        def loss_fn():
            loss, grad = softmax_cross_entropy(layer.forward(x), labels)
            layer.backward(x, grad)
            return loss

        report = finite_difference_check(loss_fn, layer.parameters())
        assert report.passed, report.describe()
        assert report.max_rel_error < 1e-4


class TestLeakyRelu:
    def test_hand_values(self):
        out = leaky_relu(np.array([[2.0, -2.0]]), 0.01)
        assert_allclose(out, [[2.0, -0.02]], rtol=0, atol=0)

    def test_all_positive_is_identity(self):
        x = np.array([[0.5, 3.0], [1e-9, 7.0]])
        assert_array_equal(leaky_relu(x, 0.01), x)

    def test_derivative_at_zero_uses_slope(self):
        grad = leaky_relu_backward(np.ones((1, 1)), np.zeros((1, 1)), 0.3)
        assert grad[0, 0] == 0.3

    def test_invalid_slope(self):
        for slope in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                leaky_relu(np.zeros((1, 1)), slope)

    def test_matches_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(4)
        # keep magnitudes >= 0.2 so the +/- h probes never cross zero
        value = rng.uniform(0.2, 1.0, (3, 5)) * rng.choice([-1.0, 1.0], (3, 5))
        p = Parameter(value)

        def loss_fn():
            y = leaky_relu(p.value, 0.01)
            p.grad += leaky_relu_backward(y, p.value, 0.01)
            return 0.5 * float((y * y).sum())

        report = finite_difference_check(loss_fn, [p])
        assert report.passed, report.describe()


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)

    def test_confident_correct_logit(self):
        loss, _ = softmax_cross_entropy(np.array([[10.0, 0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(math.log(1.0 + 2.0 * math.exp(-10.0)), rel=1e-12)

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        logits = rng.uniform(-3, 3, (6, 4))
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 4, 6))
        assert_allclose(grad.sum(axis=1), np.zeros(6), atol=1e-15)

    def test_out_of_range_label_names_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 5, 1]))

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 1]))

    def test_extreme_logits_stay_finite(self):
        loss, grad = softmax_cross_entropy(
            np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]), np.array([0, 1])
        )
        assert math.isfinite(loss) and loss >= 0.0
        assert np.all(np.isfinite(grad))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_loss_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.uniform(-10, 10, (5, 3))
        loss, _ = softmax_cross_entropy(logits, rng.integers(0, 3, 5))
        assert loss >= 0.0


class TestSoftmaxBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        p = Parameter(rng.uniform(-1, 1, (4, 3)))
        weights = rng.uniform(0.5, 1.5, (4, 3))  # fixed linear head over the probs

        def loss_fn():
            probs = softmax(p.value)
            loss = float((weights * probs).sum())
            p.grad += softmax_backward(weights, probs)
            return loss

        report = finite_difference_check(loss_fn, [p])
        assert report.passed, report.describe()


class TestAdamStep:
    def test_zero_grad_leaves_value(self):
        p = Parameter(np.array([[1.0, -2.0]]))
        adam_step(p, lr=0.01)
        assert_array_equal(p.value, [[1.0, -2.0]])
        assert p.step_count == 1

    def test_first_step_bias_corrected(self):
        p = Parameter(np.array([[1.0]]))
        p.grad[:] = 1.0
        adam_step(p, lr=0.01)
        # m_hat = v_hat = 1 on the first step, so the move is lr / (1 + eps)
        assert p.value[0, 0] == pytest.approx(1.0 - 0.01 / (1.0 + 1e-8), rel=1e-15)

    def test_grad_zeroed_after_step(self):
        p = Parameter(np.array([[1.0]]))
        p.grad[:] = 2.5
        adam_step(p, lr=0.01)
        assert_array_equal(p.grad, [[0.0]])

    def test_identical_params_stay_identical(self):
        rng = np.random.default_rng(7)
        value = rng.uniform(-1, 1, (3, 3))
        a, b = Parameter(value.copy()), Parameter(value.copy())
        for step in range(5):
            g = rng.uniform(-1, 1, (3, 3))
            a.grad += g
            b.grad += g
            adam_step(a, lr=0.01)
            adam_step(b, lr=0.01)
        assert_array_equal(a.value, b.value)
        assert_array_equal(a.adam_m, b.adam_m)
        assert_array_equal(a.adam_v, b.adam_v)

    def test_descends_on_quadratic(self):
        p = Parameter(np.array([[5.0]]))
        for _ in range(400):
            p.grad += 2.0 * p.value
            adam_step(p, lr=0.05)
        assert abs(p.value[0, 0]) < 0.1


class TestFiniteDifferenceCheck:
    def test_zero_input_degenerate_case_passes(self):
        layer = make_layer(np.array([[0.3, -0.2], [0.1, 0.4]]), np.zeros((1, 2)))
        x = np.zeros((3, 2))
        labels = np.array([0, 1, 0])

        def loss_fn():
            loss, grad = softmax_cross_entropy(layer.forward(x), labels)
            layer.backward(x, grad)
            return loss

        report = finite_difference_check(loss_fn, layer.parameters())
        assert report.passed, report.describe()

    def test_detects_wrong_gradient(self):
        p = Parameter(np.array([[1.0]]))

        def loss_fn():
            p.grad += 3.0 * p.value * p.value  # wrong: true gradient is 2x
            return float((p.value * p.value).sum())

        report = finite_difference_check(loss_fn, [p])
        assert not report.passed
        assert report.worst[0].rel_error > 0.1

    def test_subsample_requires_rng(self):
        p = Parameter(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            finite_difference_check(lambda: 0.0, [p], max_entries_per_param=2)

    def test_subsampled_entries_counted(self):
        rng = np.random.default_rng(8)
        p = Parameter(rng.uniform(-1, 1, (4, 4)))

        def loss_fn():
            p.grad += 2.0 * p.value
            return float((p.value * p.value).sum())

        report = finite_difference_check(
            loss_fn, [p], rng=np.random.default_rng(0), max_entries_per_param=5
        )
        assert report.num_checked == 5
        assert report.passed


class TestParameter:
    def test_buffers_share_shape_and_start_zero(self):
        p = Parameter(np.ones((2, 3)))
        for buf in (p.grad, p.adam_m, p.adam_v):
            assert buf.shape == (2, 3)
            assert_array_equal(buf, np.zeros((2, 3)))
        assert p.step_count == 0

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Parameter(np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Parameter(np.array([[np.nan]]))
