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
    fan_in_uniform,
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
        layer = LinearLayer(fan_in_uniform(3, 7, rng), np.zeros((1, 7)))
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


    def test_out_destination_gives_the_same_bytes(self):
        rng = np.random.default_rng(10)
        layer = make_layer(rng.normal(size=(5, 4)), rng.normal(size=(1, 4)))
        x, g = rng.normal(size=(7, 5)), rng.normal(size=(7, 4))
        out, grad_in = np.empty((7, 4)), np.empty((7, 5))
        assert layer.forward(x, out=out) is out
        assert out.tobytes() == (x @ layer.weight.value + layer.bias.value).tobytes()
        assert layer.backward(x, g, out=grad_in) is grad_in
        assert grad_in.tobytes() == (g @ layer.weight.value.T).tobytes()


class TestLinearBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(1)
        layer = LinearLayer(fan_in_uniform(3, 2, rng), np.zeros((1, 2)))
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
        layer = LinearLayer(fan_in_uniform(6, 4, rng), np.zeros((1, 4)))
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

    def test_without_input_grad_returns_none_and_same_param_grads(self):
        rng = np.random.default_rng(5)
        full = LinearLayer(fan_in_uniform(7, 4, rng), np.zeros((1, 4)))
        skip = LinearLayer(full.weight.value.copy(), full.bias.value.copy())
        x, g = rng.normal(size=(11, 7)), rng.normal(size=(11, 4))
        for _ in range(2):  # accumulation too
            assert full.backward(x, g).shape == x.shape
            assert skip.backward(x, g, input_grad=False) is None
        assert skip.weight.grad.tobytes() == full.weight.grad.tobytes()
        assert skip.bias.grad.tobytes() == full.bias.grad.tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        layer = LinearLayer(fan_in_uniform(4, 3, rng), np.zeros((1, 3)))
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

    @pytest.mark.parametrize("slope", [5e-324, 1e-3, 0.01, 0.2, 0.5, 0.99, 1 - 2**-53])
    def test_bytes_equal_the_where_form(self, slope):
        # tobytes, not ==, so NaN payloads and the sign of zero count too
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, -1e-310, 1.0, -1.0, 1e308, -1e308]
        rng = np.random.default_rng(6)
        blocks = [
            np.array([special]),
            rng.normal(size=(64, 33)),
            rng.integers(0, 2**64, (64, 33), dtype=np.uint64).view(np.float64),  # any bits
        ]
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            for x in blocks:
                expected = np.where(x > 0.0, x, slope * x)
                assert leaky_relu(x, slope).tobytes() == expected.tobytes()

    @given(
        st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, np.inf, -np.inf, np.nan]),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        ), min_size=1, max_size=24),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_backward_from_output_equals_backward_from_input(self, values, grad, slope):
        # the step keeps only each layer's output; its sign must be the input's
        z = np.array([values])
        g = np.full_like(z, grad)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            from_output = leaky_relu_backward(g, leaky_relu(z, slope), slope)
            from_input = leaky_relu_backward(g, z, slope)
        assert from_output.tobytes() == from_input.tobytes()

    @pytest.mark.parametrize("slope", [0.01, 0.3, 0.7, 0.999])
    def test_backward_bytes_equal_the_where_form(self, slope):
        # the factor max(z > 0, slope) has no branch; every pairing of special
        # forward values and gradients must give the where form's bytes
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                            2.2250738585072014e-308, -1e-310, 1.0, -1.0, 1e308, -1e308])
        rng = np.random.default_rng(8)
        pairs = [
            np.broadcast_arrays(special[:, None], special[None, :]),
            (rng.normal(size=(64, 33)), rng.normal(size=(64, 33))),
            tuple(rng.integers(0, 2**64, (2, 64, 33), dtype=np.uint64).view(np.float64)),
        ]
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            for z, g in pairs:
                z, g = np.ascontiguousarray(z), np.ascontiguousarray(g)
                expected = (g * np.where(z > 0.0, 1.0, slope)).tobytes()
                assert leaky_relu_backward(g, z, slope).tobytes() == expected
                into = z.copy()  # the step writes the result over the forward output
                assert leaky_relu_backward(g, into, slope, out=into) is into
                assert into.tobytes() == expected

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


def two_pass_softmax_cross_entropy(logits, labels):
    """Reference: the loss and the gradient each take their own softmax pass."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(logits.shape[0])
    loss = float(np.mean(log_z - shifted[rows, labels]))
    grad = softmax(logits)
    grad[rows, labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


class TestSoftmaxCrossEntropy:
    def test_bytes_match_two_pass_form(self):
        rng = np.random.default_rng(12)
        specials = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 0.0])
        for _ in range(3000):
            rows, cols = (int(v) for v in rng.integers(1, 6, 2))
            logits = rng.normal(0.0, 10.0 ** rng.uniform(-2, 3), (rows, cols))
            mask = rng.random((rows, cols)) < 0.15
            logits[mask] = rng.choice(specials, int(mask.sum()))
            labels = rng.integers(0, cols, rows)
            with np.errstate(all="ignore"):
                loss, grad = softmax_cross_entropy(logits, labels)
                ref_loss, ref_grad = two_pass_softmax_cross_entropy(logits, labels)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

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

    def test_bytes_equal_the_textbook_expression(self):
        # the in-place update must keep the textbook expressions' order, bit for bit
        def textbook(value, m, v, g, t, lr):
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            return value - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v

        rng = np.random.default_rng(9)
        p = Parameter(rng.normal(size=(1, 1001)))
        value, m, v = p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value)
        for t, scale in enumerate([1.0, 0.0, 1e-3, 0.0, 50.0], start=1):
            g = scale * rng.normal(size=p.shape)
            p.grad += g
            adam_step(p, lr=0.03)
            value, m, v = textbook(value, m, v, g, t, 0.03)
            assert p.value.tobytes() == value.tobytes()
            assert p.adam_m.tobytes() == m.tobytes()
            assert p.adam_v.tobytes() == v.tobytes()
            assert not p.grad.any()

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
        assert report.max_rel_error > 0.1

    def test_fail_line_names_the_worst_entry(self):
        p, q = Parameter(np.array([[1.0, 2.0]])), Parameter(np.array([[1.0, 3.0, -1.0]]))

        def loss_fn():
            p.grad += 2.0 * p.value
            q.grad += 2.0 * q.value
            q.grad[0, 1] += 0.5  # the only wrong entry: param 1, flat index 1
            return float((p.value ** 2).sum() + (q.value ** 2).sum())

        report = finite_difference_check(loss_fn, [p, q])
        assert report.describe() == (
            f"FAIL: max relative error {report.max_rel_error:.3e} over 5 entries "
            "(tolerance 1.0e-04) at param 1 entry 1")
        assert "\n" not in report.describe()

    def test_nan_gradient_fails(self):
        p = Parameter(np.array([[1.0, 2.0, 3.0]]))

        def loss_fn():
            p.grad += 2.0 * p.value
            p.grad[0, 1] = np.nan
            return float((p.value ** 2).sum())

        report = finite_difference_check(loss_fn, [p])
        assert not report.passed
        assert report.describe().endswith(" at param 0 entry 1")

    def test_checks_every_entry_of_every_parameter(self):
        rng = np.random.default_rng(8)
        layer = LinearLayer(fan_in_uniform(4, 3, rng), np.zeros((1, 3)))
        x = rng.uniform(-1, 1, (5, 4))
        labels = rng.integers(0, 3, 5)

        def loss_fn():
            loss, grad = softmax_cross_entropy(layer.forward(x), labels)
            layer.backward(x, grad)
            return loss

        report = finite_difference_check(loss_fn, layer.parameters())
        assert report.num_checked == sum(p.value.size for p in layer.parameters()) == 15
        assert report.passed, report.describe()


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
