import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from msmda.errors import ShapeError, ValidationError
from msmda.losses import (
    NUM_SCALES,
    KernelSpec,
    _joint_median,
    _sq_dists,
    alpha_schedule,
    classification_loss,
    discrepancy_loss,
    mmd_squared,
    total_loss,
)
from msmda.neuralcore import (
    Parameter,
    finite_difference_check,
    softmax,
    softmax_backward,
    softmax_cross_entropy,
)


def doubling_divisors(median: float) -> list[float]:
    """The multiscale kernel's divisors: NUM_SCALES of them doubling around ``median``."""
    center = (NUM_SCALES - 1) / 2.0
    return [median * 2.0 ** (i - center) for i in range(NUM_SCALES)]


def oracle_mmd(source, target, kernel: KernelSpec) -> float:
    """Test-local brute force: explicit double sums over all sample pairs."""
    s = [np.asarray(row, dtype=float) for row in source]
    t = [np.asarray(row, dtype=float) for row in target]

    if kernel.kind == "linear":
        def k(x, y):
            return float(np.dot(x, y))
    else:
        if kernel.kind == "rbf_fixed":
            divisors = [2.0 * kernel.fixed_bandwidth]
        else:
            median = kernel.median
            if median is None:
                joint = s + t
                dists = [
                    float(np.dot(joint[i] - joint[j], joint[i] - joint[j]))
                    for i in range(len(joint))
                    for j in range(i + 1, len(joint))
                ]
                median = float(np.median(dists)) if dists else 1.0
                if median <= 0.0:
                    median = 1.0
            divisors = doubling_divisors(median)

        def k(x, y):
            d2 = float(np.dot(x - y, x - y))
            return sum(math.exp(-d2 / b) for b in divisors) / len(divisors)

    n, m = len(s), len(t)
    ss = sum(k(a, b) for a in s for b in s) / (n * n)
    tt = sum(k(a, b) for a in t for b in t) / (m * m)
    st_ = sum(k(a, b) for a in s for b in t) / (n * m)
    return ss + tt - 2.0 * st_


ALL_KERNELS = [
    KernelSpec(kind="rbf_multiscale"),
    KernelSpec(kind="rbf_fixed", fixed_bandwidth=1.3),
    KernelSpec(kind="linear"),
]


class TestMmdSquared:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_identical_sets_give_zero(self, kernel):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (12, 5))
        value, _, _ = mmd_squared(x, x.copy(), kernel)
        assert 0.0 <= value <= 1e-12

    def test_singletons_fixed_rbf(self):
        # k = exp(-|x-y|^2 / (2 sigma^2)), sigma^2 = 1:
        # 1 + 1 - 2 exp(-1/2)
        kernel = KernelSpec(kind="rbf_fixed", fixed_bandwidth=1.0)
        value, _, _ = mmd_squared([[0.0]], [[1.0]], kernel)
        assert value == pytest.approx(2.0 - 2.0 * math.exp(-0.5), rel=1e-12)
        assert value == pytest.approx(0.786939, abs=1e-6)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_matches_bruteforce_oracle(self, kernel):
        rng = np.random.default_rng(42)
        source = rng.uniform(-1, 1, (32, 4))
        target = rng.uniform(-1, 1, (24, 4)) + 0.3
        value, _, _ = mmd_squared(source, target, kernel)
        expected = oracle_mmd(source, target, kernel)
        assert value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_symmetric_under_swap(self, kernel):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (10, 3))
        b = rng.uniform(-1, 1, (7, 3)) + 0.5
        v_ab, _, _ = mmd_squared(a, b, kernel)
        v_ba, _, _ = mmd_squared(b, a, kernel)
        assert v_ab == pytest.approx(v_ba, rel=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            mmd_squared(np.zeros((0, 3)), np.zeros((4, 3)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mmd_squared(np.zeros((4, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("kind", ["linear", "rbf_fixed", "rbf_multiscale"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(9)
        src = Parameter(rng.uniform(-1, 1, (6, 3)))
        tgt = Parameter(rng.uniform(-1, 1, (5, 3)) + 0.4)
        # pin the median so the finite differences see a fixed kernel
        kernel = KernelSpec(kind=kind).resolve(src.value, tgt.value)

        def loss_fn():
            value, g_s, g_t = mmd_squared(src.value, tgt.value, kernel)
            src.grad += g_s
            tgt.grad += g_t
            return value

        report = finite_difference_check(loss_fn, [src, tgt])
        assert report.passed, report.describe()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["rbf_multiscale", "rbf_fixed", "linear"]))
    @settings(max_examples=20, deadline=None)
    def test_value_never_negative(self, seed, kind):
        rng = np.random.default_rng(seed)
        n, m, d = rng.integers(1, 10, 3)
        value, _, _ = mmd_squared(
            rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (m, d)), KernelSpec(kind=kind)
        )
        assert value >= 0.0

    def test_resolve_pins_bandwidths_around_median(self):
        rng = np.random.default_rng(5)
        s, t = rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, (6, 2))
        spec = KernelSpec(kind="rbf_multiscale")
        resolved = spec.resolve(s, t)
        joint = np.vstack([s, t])
        dists = [
            float(np.dot(joint[i] - joint[j], joint[i] - joint[j]))
            for i in range(len(joint)) for j in range(i + 1, len(joint))
        ]
        assert resolved.median == pytest.approx(float(np.median(dists)), rel=1e-12)
        assert resolved == KernelSpec(median=resolved.median)

    def test_pinned_median_skips_resolution(self):
        spec = KernelSpec(kind="rbf_multiscale", median=0.5)
        assert spec.resolve(np.zeros((2, 2)), np.ones((2, 2))) is spec

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_median_equals_unpinned_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        source, target = rng.normal(size=(40, 6)), rng.normal(size=(30, 6)) + 1.0
        pinned = KernelSpec().resolve(source, target)
        value, g_s, g_t = mmd_squared(source, target, KernelSpec())
        pinned_value, pinned_s, pinned_t = mmd_squared(source, target, pinned)
        assert pinned_value == value
        assert_array_equal(pinned_s, g_s)
        assert_array_equal(pinned_t, g_t)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_out_receives_the_allocating_call_gradients(self, kernel):
        rng = np.random.default_rng(14)
        source, target = rng.normal(size=(11, 4)), rng.normal(size=(9, 4)) + 0.5
        value, g_s, g_t = mmd_squared(source, target, kernel)
        out = (np.full_like(source, np.nan), np.full_like(target, np.nan))
        out_value, out_s, out_t = mmd_squared(source, target, kernel, out=out)
        assert out_s is out[0] and out_t is out[1]
        assert out_value == value
        # the bits, signed zeros included
        assert out_s.tobytes() == g_s.tobytes()
        assert out_t.tobytes() == g_t.tobytes()

    def test_invalid_kernel_spec(self):
        with pytest.raises(ValidationError):
            KernelSpec(kind="polynomial")
        with pytest.raises(ValidationError):
            KernelSpec(fixed_bandwidth=0.0)

    @pytest.mark.parametrize("fields", [
        {"fixed_bandwidth": math.nan},
        {"fixed_bandwidth": math.inf},
        {"median": 0.0},
        {"median": -1.0},
        {"median": math.nan},
        {"median": math.inf},
    ], ids=repr)
    def test_degenerate_kernel_spec_rejected(self, fields):
        # none of these is a usable bandwidth: on first use each would give a
        # NaN, a constant kernel or a division by zero
        with pytest.raises(ValidationError):
            KernelSpec(**fields)

    @pytest.mark.parametrize("kind", ["rbf_multiscale", "rbf_fixed"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_nan_feature_gives_non_finite_value(self, kind, side):
        # a diverged run must surface as a non-finite MMD so that train_fold
        # marks the fold diverged
        rng = np.random.default_rng(12)
        batches = {"source": rng.uniform(-1, 1, (9, 3)), "target": rng.uniform(-1, 1, (7, 3))}
        batches[side][4, 1] = np.nan
        value, _, _ = mmd_squared(batches["source"], batches["target"], KernelSpec(kind=kind))
        assert not math.isfinite(value)

    def test_resolve_with_nan_feature_falls_back_to_unit_median(self):
        rng = np.random.default_rng(13)
        source, target = rng.uniform(-1, 1, (9, 3)), rng.uniform(-1, 1, (7, 3))
        source[2, 0] = np.nan
        resolved = KernelSpec().resolve(source, target)
        assert resolved.median == 1.0


def _random_batches(seed):
    """A source and a target batch of 1-20 rows and 1-40 features, at a
    random scale and offset, so the norms dwarf some distances."""
    rng = np.random.default_rng(seed)
    n, m, k = rng.integers(1, 21), rng.integers(1, 21), rng.integers(1, 41)
    scale, offset = 10.0 ** rng.integers(-3, 4), 10.0 ** rng.integers(-3, 4)
    return rng, rng.normal(size=(n, k)) * scale, rng.normal(size=(m, k)) * scale + offset


class TestSqDists:
    """Each distance block is one GEMM of augmented rows: never negative, near
    the direct sum of squared differences, and NaN where a row is."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_blocks_are_near_the_direct_sums(self, seed):
        _, source, target = _random_batches(seed)
        d_ss, d_tt, d_st, _ = _sq_dists(source, target)
        for d, a, b in ((d_ss, source, source), (d_tt, target, target), (d_st, source, target)):
            direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            bound = 1e-12 * ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1) + 1.0)
            assert (d >= 0.0).all()
            assert (np.abs(d - direct) <= bound).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_nan_feature_makes_its_row_nan(self, seed):
        rng, source, target = _random_batches(seed)
        side = rng.integers(2)
        batch = (source, target)[side]
        row = rng.integers(len(batch))
        batch[row, rng.integers(batch.shape[1])] = np.nan
        d_ss, d_tt, d_st, _ = _sq_dists(source, target)
        nan_s = np.zeros(len(source), bool)
        nan_t = np.zeros(len(target), bool)
        (nan_s, nan_t)[side][row] = True
        for d, rows, cols in ((d_ss, nan_s, nan_s), (d_tt, nan_t, nan_t), (d_st, nan_s, nan_t)):
            touched = rows[:, None] | cols[None, :]
            assert np.isnan(d[touched]).all()
            assert np.isfinite(d[~touched]).all()


def _textbook_sq_dists(a, b):
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _numpy_joint_median(d_ss, d_tt, d_st):
    values = np.concatenate([
        d_ss[np.triu_indices(d_ss.shape[0], k=1)],
        d_tt[np.triu_indices(d_tt.shape[0], k=1)],
        d_st.ravel(),
    ])
    median = float(np.median(values))
    return median if median > 0.0 else 1.0


def _single_select_median(d_ss, d_tt, d_st):
    return _joint_median(d_ss, d_tt, d_st, np.empty(d_ss.size + d_tt.size + d_st.size))


class TestJointMedian:
    """_joint_median selects with one partition; it must equal np.median exactly."""

    @pytest.mark.parametrize("n, m", [
        (5, 4),  # 10 + 6 + 20 = 36 pairs, even
        (6, 4),  # 15 + 6 + 24 = 45 pairs, odd
        (1, 6),  # no within-source pairs: 0 + 15 + 6 = 21
        (6, 1),  # no within-target pairs: 15 + 0 + 6 = 21
        (1, 1),  # a single cross pair
        (1, 2),  # 0 + 1 + 2 = 3
        (256, 256),  # the paper batch: 32640 + 32640 + 65536, even
        (256, 255),  # odd
    ])
    def test_equals_numpy_median(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        s = rng.normal(size=(n, 8))
        t = rng.normal(size=(m, 8)) + 0.5
        d_ss, d_tt, d_st = (
            _textbook_sq_dists(s, s), _textbook_sq_dists(t, t), _textbook_sq_dists(s, t)
        )
        assert _single_select_median(d_ss, d_tt, d_st) == _numpy_joint_median(d_ss, d_tt, d_st)

    @pytest.mark.parametrize("n, m", [(7, 5), (6, 6), (1, 9), (9, 1)])
    def test_equals_numpy_median_with_ties(self, n, m):
        # integer points on a small grid give many equal distances
        rng = np.random.default_rng(n + 31 * m)
        s = rng.integers(0, 3, (n, 2)).astype(float)
        t = rng.integers(0, 3, (m, 2)).astype(float)
        d_ss, d_tt, d_st = (
            _textbook_sq_dists(s, s), _textbook_sq_dists(t, t), _textbook_sq_dists(s, t)
        )
        assert _single_select_median(d_ss, d_tt, d_st) == _numpy_joint_median(d_ss, d_tt, d_st)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_numpy_median_on_arbitrary_blocks(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 12, 2)
        # few distinct values, so ties and zero medians are common
        d_ss, d_tt, d_st = (
            rng.integers(0, 4, shape).astype(float) for shape in ((n, n), (m, m), (n, m))
        )
        assert _single_select_median(d_ss, d_tt, d_st) == _numpy_joint_median(d_ss, d_tt, d_st)

    @pytest.mark.parametrize("block", ["d_ss", "d_tt", "d_st"])
    def test_nan_distance_falls_back_to_one(self, block):
        rng = np.random.default_rng(3)
        blocks = {"d_ss": rng.uniform(1, 2, (5, 5)), "d_tt": rng.uniform(1, 2, (4, 4)),
                  "d_st": rng.uniform(1, 2, (5, 4))}
        # above the diagonal, so the NaN is among the selected pairs
        blocks[block][0, 3] = np.nan
        assert _single_select_median(**blocks) == 1.0
        assert _numpy_joint_median(**blocks) == 1.0

    def test_identical_points_fall_back_to_one(self):
        x = np.ones((4, 3))
        assert _single_select_median(*(_textbook_sq_dists(x, x),) * 3) == 1.0


def _augmented_sq_dists(a, b):
    """|a_i|^2 + |b_j|^2 - 2 a_i.b_j as one product of augmented rows, clamped at zero."""
    ones_a, ones_b = np.ones((len(a), 1)), np.ones((len(b), 1))
    left = np.hstack([a, np.einsum("ij,ij->i", a, a)[:, None], ones_a])
    right = np.hstack([-2.0 * b, ones_b, np.einsum("ij,ij->i", b, b)[:, None]])
    return np.maximum(left @ right.T, 0.0)


def _per_scale_exp_mmd(source, target, divisors):
    """One exp per scale, accumulated in the order mmd_squared uses.

    Distances use the augmented-row product, which mmd_squared must match
    bit for bit; divisors are visited widest first, each scale's kernel is
    the exp of the distances times -1/div, its sum is added as a float, and
    the gradient's sum_s k_s / div_s is kept in units of the current divisor.
    Row and column sums are products with ones. A symmetric block makes its
    rows' update twice over.
    """
    order = sorted(divisors, reverse=True)
    grad_s, grad_t = np.zeros_like(source), np.zeros_like(target)
    n, m = len(source), len(target)
    total = 0.0
    for a, b, coeff, grad_a, grad_b in (
        (source, source, 1.0 / (n * n), grad_s, grad_s),
        (target, target, 1.0 / (m * m), grad_t, grad_t),
        (source, target, -2.0 / (n * m), grad_s, grad_t),
    ):
        d2 = _augmented_sq_dists(a, b)
        value = 0.0
        weighted = None
        for prev, div in zip([None] + order, order):
            e = np.exp(d2 * (-1.0 / div))
            value += float(e.sum())
            weighted = e.copy() if prev is None else weighted * (div / prev) + e
        scale = coeff * (-2.0 / len(order)) / order[-1]
        rows_update = (weighted @ np.ones(len(b)))[:, None] * a - weighted @ b
        if a is b:
            grad_a += (2.0 * scale) * rows_update
        else:
            grad_a += scale * rows_update
            grad_b += scale * ((np.ones(len(a)) @ weighted)[:, None] * b - weighted.T @ a)
        total += coeff * value / len(order)
    return max(total, 0.0), grad_s, grad_t


class TestMultiscaleKernel:
    """The multiscale kernel's halving divisors reuse one exp by squaring; the
    fixed kernel takes one exp."""

    @staticmethod
    def _batches(seed, n=40, m=30, d=6):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_spread_matches_per_scale_exp(self, seed):
        source, target = self._batches(seed)
        kernel = KernelSpec()
        value, g_s, g_t = mmd_squared(source, target, kernel)
        ref_value, ref_s, ref_t = _per_scale_exp_mmd(
            source, target, doubling_divisors(kernel.resolve(source, target).median)
        )
        assert value == pytest.approx(ref_value, rel=1e-13, abs=0.0)
        for got, ref in ((g_s, ref_s), (g_t, ref_t)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_fixed_kernel_takes_one_exp(self):
        source, target = self._batches(7)
        kernel = KernelSpec(kind="rbf_fixed", fixed_bandwidth=0.7)
        value, g_s, g_t = mmd_squared(source, target, kernel)
        ref_value, ref_s, ref_t = _per_scale_exp_mmd(
            source, target, [2.0 * kernel.fixed_bandwidth])
        assert value == ref_value
        assert_array_equal(g_s, ref_s)
        assert_array_equal(g_t, ref_t)


class TestClassificationLoss:
    def test_single_branch_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = rng.uniform(-2, 2, (7, 3))
        labels = rng.integers(0, 3, 7)
        value, grads = classification_loss([logits], [labels])
        expected, expected_grad = softmax_cross_entropy(logits, labels)
        assert value == expected
        assert_array_equal(grads[0], expected_grad)

    def test_two_identical_branches_double_the_loss(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-2, 2, (5, 4))
        labels = rng.integers(0, 4, 5)
        single, _ = classification_loss([logits], [labels])
        double, _ = classification_loss([logits, logits.copy()], [labels, labels.copy()])
        assert double == pytest.approx(2.0 * single, rel=1e-15)

    def test_three_branches_match_sum_of_parts(self):
        rng = np.random.default_rng(3)
        logits = [rng.uniform(-2, 2, (6, 3)) for _ in range(3)]
        labels = [rng.integers(0, 3, 6) for _ in range(3)]
        value, _ = classification_loss(logits, labels)
        expected = sum(softmax_cross_entropy(lg, lb)[0] for lg, lb in zip(logits, labels))
        assert value == pytest.approx(expected, rel=1e-15)

    def test_branch_count_mismatch(self):
        with pytest.raises(ValidationError):
            classification_loss([np.zeros((2, 2))], [])


class TestDiscrepancyLoss:
    def test_identical_branches_give_zero(self):
        p = softmax(np.random.default_rng(0).uniform(-1, 1, (5, 3)))
        value, grads = discrepancy_loss([p, p.copy(), p.copy()])
        assert value == 0.0
        for g in grads:
            assert_array_equal(g, np.zeros_like(p))

    def test_two_branch_hand_value(self):
        value, _ = discrepancy_loss([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        assert value == pytest.approx(1.0, rel=1e-15)

    def test_three_branches_match_pair_bruteforce(self):
        rng = np.random.default_rng(4)
        probs = [softmax(rng.uniform(-2, 2, (6, 4))) for _ in range(3)]
        value, _ = discrepancy_loss(probs)
        pairs = list(itertools.combinations(range(3), 2))
        expected = sum(float(np.mean(np.abs(probs[i] - probs[j]))) for i, j in pairs) / len(pairs)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_branch_gives_zero(self):
        value, grads = discrepancy_loss([np.full((3, 2), 0.5)])
        assert value == 0.0
        assert_array_equal(grads[0], np.zeros((3, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        probs = [softmax(rng.uniform(-2, 2, (4, 3))) for _ in range(4)]
        base, _ = discrepancy_loss(probs)
        perm = list(rng.permutation(4))
        shuffled, _ = discrepancy_loss([probs[i] for i in perm])
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            discrepancy_loss([np.zeros((2, 3)), np.zeros((2, 2))])

    def test_gradients_match_finite_differences(self):
        # random logits through softmax break all ties
        rng = np.random.default_rng(11)
        params = [Parameter(rng.uniform(-1, 1, (4, 3))) for _ in range(3)]

        def loss_fn():
            probs = [softmax(p.value) for p in params]
            value, grads = discrepancy_loss(probs)
            for p, pr, g in zip(params, probs, grads):
                p.grad += softmax_backward(g, pr)
            return value

        report = finite_difference_check(loss_fn, params)
        assert report.passed, report.describe()

    def test_tie_subgradient_is_zero(self):
        equal = np.full((2, 2), 0.5)
        other = np.array([[0.9, 0.1], [0.5, 0.5]])
        _, grads = discrepancy_loss([equal, other])
        # second row ties exactly: its subgradient entries are zero
        assert_array_equal(grads[0][1], np.zeros(2))
        assert_array_equal(grads[1][1], np.zeros(2))


class TestAlphaSchedule:
    def test_zero_at_start(self):
        for total in (1, 10, 200):
            assert alpha_schedule(0, total) == 0.0

    def test_full_ramp_value(self):
        assert alpha_schedule(200, 200) == pytest.approx(0.9999092, abs=1e-6)
        # 2/(1+e^-10) - 1 is tanh(5) analytically
        assert alpha_schedule(200, 200) == pytest.approx(math.tanh(5.0), rel=1e-12)

    def test_half_ramp_value(self):
        assert alpha_schedule(100, 200) == pytest.approx(0.9866143, abs=1e-6)
        assert alpha_schedule(5, 10) == pytest.approx(math.tanh(2.5), rel=1e-12)

    @pytest.mark.parametrize("total", [1, 10, 200])
    def test_monotone_nondecreasing(self, total):
        values = [alpha_schedule(i, total) for i in range(total + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert 0.0 <= values[0] and values[-1] < 1.0

    def test_zero_total_epochs_rejected(self):
        with pytest.raises(ValidationError):
            alpha_schedule(0, 0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError):
            alpha_schedule(11, 10)
        with pytest.raises(ValidationError):
            alpha_schedule(-1, 10)


class TestTotalLoss:
    def test_zero_weights_reduce_to_classification(self):
        bd = total_loss(1.7, 0.4, 0.2, alpha=0.0, beta=0.0)
        assert bd.total == 1.7
        assert bd.mmd == 0.4 and bd.disc == 0.2  # components stay unweighted

    def test_hand_arithmetic(self):
        bd = total_loss(1.0, 2.0, 3.0, alpha=0.5, beta=0.01)
        assert bd.total == pytest.approx(2.03, rel=1e-15)

    def test_all_zero(self):
        assert total_loss(0.0, 0.0, 0.0, 0.0, 0.0).total == 0.0

    def test_non_finite_component_gives_nan_total(self):
        bd = total_loss(float("nan"), 0.5, 0.25, 0.0, 0.0)
        assert math.isnan(bd.total) and math.isnan(bd.cls)
        assert (bd.mmd, bd.disc) == (0.5, 0.25)
        bd = total_loss(2.0, float("inf"), 0.25, 1.0, 0.0)
        assert math.isnan(bd.total)
        assert (bd.cls, bd.mmd, bd.disc) == (2.0, float("inf"), 0.25)  # stored raw
        assert math.isnan(total_loss(2.0, 0.5, 0.25, 1.0, float("nan")).total)

    @given(
        st.floats(-10, 10), st.floats(0, 10), st.floats(0, 10),
        st.floats(0, 1), st.floats(0, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_breakdown_identity(self, cls, mmd, disc, alpha, beta):
        bd = total_loss(cls, mmd, disc, alpha, beta)
        assert bd.total == cls + alpha * mmd + beta * disc
