"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The synthetic transfer benchmark (criterion 7) reuses the session-scoped
sweeps from conftest; everything else is self-contained, with expected
values computed by independent oracles coded here.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import BENCHMARK_CONFIG, per_seed_results
from msmda.cli import main as cli_main
from msmda.data import (
    DomainDataset,
    NormalizationSpec,
    TransferTask,
    de_gaussian,
    generate_synthetic,
    make_folds,
    normalize_matrix,
)
from msmda.data import SynthConfig
from msmda.harness import composite_gradcheck_case, normalize_domains, prepare_task
from msmda.losses import KernelSpec, alpha_schedule, discrepancy_loss, mmd_squared
from msmda.model import ModelConfig, compute_losses
from msmda.neuralcore import (
    GRADCHECK_STEP,
    GRADCHECK_TOLERANCE,
    LinearLayer,
    Parameter,
    fan_in_uniform,
    finite_difference_check,
    leaky_relu,
    leaky_relu_backward,
    softmax,
    softmax_backward,
    softmax_cross_entropy,
)


def report(num: str, passed: bool, description: str) -> None:
    print(f"ACCEPTANCE {num} [{'PASS' if passed else 'FAIL'}] {description}")


# --------------------------------------------------------------------------
# criterion 1: MMD oracle equivalence


def slow_brute_force_mmd(source, target, kind, fixed_bandwidth=None,
                         num_scales=5, scale_step=2.0):
    """Most literal estimator: three double sums over plain Python floats."""
    s = [tuple(float(v) for v in row) for row in source]
    t = [tuple(float(v) for v in row) for row in target]

    if kind == "linear":
        def k(x, y):
            return sum(a * b for a, b in zip(x, y))
    else:
        if kind == "rbf_fixed":
            divisors = [2.0 * fixed_bandwidth]
        else:
            joint = s + t
            dists = []
            for i in range(len(joint)):
                for j in range(i + 1, len(joint)):
                    dists.append(sum((a - b) ** 2 for a, b in zip(joint[i], joint[j])))
            dists.sort()
            mid = len(dists) // 2
            median = (dists[mid] if len(dists) % 2
                      else 0.5 * (dists[mid - 1] + dists[mid]))
            if median <= 0.0:
                median = 1.0
            center = (num_scales - 1) / 2.0
            divisors = [median * scale_step ** (i - center) for i in range(num_scales)]

        def k(x, y):
            d2 = sum((a - b) ** 2 for a, b in zip(x, y))
            return sum(math.exp(-d2 / div) for div in divisors) / len(divisors)

    n, m = len(s), len(t)
    ss = sum(k(a, b) for a in s for b in s) / (n * n)
    tt = sum(k(a, b) for a in t for b in t) / (m * m)
    st = sum(k(a, b) for a in s for b in t) / (n * m)
    return ss + tt - 2.0 * st


def test_criterion_1_mmd_oracle_equivalence():
    rng = np.random.default_rng(12345)
    start = time.time()
    worst = 0.0
    for case in range(50):
        kind = ("rbf_multiscale", "rbf_fixed", "linear")[case % 3]
        n, m = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        d = int(rng.integers(1, 9))
        source = rng.uniform(-1.0, 1.0, (n, d))
        target = rng.uniform(-1.0, 1.0, (m, d)) + rng.uniform(-0.5, 0.5)
        bandwidth = float(rng.uniform(0.5, 2.0))
        value, _, _ = mmd_squared(
            source, target, KernelSpec(kind=kind, fixed_bandwidth=bandwidth))
        expected = slow_brute_force_mmd(source, target, kind, fixed_bandwidth=bandwidth)
        worst = max(worst, abs(value - expected) / max(abs(value), abs(expected), 1e-12))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report("1", ok, f"mmd matches brute-force oracle over 50 cases "
                    f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")
    assert worst < 1e-10
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# criterion 2: gradient correctness


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(777)
    start = time.time()
    failures = []

    assert (GRADCHECK_STEP, GRADCHECK_TOLERANCE) == (1e-5, 1e-4)

    def check(name, loss_fn, params):
        rep = finite_difference_check(loss_fn, params)
        if not rep.passed:
            failures.append(f"{name}: {rep.describe()}")

    layer = LinearLayer(fan_in_uniform(5, 4, rng), np.zeros((1, 4)))
    x = rng.uniform(-1, 1, (7, 5))
    labels = rng.integers(0, 4, 7)

    def linear_ce():
        loss, grad = softmax_cross_entropy(layer.forward(x), labels)
        layer.backward(x, grad)
        return loss

    check("linear layer", linear_ce, layer.parameters())

    p = Parameter(rng.uniform(0.2, 1.0, (4, 4)) * rng.choice([-1.0, 1.0], (4, 4)))

    def leaky_loss():
        y = leaky_relu(p.value, 0.01)
        p.grad += leaky_relu_backward(y, p.value, 0.01)
        return 0.5 * float((y * y).sum())

    check("leaky relu", leaky_loss, [p])

    logits = Parameter(rng.uniform(-2, 2, (6, 3)))
    ce_labels = rng.integers(0, 3, 6)

    def ce_loss():
        loss, grad = softmax_cross_entropy(logits.value, ce_labels)
        logits.grad += grad
        return loss

    check("softmax cross-entropy", ce_loss, [logits])

    for kind in ("linear", "rbf_fixed", "rbf_multiscale"):
        src = Parameter(rng.uniform(-1, 1, (6, 3)))
        tgt = Parameter(rng.uniform(-1, 1, (5, 3)) + 0.3)
        kernel = KernelSpec(kind=kind).resolve(src.value, tgt.value)

        def mmd_loss(src=src, tgt=tgt, kernel=kernel):
            value, g_s, g_t = mmd_squared(src.value, tgt.value, kernel)
            src.grad += g_s
            tgt.grad += g_t
            return value

        check(f"mmd ({kind})", mmd_loss, [src, tgt])

    disc_params = [Parameter(rng.uniform(-1, 1, (5, 3))) for _ in range(3)]

    def disc_loss():
        probs = [softmax(q.value) for q in disc_params]
        value, grads = discrepancy_loss(probs)
        for q, pr, g in zip(disc_params, probs, grads):
            q.grad += softmax_backward(g, pr)
        return value

    check("discrepancy (tie-broken)", disc_loss, disc_params)

    model, batches, target, margin = composite_gradcheck_case()
    # the +/- 1e-5 probes must not be able to reach a LeakyReLU or
    # discrepancy kink, otherwise central differences are meaningless
    assert margin > 10 * 1e-5, f"composite case too close to a kink ({margin:.2e})"
    kernel = KernelSpec(kind="rbf_fixed", fixed_bandwidth=1.0)

    def composite():
        return compute_losses(model, batches, target, alpha=0.7, beta=0.05,
                              kernel=kernel).total

    check("full composite (3-branch toy)", composite, model.parameters())

    elapsed = time.time() - start
    ok = not failures and elapsed < 30.0
    report("2", ok, f"all finite-difference checks < 1e-4 rel error ({elapsed:.1f}s)")
    assert not failures, "\n".join(failures)
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# criterion 3: schedule exactness


def test_criterion_3_schedule_exactness():
    exact_zero = all(alpha_schedule(0, total) == 0.0 for total in (1, 10, 200))
    end_value = alpha_schedule(200, 200)
    end_ok = abs(end_value - 0.9999092) < 1e-6
    monotone = True
    for total in (1, 10, 200):
        values = [alpha_schedule(i, total) for i in range(total + 1)]
        monotone &= all(b >= a for a, b in zip(values, values[1:]))
    ok = exact_zero and end_ok and monotone
    report("3", ok, f"ramp exact at 0, {end_value:.7f} at E, monotone for E in (1, 10, 200)")
    assert exact_zero and end_ok and monotone


# --------------------------------------------------------------------------
# criterion 4: normalization invariants


def test_criterion_4_normalization_invariants():
    rng = np.random.default_rng(99)
    x = rng.normal(-1.0, 4.0, (60, 9))
    x[:, 4] = 7.0  # constant column

    z = normalize_matrix(x, "electrode_wise")
    nonconst = [c for c in range(9) if c != 4]
    col_means_ok = float(np.max(np.abs(z[:, nonconst].mean(axis=0)))) < 1e-9
    col_stds_ok = float(np.max(np.abs(z[:, nonconst].std(axis=0) - 1.0))) < 1e-9
    const_ok = bool(np.all(z[:, 4] == 0.0))

    idempotent = True
    for kind in ("electrode_wise", "sample_wise", "global_wise"):
        once = normalize_matrix(x, kind)
        idempotent &= float(np.max(np.abs(normalize_matrix(once, kind) - once))) < 1e-10

    # the source-combine baseline's merged sources, built and prepared as a run does
    merged = []
    for order in ("A", "B"):
        spec = NormalizationSpec(kind="electrode_wise", order=order)
        domains = {
            0: DomainDataset(np.array([[0.0]]), np.array([0]), 2, domain_id=(1, 1)),
            1: DomainDataset(np.array([[10.0]]), np.array([1]), 2, domain_id=(1, 2)),
            2: DomainDataset(np.array([[4.0]]), np.array([0]), 2, domain_id=(1, 3)),
        }
        normalize_domains(domains, spec, "source_combine")
        task = TransferTask(sources=[domains[0], domains[1]], target=domains[2], fold_id="c4")
        merged.append(prepare_task(task, spec, "source_combine").sources[0])
    a, b = merged
    orders_ok = (np.array_equal(a.features, [[0.0], [0.0]])
                 and np.array_equal(b.features, [[-1.0], [1.0]]))

    ok = col_means_ok and col_stds_ok and const_ok and idempotent and orders_ok
    report("4", ok, "electrode-wise stats, idempotence, and order A/B divergence hold")
    assert col_means_ok and col_stds_ok and const_ok
    assert idempotent
    assert orders_ok


# --------------------------------------------------------------------------
# criterion 5: fold arithmetic


def test_criterion_5_fold_arithmetic():
    rng = np.random.default_rng(5)
    grid = {
        (k, j): DomainDataset(rng.uniform(-1, 1, (6, 4)), rng.integers(0, 2, 6),
                              num_classes=2, domain_id=(k, j))
        for k in range(1, 4)
        for j in range(1, 16)
    }
    session_tasks = make_folds(grid, "cross_session")
    subject_tasks = make_folds(grid, "cross_subject")

    session_ok = (len(session_tasks) == 15
                  and all(t.num_sources == 2 for t in session_tasks))
    subject_ok = (len(subject_tasks) == 3
                  and all(t.num_sources == 14 for t in subject_tasks))
    disjoint = all(
        task.target.domain_id not in {s.domain_id for s in task.sources}
        for task in session_tasks + subject_tasks
    )
    ok = session_ok and subject_ok and disjoint
    report("5", ok, "cross-session 15 folds (N=2), cross-subject 3 folds (N=14), all disjoint")
    assert session_ok and subject_ok and disjoint


# --------------------------------------------------------------------------
# criterion 6: differential-entropy closed form


def quad_entropy_of_fitted_gaussian(window) -> float:
    """Numerical integration of -f ln f for the Gaussian fitted to the window."""
    from scipy.integrate import quad

    w = np.asarray(window, dtype=float)
    mu = float(w.mean())
    var = float(w.var())
    sigma = math.sqrt(var)

    def integrand(x):
        f = math.exp(-((x - mu) ** 2) / (2.0 * var)) / (sigma * math.sqrt(2.0 * math.pi))
        return -f * math.log(f) if f > 0.0 else 0.0

    value, _ = quad(integrand, mu - 12.0 * sigma, mu + 12.0 * sigma, limit=200)
    return value


def test_criterion_6_de_closed_form():
    worst = 0.0
    for variance in (0.1, 1.0, 10.0):
        half = math.sqrt(variance)  # window [-h, h] has population variance h^2
        window = [-half, half]
        worst = max(worst, abs(de_gaussian(window) - quad_entropy_of_fitted_gaussian(window)))
    unit = de_gaussian([-1.0, 1.0])
    unit_ok = abs(unit - 1.418939) < 1e-6
    ok = worst < 1e-6 and unit_ok
    report("6", ok, f"closed form matches quadrature oracle "
                    f"(worst abs err {worst:.2e}; DE(var=1)={unit:.6f})")
    assert worst < 1e-6
    assert unit_ok


# --------------------------------------------------------------------------
# criterion 7: synthetic transfer benchmark


def test_criterion_7_synthetic_transfer_benchmark(synthetic_benchmark):
    seeds = BENCHMARK_CONFIG.seeds
    full = per_seed_results(synthetic_benchmark["full"])
    no_mmd = per_seed_results(synthetic_benchmark["no_mmd"])
    baseline = per_seed_results(synthetic_benchmark["baseline"])

    wins_vs_ablation = sum(
        full[s].final_accuracy >= no_mmd[s].final_accuracy for s in seeds)
    mmd_decreased = sum(
        full[s].final_epoch_mmd < full[s].first_epoch_mmd for s in seeds)
    full_mean = float(np.mean([full[s].final_accuracy for s in seeds]))
    base_mean = float(np.mean([baseline[s].final_accuracy for s in seeds]))
    elapsed = synthetic_benchmark["elapsed_seconds"]

    ok_a = wins_vs_ablation >= 8
    ok_b = mmd_decreased >= 9
    ok_c = full_mean >= base_mean - 0.01
    ok_time = elapsed < 300.0
    ok = ok_a and ok_b and ok_c and ok_time
    report("7", ok,
           f"(a) full>=no-mmd in {wins_vs_ablation}/10 seeds, "
           f"(b) branch mmd decreased in {mmd_decreased}/10, "
           f"(c) full {full_mean:.4f} vs baseline {base_mean:.4f}, "
           f"runtime {elapsed:.0f}s")
    assert ok_a, f"full beat the no-mmd ablation in only {wins_vs_ablation}/10 seeds"
    assert ok_b, f"branch mmd decreased in only {mmd_decreased}/10 seeds"
    assert ok_c, f"full mean {full_mean:.4f} fell > 1 point below baseline {base_mean:.4f}"
    assert ok_time, f"benchmark took {elapsed:.0f}s (budget 300s)"


# --------------------------------------------------------------------------
# criterion 8: determinism of the CLI


def test_criterion_8_train_determinism(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps(dict(
        num_domains=3, samples_per_domain=60, num_classes=3, feature_dim=8,
        class_separation=3.0, domain_shift_scale=1.0, noise_std=1.0)))
    flags = ["train", "--synth", str(synth), "--seeds", "0,1", "--epochs", "5",
             "--batch-size", "32", "--cfe-dims", "12,10,8", "--dsfe-dim", "6",
             "--norm", "none", "--quiet"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(flags + ["--out", str(out_a)]) == 0
    assert cli_main(flags + ["--out", str(out_b)]) == 0

    mismatches = []
    for root, _, files in os.walk(out_a):
        for name in files:
            path_a = os.path.join(root, name)
            path_b = path_a.replace(str(out_a), str(out_b), 1)
            if not filecmp.cmp(path_a, path_b, shallow=False):
                mismatches.append(os.path.relpath(path_a, out_a))
    names_a = sorted(os.path.relpath(os.path.join(r, f), out_a)
                     for r, _, fs in os.walk(out_a) for f in fs)
    names_b = sorted(os.path.relpath(os.path.join(r, f), out_b)
                     for r, _, fs in os.walk(out_b) for f in fs)
    ok = not mismatches and names_a == names_b and len(names_a) >= 5
    report("8", ok, f"repeated train run produced {len(names_a)} bit-identical files")
    assert names_a == names_b
    assert not mismatches, f"files differ between reruns: {mismatches}"


# --------------------------------------------------------------------------
# criterion 9 (conditional): real cross-subject accuracy


def test_criterion_9_real_data_cross_subject():
    root = os.environ.get("MSMDA_SEED_DATA")
    if not root or not os.path.isdir(root):
        report("9", True, "skipped: set MSMDA_SEED_DATA to a DE-feature dataset root")
        pytest.skip("MSMDA_SEED_DATA not set; real-data criterion skipped, not failed")

    from msmda.harness import ExperimentConfig, run_experiment
    from msmda.model import TrainConfig

    config = ExperimentConfig(
        scenario="cross_subject",
        data_root=root,
        norm=NormalizationSpec(kind="electrode_wise"),
        model=ModelConfig(num_branches=1),
        train=TrainConfig(epochs=200, batch_size=256, lr=0.01),
        seeds=(0,),
    )
    summary = run_experiment(config)
    mean = summary["final_mean"]
    ok = mean >= 0.80
    report("9", ok, f"cross-subject mean accuracy {mean:.4f} "
                    f"(reference 0.8963 +/- 0.0679, acceptance >= 0.80)")
    assert ok
