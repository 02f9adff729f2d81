import csv
import os
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from msmda.data import NormalizationSpec, SynthConfig
from msmda.harness import (
    ExperimentConfig,
    run_ablation,
    run_baseline_source_combine,
    run_experiment,
)
from msmda.model import ModelConfig, TrainConfig

# Desk-scale transfer benchmark: 4 source domains, 3 classes, 600 samples per
# domain, moderate affine shift, 10 paired seeds. Normalization is off so the
# constructed domain shift reaches the model. Shared between the harness tests
# and the acceptance suite because the sweeps take about a minute.
BENCHMARK_SEEDS = tuple(range(10))
BENCHMARK_SYNTH = SynthConfig(
    num_domains=5,
    samples_per_domain=600,
    num_classes=3,
    feature_dim=16,
    class_separation=3.0,
    domain_shift_scale=1.5,
    noise_std=1.0,
    rng_seed=0,
)
BENCHMARK_CONFIG = ExperimentConfig(
    synth=BENCHMARK_SYNTH,
    norm=NormalizationSpec(kind="none"),
    model=ModelConfig(num_branches=1, cfe_dims=(32, 24, 16), dsfe_dim=8),
    train=TrainConfig(epochs=30, batch_size=128, lr=0.01),
    seeds=BENCHMARK_SEEDS,
)


def usable_cpus(monkeypatch, count, blas_threads=1):
    """Make ``count`` CPUs usable, and each process's BLAS ``blas_threads``
    threads wide (``None``: as OpenBLAS chooses with no setting), as the grid
    parse and the fold pool see them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))


def per_seed_results(run_dir):
    """Final target accuracy and first/final epoch MMD of each seed's one fold,
    read from the ``metrics.csv`` of a sweep written to ``run_dir``."""
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
    results = {}
    for seed in {int(r["seed"]) for r in rows}:
        epochs = [r for r in rows if int(r["seed"]) == seed]
        results[seed] = SimpleNamespace(
            final_accuracy=float(epochs[-1]["avg_accuracy"]),
            first_epoch_mmd=float(epochs[0]["mmd"]),
            final_epoch_mmd=float(epochs[-1]["mmd"]),
        )
    return results


@pytest.fixture(scope="session")
def synthetic_benchmark(tmp_path_factory):
    """Paired sweeps: full model, no-mmd ablation, no-disc ablation, baseline.

    Each sweep's entry is the directory it wrote its outputs to.
    """
    root = tmp_path_factory.mktemp("benchmark")
    results = {name: root / name for name in ("full", "no_mmd", "no_disc", "baseline")}

    def config(name):
        return replace(BENCHMARK_CONFIG, out_dir=str(results[name]))

    start = time.time()
    run_experiment(config("full"))
    run_ablation(config("no_mmd"), "no_mmd")
    run_ablation(config("no_disc"), "no_disc")
    run_baseline_source_combine(config("baseline"))
    results["elapsed_seconds"] = time.time() - start
    return results
