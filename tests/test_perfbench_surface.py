"""The msmda names the benchmark under perfbench/ looks up must keep resolving.

The test suite never imports perfbench/, so a rename there would otherwise
surface only when the benchmark runs. The tracer's TARGETS table is read from
the source without importing it.
"""

import ast
import importlib
import operator
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tracer_targets() -> dict:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS table")


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    for span, (module, attr) in targets.items():
        owner = importlib.import_module(module)
        assert callable(operator.attrgetter(attr)(owner)), span


def test_harness_exposes_replay_setup_calls():
    from msmda import harness

    for name in ("init_model", "build_tasks", "prepare_task"):
        assert callable(getattr(harness, name)), name


def test_sweep_entry_points_return_the_summary_keys_run_reads():
    # perfbench/run.py checks every sweep through these keys of the returned dict
    from msmda.data import NormalizationSpec, SynthConfig
    from msmda.harness import (
        ExperimentConfig,
        run_ablation,
        run_baseline_source_combine,
        run_experiment,
    )
    from msmda.model import ModelConfig, TrainConfig

    config = ExperimentConfig(
        synth=SynthConfig(num_domains=3, samples_per_domain=30, num_classes=3,
                          feature_dim=6, rng_seed=0),
        norm=NormalizationSpec(kind="none"),
        model=ModelConfig(num_branches=1, cfe_dims=(8, 6, 4), dsfe_dim=4),
        train=TrainConfig(epochs=2, batch_size=16),
        seeds=(0, 1),
    )
    for summary in (run_experiment(config), run_ablation(config, "no_mmd"),
                    run_baseline_source_combine(config)):
        assert isinstance(summary, dict)
        assert summary["aborted_folds"] == []
        assert isinstance(summary["method"], str)
        assert isinstance(summary["final_mean"], float)
        assert [entry["num_folds"] for entry in summary["per_seed"]] == [1, 1]
