"""The benchmark's workloads, driven through msmda's public entry points.

Each workload builds its inputs from the workload seed, and ``run`` makes
its entry calls, which write the usual output trees under a given
directory. ``setup_configs`` lists the configs whose set-up calls
``replay_setup`` can make again, so a run can time set-up more than once.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

from msmda import cli, harness
from msmda.data import NormalizationSpec, SynthConfig, generate_synthetic
from msmda.harness import ExperimentConfig
from msmda.losses import KernelSpec
from msmda.model import ModelConfig, TrainConfig

PAPER_CFE = (256, 128, 64)
PAPER_DSFE = 32


def replay_setup(config: ExperimentConfig) -> None:
    """Make the set-up calls a sweep of ``config`` makes, without training."""
    for seed in config.seeds:
        for task in harness.build_tasks(config, seed):
            prepared = harness.prepare_task(task, config.norm, config.method)
            harness.init_model(replace(
                config.model,
                num_branches=prepared.num_sources,
                input_dim=prepared.target.feature_dim,
                num_classes=prepared.target.num_classes,
            ))


class CrossSubject14:
    """Paper shape held in memory: 15 synthetic domains, 14 branches, one fold.

    The domains are those of experiment seed 0; the workload seed picks the
    batch-sampling stream, so target_acc varies little between seeds.
    """

    name = "cross-subject-14"
    num_classes = 3

    def __init__(self, seed: int, smoke: bool = False):
        rows, dim = (60, 12) if smoke else (3394, 310)
        self.config = ExperimentConfig(
            synth=SynthConfig(num_domains=15, samples_per_domain=rows, feature_dim=dim),
            model=ModelConfig(num_branches=14, cfe_dims=(16, 8) if smoke else PAPER_CFE,
                              dsfe_dim=4 if smoke else PAPER_DSFE),
            # 100 steps: the fewest that leave ten step times beyond p90
            train=TrainConfig(epochs=4 if smoke else 5,
                              batch_size=16 if smoke else 256,
                              iterations_per_epoch=25 if smoke else 20,
                              rng_seed=seed),
            kernel=KernelSpec(kind="rbf_multiscale"),
            seeds=(0,),
        )

    def prepare(self, workdir: str) -> None:
        pass

    def run(self, out_dir: str) -> list[tuple[dict, str]]:
        return [(harness.run_experiment(replace(self.config, out_dir=out_dir)), out_dir)]

    def setup_configs(self) -> list[ExperimentConfig]:
        return [self.config]


def write_grid(root: str, seed: int, sessions: int, subjects: int, rows: int, dim: int,
               part: int = 0, parts: int = 1) -> None:
    """Write every ``parts``-th domain, from ``part``, of a synthetic grid.

    The files hold the bytes ``msmda gen-synth`` writes for the same
    domains (``repr`` of every float) in the CSV contract's layout, without
    a manifest, so loading scans the tree.
    """
    domains = generate_synthetic(SynthConfig(
        num_domains=sessions * subjects, samples_per_domain=rows,
        feature_dim=dim, rng_seed=seed,
    ))
    header = ",".join([f"f{i}" for i in range(dim)] + ["label"]) + "\n"
    for idx, domain in enumerate(domains):
        if idx % parts != part:
            continue
        k, j = divmod(idx, subjects)
        session_dir = os.path.join(root, f"session{k + 1}")
        os.makedirs(session_dir, exist_ok=True)
        with open(os.path.join(session_dir, f"subject{j + 1}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(header)
            fh.writelines(
                ",".join(map(repr, row)) + f",{label}\n"
                for row, label in zip(domain.features.tolist(), domain.labels.tolist())
            )
            # on disk now, so no write-back competes with the timed parse
            fh.flush()
            os.fsync(fh.fileno())


class CrossSessionCsv:
    """A 3-session x 4-subject CSV grid trained through ``cli.main``.

    The grid is that of generator seed 0; the workload seed picks the
    command's two experiment seeds (model init and batch sampling).
    """

    name = "cross-session-csv"
    num_classes = 3
    sessions, subjects = 3, 4

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.rows, self.dim, self.batch = (40, 10, 4) if smoke else (3394, 310, 256)
        self.grid = None

    def prepare(self, workdir: str) -> None:
        """Write the grid from two child processes; their memory is not the run's."""
        self.grid = os.path.join(workdir, "grid")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        procs = []
        try:
            for part in range(2):
                procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), self.grid, str(part), "2",
                     str(self.rows), str(self.dim)],
                    env=env,
                ))
        finally:
            codes = [proc.wait() for proc in procs]
        if any(codes):
            raise RuntimeError(f"writing the CSV grid failed: exit codes {codes}")

    def argv(self, out_dir: str) -> list[str]:
        return [
            "train", "--data", self.grid, "--scenario", "cross-session",
            "--kernel", "linear", "--seeds", f"{2 * self.seed},{2 * self.seed + 1}",
            "--epochs", "2", "--batch-size", str(self.batch), "--out", out_dir,
        ]

    def run(self, out_dir: str) -> list[tuple[dict, str]]:
        # the summary lines the command prints are part of its work
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(out_dir))
        if code != 0:
            raise RuntimeError(f"msmda train exited with {code}")
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            return [(json.load(fh), out_dir)]

    def setup_configs(self) -> list[ExperimentConfig]:
        # one set-up parses all 12 files once per seed (about 17 s): the
        # entry call's own set-up is the only sample a run can afford
        return []


TOY_SYNTH = SynthConfig(
    num_domains=5,
    samples_per_domain=600,
    num_classes=3,
    feature_dim=16,
    class_separation=3.0,
    domain_shift_scale=1.5,
    noise_std=1.0,
    rng_seed=0,
)


class ToySweep:
    """Criterion-7 fixture: the four paired sweeps over its first three seeds.

    The domains are those of the fixture's seeds; the workload seed picks
    the batch-sampling stream. Seeded domains alone move the full model's
    accuracy by a quarter between workload seeds.
    """

    name = "toy-sweep"
    num_classes = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.config = ExperimentConfig(
            synth=TOY_SYNTH,
            norm=NormalizationSpec(kind="none"),
            model=ModelConfig(num_branches=1, cfe_dims=(32, 24, 16), dsfe_dim=8),
            train=TrainConfig(epochs=4 if smoke else 30, batch_size=128, lr=0.01,
                              rng_seed=seed),
            seeds=(0,) if smoke else (0, 1, 2),
        )

    def prepare(self, workdir: str) -> None:
        pass

    def run(self, out_dir: str) -> list[tuple[dict, str]]:
        full, no_mmd, no_disc, baseline = (
            replace(self.config, out_dir=os.path.join(out_dir, part))
            for part in ("full", "no_mmd", "no_disc", "baseline")
        )
        # the full model first: its summary gives the workload's target_acc
        return [
            (harness.run_experiment(full), full.out_dir),
            (harness.run_ablation(no_mmd, "no_mmd"), no_mmd.out_dir),
            (harness.run_ablation(no_disc, "no_disc"), no_disc.out_dir),
            (harness.run_baseline_source_combine(baseline), baseline.out_dir),
        ]

    def setup_configs(self) -> list[ExperimentConfig]:
        return [self.config] * 3 + [replace(self.config, method="source_combine")]


WORKLOADS = {w.name: w for w in (CrossSubject14, CrossSessionCsv, ToySweep)}


if __name__ == "__main__":
    # workloads.py ROOT PART PARTS ROWS DIM: write one share of the cross-session grid
    root, (part, parts, rows, dim) = sys.argv[1], map(int, sys.argv[2:6])
    write_grid(root, 0, CrossSessionCsv.sessions, CrossSessionCsv.subjects, rows, dim,
               part, parts)
