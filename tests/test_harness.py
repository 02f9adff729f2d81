import csv
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import per_seed_results, usable_cpus
from msmda import data, harness
from msmda.cli import main
from msmda.data import (
    NormalizationSpec,
    SynthConfig,
    generate_synthetic,
    save_dataset_grid,
)
from msmda.errors import ValidationError
from msmda.harness import (
    METRICS_COLUMNS,
    ExperimentConfig,
    build_tasks,
    dump_features,
    prepare_task,
    run_ablation,
    run_baseline_source_combine,
    run_experiment,
    train_fold,
    verify,
)
from msmda.model import ModelConfig, TrainConfig, load_checkpoint, predict
from msmda.neuralcore import LinearLayer, softmax_cross_entropy


def small_config(**overrides):
    defaults = dict(
        synth=SynthConfig(num_domains=3, samples_per_domain=90, num_classes=3,
                          feature_dim=8, class_separation=3.0,
                          domain_shift_scale=0.8, noise_std=1.0, rng_seed=0),
        norm=NormalizationSpec(kind="none"),
        model=ModelConfig(num_branches=1, cfe_dims=(12, 10, 8), dsfe_dim=6),
        train=TrainConfig(epochs=8, batch_size=32, lr=0.01),
        seeds=(0,),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def first_fold(config):
    """Rows and model of the first seed's first fold, trained as a sweep would."""
    seed = config.seeds[0]
    return train_fold(build_tasks(config, seed)[0], config, seed, 0)


def metrics_rows(run_dir):
    with open(run_dir / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_zero_shift_target_matches_source_accuracy(self):
        config = small_config(
            synth=SynthConfig(num_domains=3, samples_per_domain=120, num_classes=3,
                              feature_dim=8, class_separation=4.0,
                              domain_shift_scale=0.0, noise_std=0.8, rng_seed=0),
            train=TrainConfig(epochs=12, batch_size=32, lr=0.01),
        )
        records, model = first_fold(config)
        assert records[-1].status == "ok"
        prepared = prepare_task(build_tasks(config, 0)[0], config.norm, config.method)
        _, source_pred, _ = predict(model, np.vstack([s.features for s in prepared.sources]))
        source_labels = np.concatenate([s.labels for s in prepared.sources])
        source_accuracy = float(np.mean(source_pred == source_labels))
        # identically distributed domains: transfer should be lossless
        assert abs(records[-1].avg_accuracy - source_accuracy) <= 0.05

    def test_rerun_is_bit_identical(self, tmp_path):
        a = run_experiment(small_config(seeds=(0, 1), out_dir=str(tmp_path / "a")))
        b = run_experiment(small_config(seeds=(0, 1), out_dir=str(tmp_path / "b")))
        assert a == b
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
            (tmp_path / "b" / "metrics.csv").read_bytes()
        assert b["aborted_folds"] == []
        for entry in b["per_seed"]:
            for accuracy in entry["fold_accuracies"].values():
                assert math.isfinite(accuracy)

    def test_summary_shape(self):
        summary = run_experiment(small_config(seeds=(0, 1)))
        assert summary["method"] == "ms_mda"
        assert len(summary["per_seed"]) == 2
        assert 0.0 <= summary["final_mean"] <= 1.0
        assert summary["aborted_folds"] == []

    def test_records_one_per_epoch(self):
        records, _ = first_fold(small_config())
        assert [r.epoch for r in records] == list(range(8))
        for r in records:
            assert 0.0 <= r.avg_accuracy <= 1.0
            assert len(r.branch_accuracies) == 2

    def test_epoch_zero_has_zero_weights(self):
        first = first_fold(small_config())[0][0]
        assert first.alpha == 0.0 and first.beta == 0.0

    def test_config_requires_one_source(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0,))
        with pytest.raises(ValidationError):
            ExperimentConfig(synth=SynthConfig(), data_root="somewhere", seeds=(0,))

    def test_build_tasks_ignore_method(self):
        config = small_config()
        tasks_a = build_tasks(config, 0)
        tasks_b = build_tasks(replace(config, method="source_combine"), 0)
        assert_array_equal(tasks_a[0].target.features, tasks_b[0].target.features)
        for a, b in zip(tasks_a[0].sources, tasks_b[0].sources):
            assert_array_equal(a.features, b.features)


class TestBaseline:
    def test_single_source_baseline_equals_multibranch(self):
        # with one source the two strategies are the same model; paired seeds
        # make the runs bit-identical
        config = small_config(
            synth=SynthConfig(num_domains=2, samples_per_domain=80, num_classes=3,
                              feature_dim=8, class_separation=3.0,
                              domain_shift_scale=0.5, noise_std=1.0, rng_seed=0),
        )
        full = run_experiment(config)
        base = run_baseline_source_combine(config)
        assert full["final_mean"] == base["final_mean"]
        rows_full, _ = first_fold(config)
        rows_base, _ = first_fold(replace(config, method="source_combine"))
        assert rows_full[-1].avg_accuracy == rows_base[-1].avg_accuracy
        assert [r.total for r in rows_full] == [r.total for r in rows_base]

    def test_baseline_has_one_branch(self):
        summary = run_baseline_source_combine(small_config())
        records, _ = first_fold(small_config(method="source_combine"))
        assert len(records[0].branch_accuracies) == 1
        assert summary["method"] == "source_combine"

    def test_merge_respects_order(self):
        config = small_config(norm=NormalizationSpec(kind="electrode_wise", order="A"))
        task = build_tasks(config, 0)[0]
        merged_a = prepare_task(task, config.norm, "source_combine").sources[0]
        merged_b = prepare_task(
            task, NormalizationSpec(kind="electrode_wise", order="B"), "source_combine"
        ).sources[0]
        assert merged_a.num_samples == merged_b.num_samples
        assert not np.array_equal(merged_a.features, merged_b.features)


class TestAblation:
    def test_no_both_total_equals_cls(self, tmp_path):
        summary = run_ablation(small_config(out_dir=str(tmp_path)), "no_both")
        assert summary["ablate_mmd"] and summary["ablate_disc"]
        for r in metrics_rows(tmp_path):
            assert float(r["alpha"]) == 0.0 and float(r["beta"]) == 0.0
            assert float(r["total"]) == float(r["cls"])
            assert float(r["mmd"]) >= 0.0 and float(r["disc"]) >= 0.0  # still reported

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            run_ablation(small_config(), "no_everything")

    def test_no_disc_gap_bounded_by_mmd_gap(self, synthetic_benchmark):
        full = per_seed_results(synthetic_benchmark["full"])
        no_mmd = per_seed_results(synthetic_benchmark["no_mmd"])
        no_disc = per_seed_results(synthetic_benchmark["no_disc"])
        seeds = sorted(full)
        full_mean = float(np.mean([full[s].final_accuracy for s in seeds]))
        mmd_gap = abs(full_mean - float(np.mean([no_mmd[s].final_accuracy for s in seeds])))
        disc_gap = abs(full_mean - float(np.mean([no_disc[s].final_accuracy for s in seeds])))
        assert disc_gap <= mmd_gap


class TestPersistence:
    def test_outputs_written_and_recomputable(self, tmp_path):
        out = tmp_path / "run"
        config = small_config(seeds=(0, 1), out_dir=str(out))
        summary = run_experiment(config)

        assert (out / "config.json").exists()
        assert (out / "summary.json").exists()
        stored = json.loads((out / "summary.json").read_text())
        assert stored["final_mean"] == summary["final_mean"]

        # recompute the per-seed summary from the persisted records
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for entry in stored["per_seed"]:
            finals = []
            for fold_id in entry["fold_accuracies"]:
                epochs = [
                    r for r in rows
                    if r["fold_id"] == fold_id and int(r["seed"]) == entry["seed"]
                    and r["status"] == "ok"
                ]
                last = max(epochs, key=lambda r: int(r["epoch"]))
                finals.append(float(last["avg_accuracy"]))
                assert entry["fold_accuracies"][fold_id] == float(last["avg_accuracy"])
            arr = np.asarray(finals)
            assert entry["final_mean"] == float(np.mean(arr))
            assert entry["final_std"] == float(np.std(arr))

        ckpts = sorted((out / "checkpoints").iterdir())
        assert len(ckpts) == 2
        load_checkpoint(ckpts[0])  # loadable

    @pytest.mark.parametrize("mode", [None, "baseline", "no_mmd", "no_disc", "no_both"])
    def test_returned_summary_is_summary_json(self, tmp_path, mode):
        config = small_config(seeds=(0, 1), out_dir=str(tmp_path))
        if mode is None:
            summary = run_experiment(config)
        elif mode == "baseline":
            summary = run_baseline_source_combine(config)
        else:
            summary = run_ablation(config, mode)
        assert summary == json.loads((tmp_path / "summary.json").read_text())

    def test_snapshot_reruns_identically(self, tmp_path):
        out = tmp_path / "run"
        config = small_config(out_dir=str(out))
        first = run_experiment(config)
        snapshot = json.loads((out / "config.json").read_text())

        rebuilt = ExperimentConfig(
            scenario=snapshot["scenario"],
            data_root=snapshot["data_root"],
            synth=SynthConfig(**snapshot["synth"]) if snapshot["synth"] else None,
            norm=NormalizationSpec(**snapshot["normalization"]),
            model=ModelConfig(**{**snapshot["model"],
                                 "cfe_dims": tuple(snapshot["model"]["cfe_dims"])}),
            train=TrainConfig(**snapshot["train"]),
            seeds=tuple(snapshot["seeds"]),
            loso=snapshot["loso"],
            method=snapshot["method"],
        )
        second = run_experiment(rebuilt)
        assert first["final_mean"] == second["final_mean"]
        assert first["per_seed"] == second["per_seed"]

    def test_metrics_columns_head_the_csv_and_name_each_cell(self, tmp_path):
        out = tmp_path / "run"
        config = small_config(out_dir=str(out))
        run_experiment(config)
        with open(out / "metrics.csv", newline="") as fh:
            assert next(csv.reader(fh)) == list(METRICS_COLUMNS)
        for record, row in zip(first_fold(config)[0], metrics_rows(out), strict=True):
            assert len(record.as_row()) == len(METRICS_COLUMNS)
            assert row == dict(zip(METRICS_COLUMNS, record.as_row()))
            assert int(row["epoch"]) == record.epoch and float(row["total"]) == record.total

    def test_checkpoint_kept_when_a_later_fold_raises(self, tmp_path, monkeypatch):
        full = tmp_path / "full"
        run_experiment(small_config(seeds=(0, 1), out_dir=str(full)))
        real_train_fold = harness.train_fold

        # keyed on the job: a forked worker's calls never reach this process
        def second_fold_raises(task, config, seed, fold_index):
            if (seed, fold_index) == (1, 0):  # the second job
                raise RuntimeError("crash in the second fold")
            return real_train_fold(task, config, seed, fold_index)

        monkeypatch.setattr(harness, "train_fold", second_fold_raises)
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"crashed-{cpus}"
            with pytest.raises(RuntimeError, match="second fold"):
                run_experiment(small_config(seeds=(0, 1), out_dir=str(out)))
            ckpt = out / "checkpoints" / "synthetic_seed0.ckpt"
            assert list((out / "checkpoints").iterdir()) == [ckpt]
            assert ckpt.read_bytes() == (full / "checkpoints" / ckpt.name).read_bytes()
            load_checkpoint(ckpt)
            assert metrics_rows(out) == [r for r in metrics_rows(full) if r["seed"] == "0"]
            assert multiprocessing.active_children() == []

    def test_metrics_csv_full_precision(self, tmp_path):
        out = tmp_path / "run"
        config = small_config(out_dir=str(out))
        run_experiment(config)
        rows = metrics_rows(out)
        record = first_fold(config)[0][3]
        row = [r for r in rows if int(r["epoch"]) == 3][0]
        assert float(row["cls"]) == record.cls
        assert float(row["mmd"]) == record.mmd
        assert float(row["avg_accuracy"]) == record.avg_accuracy


class TestFileData:
    """File folds are seed-independent, so one run parses the grid once."""

    def file_config(self, root, seeds, out):
        return small_config(
            synth=None, data_root=str(root), scenario="cross_session",
            norm=NormalizationSpec(), train=TrainConfig(epochs=3, batch_size=16, lr=0.01),
            seeds=seeds, out_dir=str(out),
        )

    cells = [(k, j) for k in (1, 2) for j in (1, 2, 3)]

    def save_grid(self, root):
        """A 2-session x 3-subject grid: three cross-session folds per seed."""
        domains = generate_synthetic(SynthConfig(
            num_domains=6, samples_per_domain=40, num_classes=3, feature_dim=8,
            class_separation=3.0, domain_shift_scale=0.8, noise_std=1.0, rng_seed=0))
        save_dataset_grid(
            {cell: replace(d, domain_id=cell) for cell, d in zip(self.cells, domains)}, root)

    def test_grid_parsed_once_and_seeds_share_nothing(self, tmp_path, monkeypatch):
        cells = self.cells
        root = tmp_path / "data"
        self.save_grid(root)

        # the grid may be parsed in forked workers: they record to a file, not a list
        log = tmp_path / "parsed.txt"
        real_load = data.load_domain_csv

        def counting_load(path, *args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(os.path.relpath(path, root) + "\n")
            return real_load(path, *args, **kwargs)

        def parsed():
            return log.read_text(encoding="utf-8").splitlines()

        monkeypatch.setattr(data, "load_domain_csv", counting_load)
        run_experiment(self.file_config(root, (0, 1, 2), tmp_path / "all"))
        assert sorted(parsed()) == sorted(
            os.path.join(f"session{k}", f"subject{j}.csv") for k, j in cells)

        # each seed's metrics rows equal, byte for byte, a run of that seed alone
        swept = (tmp_path / "all" / "metrics.csv").read_bytes().splitlines()
        for seed in (0, 1, 2):
            out = tmp_path / f"seed{seed}"
            run_experiment(self.file_config(root, (seed,), out))
            alone = (out / "metrics.csv").read_bytes().splitlines()
            assert alone[0] == swept[0]
            assert alone[1:] == [row for row in swept[1:]
                                 if row.split(b",")[1] == str(seed).encode()]
            assert len(alone) == 1 + 3 * 3  # three folds of three epochs
        # nothing outlives a run: every run reads the files again
        assert len(parsed()) == 4 * len(cells)

    def assert_first_k_folds(self, full, out, k):
        """``out`` holds exactly the first ``k`` folds of the run in ``full``."""
        assert (out / "config.json").read_bytes() == (full / "config.json").read_bytes()
        lines = (full / "metrics.csv").read_bytes().splitlines(keepends=True)
        assert (out / "metrics.csv").read_bytes() == b"".join(lines[:1 + 3 * k])  # 3 epochs
        folds = list(dict.fromkeys((r["fold_id"], r["seed"]) for r in metrics_rows(full)))
        kept = sorted(f"{fold_id}_seed{seed}.ckpt" for fold_id, seed in folds[:k])
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == kept
        for name in kept:
            assert (out / "checkpoints" / name).read_bytes() == \
                (full / "checkpoints" / name).read_bytes()
        assert not list(out.rglob("*.tmp"))
        assert not (out / "summary.json").exists()

    # two seeds of three folds: jobs (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
    jobs = [(seed, fold) for seed in (0, 1) for fold in range(3)]

    @pytest.mark.parametrize("stale", [False, True], ids=["empty-out", "finished-run-in-out"])
    @pytest.mark.parametrize("k", [1, 4])  # fold 5 is the second seed's second fold
    def test_crash_after_fold_k_keeps_k_whole_folds(self, tmp_path, monkeypatch, k, stale):
        root = tmp_path / "data"
        self.save_grid(root)
        full = tmp_path / "full"
        run_experiment(self.file_config(root, (0, 1), full))
        real_train_fold = harness.train_fold

        # keyed on the job: a forked worker's calls never reach this process
        def later_fold_raises(task, config, seed, fold_index):
            if (seed, fold_index) == self.jobs[k]:  # the (k+1)-th job
                raise RuntimeError(f"crash in fold {k + 1}")
            return real_train_fold(task, config, seed, fold_index)

        monkeypatch.setattr(harness, "train_fold", later_fold_raises)
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"crashed-{cpus}"
            if stale:
                shutil.copytree(full, out)
                (out / "checkpoints" / "torn_seed9.ckpt.tmp").write_bytes(b"torn")
            with pytest.raises(RuntimeError, match=f"crash in fold {k + 1}"):
                run_experiment(self.file_config(root, (0, 1), out))
            self.assert_first_k_folds(full, out, k)
            assert multiprocessing.active_children() == []

    def test_later_fold_done_in_another_worker_is_not_persisted(self, tmp_path, monkeypatch):
        # three usable CPUs: this process trains jobs 0 and 3, one worker 1 and 4,
        # another 2 and 5; job 1 fails only once job 2 has finished
        root = tmp_path / "data"
        self.save_grid(root)
        full = tmp_path / "full"
        run_experiment(self.file_config(root, (0, 1), full))
        done = tmp_path / "job2-done"
        real_train_fold = harness.train_fold

        def second_job_raises_after_third(task, config, seed, fold_index):
            if (seed, fold_index) == self.jobs[1]:
                deadline = time.monotonic() + 60
                while not done.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise RuntimeError(f"crash in fold 2 (job 3 done: {done.exists()})")
            result = real_train_fold(task, config, seed, fold_index)
            if (seed, fold_index) == self.jobs[2]:
                done.touch()
            return result

        monkeypatch.setattr(harness, "train_fold", second_job_raises_after_third)
        usable_cpus(monkeypatch, 3)
        out = tmp_path / "crashed"
        with pytest.raises(RuntimeError, match=r"crash in fold 2 \(job 3 done: True\)"):
            run_experiment(self.file_config(root, (0, 1), out))
        self.assert_first_k_folds(full, out, 1)
        assert multiprocessing.active_children() == []


def out_tree(out):
    """Every file under ``out``, by relative path, with its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestForkedFolds:
    """With more than one usable CPU this process trains jobs 0, n, 2n, ... and
    forked workers the other stripes; the outputs are those of a serial run."""

    files = TestFileData()

    def make_config(self, tmp_path, source):
        """A three-seed run's config maker: three folds per seed on a file grid,
        or one on synthetic data."""
        if source == "synthetic":
            return lambda out: small_config(seeds=(0, 1, 2), out_dir=str(out))
        root = tmp_path / "data"
        self.files.save_grid(root)
        return lambda out: self.files.file_config(root, (0, 1, 2), out)

    @pytest.mark.parametrize("source", ["file-grid", "synthetic"])
    def test_outputs_and_log_equal_a_serial_run(self, tmp_path, monkeypatch, source):
        make = self.make_config(tmp_path, source)
        trees, logs = [], []
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            lines = []
            run_experiment(make(tmp_path / f"cpus{cpus}"), log=lines.append)
            assert multiprocessing.active_children() == []
            trees.append(out_tree(tmp_path / f"cpus{cpus}"))
            logs.append(lines)
        assert len(logs[0]) == (9 if source == "file-grid" else 3)
        assert len(trees[0]) == 3 + len(logs[0])  # config, metrics, summary, checkpoints
        assert trees[1] == trees[0] and trees[2] == trees[0]
        assert logs[1] == logs[0] and logs[2] == logs[0]

    # processes: usable CPUs over each one's BLAS threads, at most one per job;
    # with no thread setting OpenBLAS takes every usable CPU, so one process
    @pytest.mark.parametrize("cpus, blas, expected", [
        (1, 1, 1), (2, 1, 2), (3, 1, 3), (64, 1, 9), (4, None, 1), (4, 2, 2), (3, 2, 1),
    ])
    def test_this_process_trains_stripe_zero(self, tmp_path, monkeypatch, cpus, blas,
                                             expected):
        make = self.make_config(tmp_path, "file-grid")
        log = tmp_path / "jobs.txt"
        real_train_fold = harness.train_fold

        def recording_train_fold(task, config, seed, fold_index):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{seed} {fold_index} {os.getpid()}\n")
            return real_train_fold(task, config, seed, fold_index)

        monkeypatch.setattr(harness, "train_fold", recording_train_fold)
        usable_cpus(monkeypatch, cpus, blas)
        run_experiment(make(tmp_path / "run"))
        assert multiprocessing.active_children() == []
        pid_of = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            seed, fold, pid = map(int, line.split())
            pid_of[seed, fold] = pid
        jobs = [(seed, fold) for seed in (0, 1, 2) for fold in range(3)]
        assert sorted(pid_of) == jobs
        assert len(set(pid_of.values())) == expected
        for i, job in enumerate(jobs):
            assert (pid_of[job] == os.getpid()) == (i % expected == 0)
            assert pid_of[job] == pid_of[jobs[i % expected]]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_process_holds_one_seeds_synthetic_domains(self, monkeypatch, cpus):
        # a paper-shape seed's domains are about 120 MiB: the previous seed's
        # must be gone before the next seed's are built
        real_build_tasks = harness.build_tasks
        built = []

        def checking_build_tasks(config, seed):
            assert [seed_of for seed_of, ref in built if ref() is not None] == []
            tasks = real_build_tasks(config, seed)
            built.extend((seed, weakref.ref(task)) for task in tasks)
            return tasks

        monkeypatch.setattr(harness, "build_tasks", checking_build_tasks)
        usable_cpus(monkeypatch, cpus)
        summary = run_experiment(small_config(seeds=(0, 1, 2, 3)))
        assert [s["seed"] for s in summary["per_seed"]] == [0, 1, 2, 3]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("env, expected", [
        ({}, 4),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"GOTO_NUM_THREADS": "3"}, 3),
        ({"OMP_NUM_THREADS": "2,1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "GOTO_NUM_THREADS": "-2"}, 4),
        ({"OPENBLAS_NUM_THREADS": "16"}, 4),
    ])
    def test_blas_threads_read_as_openblas_reads_them(self, monkeypatch, env, expected):
        usable_cpus(monkeypatch, 4, None)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert harness.blas_threads(4) == expected

    @pytest.mark.parametrize("failing", [(0, 1), (0, 2)], ids=["in-worker", "in-this-process"])
    def test_fold_error_is_raised_as_in_process(self, tmp_path, monkeypatch, failing):
        make = self.make_config(tmp_path, "file-grid")
        real_train_fold = harness.train_fold

        def bad_fold(task, config, seed, fold_index):
            if (seed, fold_index) == failing:
                config = replace(config, train=replace(config.train, batch_size=0))
            return real_train_fold(task, config, seed, fold_index)

        def outcome(cpus):
            usable_cpus(monkeypatch, cpus)
            with pytest.raises(ValidationError) as info:
                run_experiment(make(tmp_path / f"cpus{cpus}"))
            assert multiprocessing.active_children() == []
            return type(info.value), str(info.value), out_tree(tmp_path / f"cpus{cpus}")

        monkeypatch.setattr(harness, "train_fold", bad_fold)
        alone = outcome(1)
        assert alone[1].startswith(f"fold cross_session-subject0{failing[1] + 1} (seed 0): ")
        assert outcome(2) == alone

    def test_worker_death_is_a_data_error(self, tmp_path, monkeypatch, capfd):
        make = self.make_config(tmp_path, "file-grid")
        real_train_fold = harness.train_fold
        test_pid = os.getpid()

        def dying_train_fold(task, config, seed, fold_index):
            if (seed, fold_index) == (1, 0) and os.getpid() != test_pid:
                os._exit(1)
            return real_train_fold(task, config, seed, fold_index)

        monkeypatch.setattr(harness, "train_fold", dying_train_fold)
        usable_cpus(monkeypatch, 2)  # job 3, (1, 0), falls to the worker
        message = "fold cross_session-subject01 (seed 1): its worker exited with code 1"
        with pytest.raises(data.DataError, match=re.escape(message)):
            run_experiment(make(tmp_path / "run"))
        assert multiprocessing.active_children() == []
        capfd.readouterr()
        code = main(["train", "--data", str(tmp_path / "data"), "--scenario", "cross-session",
                     "--seeds", "0,1", "--epochs", "3", "--batch-size", "16",
                     "--cfe-dims", "12,10,8", "--dsfe-dim", "6", "--out", str(tmp_path / "cli"),
                     "--quiet"])
        assert code == 3
        assert capfd.readouterr().err == f"data error: {message}\n"
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_every_worker(self, tmp_path, monkeypatch):
        make = self.make_config(tmp_path, "file-grid")
        real_train_fold = harness.train_fold
        test_pid = os.getpid()

        def interrupting_train_fold(task, config, seed, fold_index):
            if (seed, fold_index) == (0, 1) and os.getpid() != test_pid:
                os.kill(test_pid, signal.SIGINT)  # as Ctrl-C would, while the test waits
                time.sleep(60)
            return real_train_fold(task, config, seed, fold_index)

        monkeypatch.setattr(harness, "train_fold", interrupting_train_fold)
        usable_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(make(tmp_path / "run"))
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30


class TestDumpFeatures:
    def run_and_dump(self, tmp_path, samples=10):
        out = tmp_path / "run"
        config = small_config(out_dir=str(out))
        run_experiment(config)
        ckpt = next((out / "checkpoints").iterdir())
        dump_dir = tmp_path / "features"
        warnings = []
        paths = dump_features(config, ckpt, dump_dir,
                              samples_per_domain=samples, log=warnings.append)
        return config, paths, warnings

    def test_rows_and_width(self, tmp_path):
        config, paths, warnings = self.run_and_dump(tmp_path, samples=10)
        assert len(paths) == 2  # one file per branch
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:3] == ["domain", "branch", "label"]
        assert len(header) == config.model.dsfe_dim + 3
        assert len(body) == 3 * 10  # (2 sources + target) x samples
        assert warnings == []

    def test_clamps_with_warning(self, tmp_path):
        _, paths, warnings = self.run_and_dump(tmp_path, samples=500)
        assert warnings, "expected clamp warnings for oversized sample request"
        with open(paths[0], newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert len(body) == 3 * 90  # clamped to the domain size

    def test_deterministic(self, tmp_path):
        out = tmp_path / "run"
        config = small_config(out_dir=str(out))
        run_experiment(config)
        ckpt = next((out / "checkpoints").iterdir())
        a = tmp_path / "fa"
        b = tmp_path / "fb"
        dump_features(config, ckpt, a, samples_per_domain=5, log=lambda m: None)
        dump_features(config, ckpt, b, samples_per_domain=5, log=lambda m: None)
        assert (a / "branch_00.csv").read_bytes() == (b / "branch_00.csv").read_bytes()

    def test_one_extractor_pass_per_domain(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = small_config(
            synth=replace(small_config().synth, num_domains=4), out_dir=str(out))
        run_experiment(config)
        ckpt = next((out / "checkpoints").iterdir())
        calls = []
        forward = LinearLayer.forward
        monkeypatch.setattr(LinearLayer, "forward",
                            lambda layer, x: calls.append(1) or forward(layer, x))
        paths = dump_features(config, ckpt, tmp_path / "feat", samples_per_domain=5)
        assert len(paths) == 3
        # per domain: 3 extractor layers, then 2 layers in each of 3 branches
        assert len(calls) == 4 * 9

    def test_bad_fold_index(self, tmp_path):
        out = tmp_path / "run"
        config = small_config(out_dir=str(out))
        run_experiment(config)
        ckpt = next((out / "checkpoints").iterdir())
        with pytest.raises(ValidationError):
            dump_features(config, ckpt, tmp_path / "x", fold_index=5)

    def test_default_sampling_on_fourteen_source_fold(self, tmp_path):
        # cross-subject fold: 14 sources + target, 100 rows sampled per domain
        domains = generate_synthetic(SynthConfig(
            num_domains=15, samples_per_domain=120, num_classes=3,
            feature_dim=8, rng_seed=0))
        grid = {
            (1, j): replace(d, domain_id=(1, j))
            for j, d in enumerate(domains, start=1)
        }
        root = tmp_path / "grid"
        save_dataset_grid(grid, root)
        out = tmp_path / "run"
        config = small_config(
            synth=None, data_root=str(root), scenario="cross_subject",
            norm=NormalizationSpec(kind="electrode_wise"),
            train=TrainConfig(epochs=1, batch_size=64, lr=0.01),
            out_dir=str(out),
        )
        run_experiment(config)
        ckpt = next((out / "checkpoints").iterdir())
        paths = dump_features(config, ckpt, tmp_path / "feat", log=lambda m: None)
        assert len(paths) == 14  # one file per branch
        with open(paths[0], newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert len(body) == 15 * 100  # every domain contributes 100 rows


class TestVerify:
    def test_all_suites_pass(self):
        report = verify("all")
        assert report.passed, report.describe()

    @pytest.mark.parametrize("suite", ["grad", "mmd_oracle", "norm", "schedule"])
    def test_individual_suites(self, suite):
        report = verify(suite)
        assert report.passed, report.describe()

    def test_perturbed_gradient_fails(self, monkeypatch):
        def perturbed(logits, labels):
            loss, grad = softmax_cross_entropy(logits, labels)
            grad[0, 0] += 1e-2
            return loss, grad

        monkeypatch.setattr("msmda.harness.softmax_cross_entropy", perturbed)
        report = verify("grad")
        assert not report.passed

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            verify("everything")


class TestDivergenceHandling:
    def test_diverging_fold_aborts_and_is_reported(self):
        # an absurd learning rate reliably overflows the float64 logits
        config = small_config(
            train=TrainConfig(epochs=6, batch_size=32, lr=1e154),
        )
        summary = run_experiment(config)
        records, _ = first_fold(config)
        if records[-1].status == "ok":  # pragma: no cover - depends on overflow path
            pytest.skip("run unexpectedly stayed finite")
        assert summary["aborted_folds"] == [{"fold_id": "synthetic", "seed": 0}]
        assert "final_mean" not in summary
        assert records[-1].status == "diverged"
