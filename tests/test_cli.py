import json
import struct

import pytest

from msmda.cli import main
from msmda.data import load_dataset_grid
from msmda.model import CHECKPOINT_MAGIC


def synth_json(tmp_path, **overrides):
    cfg = dict(num_domains=3, samples_per_domain=60, num_classes=3, feature_dim=8,
               class_separation=3.0, domain_shift_scale=1.0, noise_std=1.0, rng_seed=0)
    cfg.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return str(path)


FAST = ["--epochs", "4", "--batch-size", "32", "--cfe-dims", "12,10,8",
        "--dsfe-dim", "6", "--norm", "none", "--quiet"]


class TestExitCodes:
    def test_verify_ok(self, capsys):
        assert main(["verify", "schedule"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_data_source_is_validation_error(self, capsys):
        assert main(["train", "--quiet"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unreadable_synth_config_is_data_error(self, tmp_path):
        assert main(["train", "--synth", str(tmp_path / "none.json"), "--quiet"]) == 3

    def test_non_utf8_synth_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        path.write_bytes(b"\xff{}")
        assert main(["train", "--synth", str(path), "--quiet"]) == 3
        assert "malformed synth config" in capsys.readouterr().err

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-synth", "--synth", synth_json(tmp_path, samples_per_domain=30),
                     "--grid", "2x3", "--out", str(data_dir), "--quiet"]) == 0
        path = data_dir / "session2" / "subject1.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        code = main(["train", "--data", str(data_dir), "--scenario", "cross-session",
                     "--seeds", "0", "--out", str(tmp_path / "run")] + FAST)
        assert code == 3
        assert f"{path}:2: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_non_ascii_csv_is_data_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-synth", "--synth", synth_json(tmp_path, samples_per_domain=30),
                     "--grid", "2x3", "--out", str(data_dir), "--quiet"]) == 0
        path = data_dir / "session1" / "subject2.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "\uff13" + lines[3][1:]  # a fullwidth digit in row 3's first cell
        path.write_text("".join(lines), encoding="utf-8")
        code = main(["train", "--data", str(data_dir), "--scenario", "cross-session",
                     "--seeds", "0", "--out", str(tmp_path / "run")] + FAST)
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:4: non-ASCII character '\uff13'\n")

    def test_label_past_int64_is_data_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-synth", "--synth", synth_json(tmp_path, samples_per_domain=30),
                     "--grid", "2x1", "--out", str(data_dir), "--quiet"]) == 0
        path = data_dir / "session2" / "subject1.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rpartition(",")[0] + ",99999999999999999999\n"
        path.write_text("".join(lines))
        code = main(["train", "--data", str(data_dir), "--scenario", "cross-session",
                     "--seeds", "0", "--out", str(tmp_path / "run")] + FAST)
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:2: label 99999999999999999999 does not fit in int64\n")

    def test_bad_flag_value(self, capsys):
        assert main(["train", "--norm", "bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_bad_seeds_string(self, tmp_path):
        assert main(["train", "--synth", synth_json(tmp_path), "--seeds", "a,b"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--beta", "nan"), ("--beta", "inf"),
    ])
    def test_non_finite_rate_is_validation_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        assert main(["train", "--synth", synth_json(tmp_path), "--seeds", "0",
                     flag, value, "--out", str(out)] + FAST) == 1
        field = {"--lr": "lr", "--beta": "beta_weight"}[flag]
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "-0.01"])
    def test_negative_beta_is_validation_error(self, tmp_path, capsys, value):
        # a negative weight would reward disagreement between the branches
        out = tmp_path / "run"
        assert main(["train", "--synth", synth_json(tmp_path), "--seeds", "0",
                     "--beta", value, "--out", str(out)] + FAST) == 1
        assert capsys.readouterr().err == (
            f"error: beta_weight must be a finite number >= 0, got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-1", "0,-3"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "run"
        assert main(["train", "--synth", synth_json(tmp_path), "--seeds", seeds,
                     "--out", str(out)] + FAST) == 1
        assert capsys.readouterr().err.startswith(
            "error: every seed must be a non-negative integer")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-synth", "train"])
    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_synth_rng_seed_is_validation_error(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        assert main([command, "--synth", synth_json(tmp_path, rng_seed=seed),
                     "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: rng_seed must be a non-negative integer, got {seed!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-synth", "train"])
    @pytest.mark.parametrize("name, value", [
        ("num_domains", 3.5), ("feature_dim", 8.5), ("samples_per_domain", 60.5),
        ("num_classes", 2.5), ("num_classes", True), ("feature_dim", 0),
    ])
    def test_non_integer_synth_count_is_validation_error(self, tmp_path, capsys, command,
                                                          name, value):
        out = tmp_path / "out"
        assert main([command, "--synth", synth_json(tmp_path, **{name: value}),
                     "--out", str(out), "--quiet"] + (FAST if command == "train" else [])) == 1
        err = capsys.readouterr().err
        assert err == f"error: {name} must be an integer >= 1, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-synth", "train"])
    @pytest.mark.parametrize("name, value", [
        ("noise_std", True), ("class_separation", float("nan")),
        ("domain_shift_scale", float("inf")), ("noise_std", "1.0"), ("noise_std", None),
        ("class_separation", -0.5),
    ])
    def test_bad_synth_float_is_validation_error(self, tmp_path, capsys, command, name, value):
        out = tmp_path / "out"
        assert main([command, "--synth", synth_json(tmp_path, **{name: value}),
                     "--out", str(out), "--quiet"] + (FAST if command == "train" else [])) == 1
        err = capsys.readouterr().err
        assert err == f"error: {name} must be a finite number >= 0, got {value!r}\n"
        assert not out.exists()

    def test_repeated_seed_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--synth", synth_json(tmp_path), "--seeds", "0,0",
                     "--out", str(out)] + FAST) == 1
        assert "seeds must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "gen-synth", "dump-features"])
    def test_out_that_is_a_file_is_data_error(self, tmp_path, capfd, command):
        synth = synth_json(tmp_path)
        argv = {
            "train": ["train", "--synth", synth] + FAST,
            "gen-synth": ["gen-synth", "--synth", synth, "--grid", "1x2", "--quiet"],
            "dump-features": ["dump-features", "--synth", synth, "--checkpoint",
                              str(tmp_path / "run" / "checkpoints" / "synthetic_seed0.ckpt"),
                              "--samples", "5"] + FAST,
        }[command]
        if command == "dump-features":
            assert main(["train", "--synth", synth, "--out", str(tmp_path / "run")] + FAST) == 0
        capfd.readouterr()
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        assert main(argv + ["--out", str(blocker)]) == 3
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ") and str(blocker) in err
        assert "Traceback" not in err
        assert blocker.read_text() == "a file, not a directory\n"


class TestTrainCommand:
    def test_synth_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--synth", synth_json(tmp_path), "--seeds", "0",
                     "--out", str(out)] + FAST)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "ms_mda"
        assert (out / "metrics.csv").exists()
        assert (out / "config.json").exists()
        assert any((out / "checkpoints").iterdir())

    def test_baseline_and_ablate(self, tmp_path):
        synth = synth_json(tmp_path)
        out_b = tmp_path / "base"
        assert main(["baseline", "--synth", synth, "--out", str(out_b)] + FAST) == 0
        assert json.loads((out_b / "summary.json").read_text())["method"] == "source_combine"

        out_a = tmp_path / "abl"
        assert main(["ablate", "--synth", synth, "--ablate", "both",
                     "--out", str(out_a)] + FAST) == 0
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["ablate_mmd"] and summary["ablate_disc"]


class TestGenSynth:
    def test_grid_layout_written(self, tmp_path):
        data_dir = tmp_path / "data"
        code = main(["gen-synth", "--synth", synth_json(tmp_path, samples_per_domain=30),
                     "--grid", "2x3", "--out", str(data_dir), "--quiet"])
        assert code == 0
        grid = load_dataset_grid(data_dir)
        assert set(grid) == {(k, j) for k in (1, 2) for j in (1, 2, 3)}
        assert all(d.num_samples == 30 for d in grid.values())

    def test_train_on_generated_grid(self, tmp_path):
        data_dir = tmp_path / "data"
        main(["gen-synth", "--synth", synth_json(tmp_path, samples_per_domain=30),
              "--grid", "2x3", "--out", str(data_dir), "--quiet"])
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_dir), "--scenario", "cross-session",
                     "--seeds", "0", "--out", str(out)] + FAST)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "cross_session"
        assert summary["per_seed"][0]["num_folds"] == 3

    def test_bad_grid_spec(self, tmp_path):
        assert main(["gen-synth", "--grid", "banana", "--out", str(tmp_path / "x")]) == 1


class TestGridScan:
    """Without a manifest, only canonical session<k>/subject<j>.csv names are cells."""

    def grid_without_manifest(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["gen-synth", "--synth", synth_json(tmp_path, samples_per_domain=30),
                     "--grid", "2x2", "--out", str(data_dir), "--quiet"]) == 0
        (data_dir / "manifest.json").unlink()
        return data_dir

    def train(self, data_dir, out):
        return main(["train", "--data", str(data_dir), "--scenario", "cross-session",
                     "--seeds", "0", "--out", str(out)] + FAST)

    @pytest.mark.parametrize("stray", [
        "session1/subject1_0.csv", "session1/subject\u0663.csv", "session1/subject01.csv",
        "session2/subject+2.csv", "session2/subject 2.csv", "session2/subject2.csv.bak",
        "session01/subject1.csv", "session\u0662/subject1.csv", "session+1/subject3.csv",
    ])
    def test_stray_name_is_not_a_cell(self, tmp_path, stray):
        data_dir = self.grid_without_manifest(tmp_path)
        assert self.train(data_dir, tmp_path / "alone") == 0
        path = data_dir / stray
        path.parent.mkdir(exist_ok=True)
        path.write_bytes((data_dir / "session1" / "subject1.csv").read_bytes())
        assert self.train(data_dir, tmp_path / "with-stray") == 0
        assert (tmp_path / "with-stray" / "metrics.csv").read_bytes() == \
            (tmp_path / "alone" / "metrics.csv").read_bytes()

    def test_padded_names_only_is_data_error(self, tmp_path, capsys):
        data_dir = self.grid_without_manifest(tmp_path)
        for path in sorted(data_dir.glob("session*/subject*.csv")):
            path.rename(path.with_name(f"subject0{path.name[len('subject'):]}"))
        out = tmp_path / "run"
        assert self.train(data_dir, out) == 3
        assert capsys.readouterr().err == (
            f"data error: no session<k>/subject<j>.csv files under {str(data_dir)!r}\n")
        assert not out.exists()


class TestDumpFeaturesCommand:
    def test_dump_after_train(self, tmp_path):
        synth = synth_json(tmp_path)
        out = tmp_path / "run"
        main(["train", "--synth", synth, "--seeds", "0", "--out", str(out)] + FAST)
        ckpt = next((out / "checkpoints").iterdir())
        feat_dir = tmp_path / "features"
        code = main(["dump-features", "--synth", synth, "--checkpoint", str(ckpt),
                     "--samples", "5", "--out", str(feat_dir)] + FAST)
        assert code == 0
        files = sorted(feat_dir.iterdir())
        assert [f.name for f in files] == ["branch_00.csv", "branch_01.csv"]

    def test_negative_samples_is_validation_error(self, tmp_path, capsys):
        synth = synth_json(tmp_path)
        out = tmp_path / "run"
        main(["train", "--synth", synth, "--seeds", "0", "--out", str(out)] + FAST)
        ckpt = next((out / "checkpoints").iterdir())
        feat_dir = tmp_path / "features"
        code = main(["dump-features", "--synth", synth, "--checkpoint", str(ckpt),
                     "--samples", "-1", "--out", str(feat_dir)] + FAST)
        assert code == 1
        assert "samples_per_domain must be >= 0" in capsys.readouterr().err
        assert not feat_dir.exists()

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                             ids=["missing", "directory"])
    def test_unreadable_checkpoint_is_data_error(self, tmp_path, capsys, make):
        ckpt = tmp_path / "model.ckpt"
        make(ckpt)
        code = main(["dump-features", "--synth", synth_json(tmp_path), "--checkpoint",
                     str(ckpt), "--out", str(tmp_path / "features")] + FAST)
        assert code == 3
        assert f"cannot read checkpoint {ckpt}" in capsys.readouterr().err

    def test_diverged_checkpoint_is_data_error(self, tmp_path, capsys):
        synth = synth_json(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--synth", synth, "--seeds", "0", "--lr", "1e154",
                     "--out", str(out)] + FAST) == 0
        assert json.loads((out / "summary.json").read_text())["aborted_folds"]
        ckpt = out / "checkpoints" / "synthetic_seed0.ckpt"
        feat_dir = tmp_path / "features"
        code = main(["dump-features", "--synth", synth, "--checkpoint", str(ckpt),
                     "--samples", "5", "--out", str(feat_dir)] + FAST)
        assert code == 3
        assert "branch 0 gives non-finite features on domain 0-0" in capsys.readouterr().err
        assert list(feat_dir.iterdir()) == []

    def test_bad_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIIIIdq", 8, 1, 6, 3, 2, 5.0, 0)
                         + struct.pack("<I", 12))
        code = main(["dump-features", "--synth", synth_json(tmp_path), "--checkpoint",
                     str(ckpt), "--out", str(tmp_path / "features")] + FAST)
        assert code == 3
        assert "leaky_slope" in capsys.readouterr().err
