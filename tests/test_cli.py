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

    def test_repeated_seed_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--synth", synth_json(tmp_path), "--seeds", "0,0",
                     "--out", str(out)] + FAST) == 1
        assert "seeds must be distinct" in capsys.readouterr().err
        assert not out.exists()


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
