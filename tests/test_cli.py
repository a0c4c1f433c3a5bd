"""Command-line driver: run directories, exit codes, audit reports."""

import os

import numpy as np
import pytest
import yaml

from entrofuse.cli import main
from entrofuse.data import load_dataset
from entrofuse.trainer import ABLATIONS


SMALL_CONFIG = {
    "data": {"modalities": 2, "classes": 3, "dims": [6, 6],
             "snr": [10000.0, 10000.0], "n_train": 256, "n_val": 96,
             "n_test": 96, "seed": 0},
    "train": {"epochs": 2, "batch_size": 64, "probe_size": 64,
              "schedules": {"mode": "bernoulli", "t_warm": 5, "t_lam": 5}},
    "eval": {"rates": [0.0, 0.5], "seeds": 2},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG))
    return str(path)


RUN_FILES = ("config.yaml", "history.csv", "eval.csv", "scatter.csv",
             "checkpoint.npz", "summary.yaml")


class TestRunCommand:
    def test_writes_complete_run_directory(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["run", "--config", config_path, "--out", out]) == 0
        for name in RUN_FILES:
            assert os.path.exists(os.path.join(out, name)), name
        history = open(os.path.join(out, "history.csv")).read().splitlines()
        assert history[0] == ("epoch,total,task,ent,cec,mask,lam,"
                              "val_score,val_ece,val_gate_entropy")
        assert len(history) == 3  # header + one row per epoch
        eval_rows = open(os.path.join(out, "eval.csv")).read().splitlines()
        assert eval_rows[0] == "rate,score,ece,gate_entropy"
        assert len(eval_rows) == 3
        scatter = open(os.path.join(out, "scatter.csv")).read().splitlines()
        assert len(scatter) == 1 + 96  # header + one row per test sample
        assert "run complete" in capsys.readouterr().out

    def test_numeric_outputs_are_byte_identical_across_reruns(
            self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", config_path, "--out", out_a]) == 0
        assert main(["run", "--config", config_path, "--out", out_b]) == 0
        for name in ("config.yaml", "history.csv", "eval.csv", "scatter.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, \
                    open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_seed_flag_changes_the_run(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", config_path, "--out", out_a]) == 0
        assert main(["run", "--config", config_path, "--out", out_b,
                     "--seed", "1"]) == 0
        with open(os.path.join(out_a, "history.csv"), "rb") as fa, \
                open(os.path.join(out_b, "history.csv"), "rb") as fb:
            assert fa.read() != fb.read()

    def test_default_out_dir_uses_seed(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", config_path, "--seed", "7"]) == 0
        assert os.path.isdir(tmp_path / "runs" / "run-seed7")

    def test_summary_reports_hash_and_score(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["run", "--config", config_path, "--out", out]) == 0
        summary = yaml.safe_load(open(os.path.join(out, "summary.yaml")))
        assert set(summary) == {"config_hash", "wall_clock_s", "temperature",
                                "v_max", "final_val_score"}
        assert summary["wall_clock_s"] > 0.0
        assert 0.0 <= summary["final_val_score"] <= 1.0


class TestGenDataCommand:
    def test_writes_loadable_dataset(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "data.bin")
        assert main(["gen-data", "--config", config_path, "--out", out]) == 0
        train_b, val_b, test_b, classes = load_dataset(out)
        assert (train_b.n, val_b.n, test_b.n) == (256, 96, 96)
        assert classes == 3
        assert train_b.dims == (6, 6)
        assert "wrote" in capsys.readouterr().out

    def test_gen_data_is_deterministic(self, config_path, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        assert main(["gen-data", "--config", config_path, "--out", a]) == 0
        assert main(["gen-data", "--config", config_path, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestAblateCommand:
    def test_emits_one_row_per_ablation(self, tmp_path, capsys):
        doc = dict(SMALL_CONFIG)
        doc["train"] = dict(SMALL_CONFIG["train"], epochs=1)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = str(tmp_path / "grid")
        assert main(["ablate", "--config", str(path), "--out", out]) == 0
        table = open(os.path.join(out, "ablate.csv")).read().splitlines()
        assert table[0] == "ablation,score@0,ece@0,score@0.5,ece@0.5"
        assert [line.split(",")[0] for line in table[1:]] == list(ABLATIONS)
        for tag in ABLATIONS:
            assert os.path.isdir(os.path.join(out, tag))
        assert "ablation table" in capsys.readouterr().out


class TestAuditCommand:
    @pytest.fixture
    def run_dir(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["run", "--config", config_path, "--out", out]) == 0
        return out

    def test_writes_reports(self, run_dir, config_path, tmp_path, capsys):
        out = str(tmp_path / "audit")
        code = main(["audit",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
                     "--config", config_path, "--out", out])
        assert code == 0
        cal = open(os.path.join(out, "calibration.csv")).read().splitlines()
        assert len(cal) == 16  # header + 15 bins
        inv = open(os.path.join(out, "inversions.csv")).read().splitlines()
        assert len(inv) == 3  # header + both strict pairs for two modalities
        # subset cells stay comma-free so every row has exactly four columns
        assert [row.split(",")[:2] for row in inv[1:]] == [["0", "0+1"],
                                                           ["1", "0+1"]]
        assert all(len(row.split(",")) == 4 for row in inv[1:])
        assert os.path.exists(os.path.join(out, "scatter.csv"))
        assert not os.path.exists(os.path.join(out, "eval.csv"))
        assert "inversion_rate" in capsys.readouterr().out

    def test_rates_flag_adds_dropout_table(self, run_dir, config_path, tmp_path):
        out = str(tmp_path / "audit")
        code = main(["audit",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
                     "--config", config_path, "--out", out,
                     "--rates", "0.0,0.3"])
        assert code == 0
        rows = open(os.path.join(out, "eval.csv")).read().splitlines()
        assert len(rows) == 3

    def test_applies_the_runs_fitted_temperature(self, tmp_path, capsys):
        doc = dict(SMALL_CONFIG,
                   train=dict(SMALL_CONFIG["train"], temp_scaling=True))
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        run = str(tmp_path / "run")
        assert main(["run", "--config", str(path), "--out", run]) == 0
        temperature = yaml.safe_load(
            open(os.path.join(run, "summary.yaml")))["temperature"]
        assert temperature is not None and abs(temperature - 1.0) > 1e-3
        bare = tmp_path / "bare"  # the checkpoint without its summary
        bare.mkdir()
        bare_ckpt = str(bare / "checkpoint.npz")
        with open(os.path.join(run, "checkpoint.npz"), "rb") as fh:
            open(bare_ckpt, "wb").write(fh.read())
        capsys.readouterr()

        def audit(ckpt, out):
            assert main(["audit", "--checkpoint", ckpt, "--config", str(path),
                         "--out", out, "--rates", "0.0,0.5"]) == 0
            printed = capsys.readouterr().out
            return (open(os.path.join(out, "calibration.csv")).read(),
                    open(os.path.join(out, "eval.csv")).read(), printed)

        cal, evals, printed = audit(os.path.join(run, "checkpoint.npz"),
                                    str(tmp_path / "audit"))
        bare_cal, bare_evals, bare_printed = audit(bare_ckpt,
                                                   str(tmp_path / "audit-bare"))
        assert printed.split()[-1] == f"temperature={temperature:.6g}"
        assert bare_printed.split()[-1] == "temperature=1"
        # same rates, seeds and temperature as the run's own evaluation
        assert evals == open(os.path.join(run, "eval.csv")).read()
        assert evals != bare_evals
        assert cal != bare_cal

    def test_mismatched_config_exits_one(self, run_dir, tmp_path):
        doc = dict(SMALL_CONFIG)
        doc["data"] = dict(SMALL_CONFIG["data"], dims=[4, 4])
        path = tmp_path / "other.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main(["audit",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
                     "--config", str(path), "--out", str(tmp_path / "audit")])
        assert code == 1

    def test_garbage_checkpoint_exits_one(self, config_path, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a checkpoint")
        code = main(["audit", "--checkpoint", str(bad),
                     "--config", config_path, "--out", str(tmp_path / "audit")])
        assert code == 1


class TestExitCodes:
    def test_missing_config_file_is_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_bad_yaml_is_one(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("data: [unclosed\n")
        assert main(["run", "--config", str(path)]) == 1

    def test_unknown_subcommand_is_one(self):
        assert main(["explode"]) == 1

    def test_missing_required_flag_is_one(self):
        assert main(["run"]) == 1

    def test_unknown_config_key_is_one(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(minimal_bad_key()))
        assert main(["run", "--config", str(path)]) == 1

    def test_divergent_training_is_two(self, tmp_path):
        doc = {
            "data": dict(SMALL_CONFIG["data"], snr=[1.0, 1.0]),
            "train": dict(SMALL_CONFIG["train"], epochs=10, lr_base=2.0,
                          lr_gate=20.0, divergence_factor=1.5),
            "eval": SMALL_CONFIG["eval"],
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 2


def minimal_bad_key():
    doc = {"data": dict(SMALL_CONFIG["data"]), "train": {"lr": 0.1}}
    return doc
