"""Command-line driver: run directories, exit codes, audit reports."""

import concurrent.futures
import json
import multiprocessing
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import entrofuse.cli as cli_module
import entrofuse.metrics as metrics_module
import entrofuse.model as model_module
import entrofuse.trainer as trainer_module
from entrofuse.cli import build_parser, main
from entrofuse.config import load_config
from entrofuse.data import generate
from entrofuse.metrics import entropy_confidence_export
from entrofuse.model import FusionConfig, FusionModel, save_checkpoint
from entrofuse.trainer import ABLATIONS, train


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
        assert history[0] == ("epoch,total,task,ent,cec,lam,"
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
        assert set(summary) == {"config_hash", "wall_clock_s", "eval_s",
                                "temperature", "v_max", "final_val_score"}
        assert summary["wall_clock_s"] > summary["eval_s"] > 0.0
        assert 0.0 <= summary["final_val_score"] <= 1.0


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

    @pytest.fixture
    def one_epoch_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(dict(
            SMALL_CONFIG, train=dict(SMALL_CONFIG["train"], epochs=1))))
        return str(path)

    def test_parallel_jobs_write_the_same_files(self, one_epoch_config,
                                                tmp_path):
        outs = [str(tmp_path / f"jobs{jobs}") for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assert main(["ablate", "--config", one_epoch_config, "--out", out,
                         "--jobs", str(jobs)]) == 0
        for tag in ABLATIONS:
            for name in ("history.csv", "eval.csv", "scatter.csv",
                         "checkpoint.npz"):
                files = [open(os.path.join(out, tag, name), "rb").read()
                         for out in outs]
                assert files[0] == files[1], (tag, name)
        tables = [open(os.path.join(out, "ablate.csv")).read()
                  for out in outs]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_job_names_its_ablation(self, one_epoch_config, tmp_path,
                                           monkeypatch, capsys, jobs):
        if jobs == "2" and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched train only when forked")
        real = cli_module.train

        def failing(cfg, data):
            if cfg.ablation == "no_gate":
                raise ValueError("boom")
            return real(cfg, data)

        monkeypatch.setattr(cli_module, "train", failing)
        assert main(["ablate", "--config", one_epoch_config,
                     "--out", str(tmp_path / "grid"), "--jobs", jobs]) == 2
        assert "ablation 'no_gate' failed: boom" in capsys.readouterr().err

    def test_jobs_start_at_most_one_worker_per_ablation(
            self, one_epoch_config, tmp_path, monkeypatch):
        # a fork pool starts every worker it is given up front, so --jobs 64
        # must ask for one per ablation; the stand-in pool maps in-process
        asked = []

        class InProcessPool:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        monkeypatch.setattr(cli_module, "_ablate_job", lambda job: (
            job[1], {r: {"score": 0.0, "ece": 0.0} for r in (0.0, 0.5)}))
        assert main(["ablate", "--config", one_epoch_config,
                     "--out", str(tmp_path / "grid"), "--jobs", "64"]) == 0
        assert asked == [len(ABLATIONS)] == [5]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, one_epoch_config,
                                             tmp_path, monkeypatch, capsys,
                                             jobs):
        def no_compute(*args):
            raise AssertionError("ablate computed with --jobs < 1")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_compute)
        monkeypatch.setattr(cli_module, "_ablate_job", no_compute)
        monkeypatch.setattr(cli_module, "_load", no_compute)
        out = tmp_path / "grid"
        assert main(["ablate", "--config", one_epoch_config,
                     "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def spy_passes(monkeypatch, modules, record):
    """Call ``record(batch, clean)`` for every pass over the rows of a
    batch: each ``forward`` call, clean when it takes no views, and each
    view a ``forward_views`` call reads, clean when it equals the batch's
    own presence."""
    real, real_views = model_module.forward, model_module.forward_views

    def counting(model, batch, views=None):
        record(batch, views is None)
        return real(model, batch, views)

    def counting_views(model, batch, views):
        for view in views:
            record(batch, np.array_equal(view, batch.presence))
        return real_views(model, batch, views)

    for module in modules:
        for name, spy in (("forward", counting),
                          ("forward_views", counting_views)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)


class TestOneTestForwardPerRun:
    @staticmethod
    def _count_test_forwards(monkeypatch, test):
        def is_test(batch):
            return batch.n == test.n and all(
                np.array_equal(a, b)
                for a, b in zip(batch.features, test.features))

        seen = []
        spy_passes(monkeypatch, (cli_module, model_module, trainer_module),
                   lambda batch, clean: seen.append(clean and is_test(batch)))
        return seen

    @pytest.mark.parametrize("rates", [[0.0, 0.5], [0.5]],
                             ids=["clean-rate", "no-clean-rate"])
    def test_run_forwards_the_clean_test_split_once(
            self, tmp_path, monkeypatch, rates):
        # the scatter reads the table's clean view 0, with or without a
        # rate-0 column
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(dict(
            SMALL_CONFIG, eval=dict(SMALL_CONFIG["eval"], rates=rates))))
        test = generate(load_config(str(path)).data)[2]
        seen = self._count_test_forwards(monkeypatch, test)
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 0
        assert seen.count(True) == 1

    def test_scatter_is_the_clean_pass_train_ran(self, config_path,
                                                 tmp_path, monkeypatch):
        # handed a copy of the split, write_run_dir still forwards nothing
        cfg = load_config(config_path)
        data = generate(cfg.data)
        result = train(cfg.train, data)
        seen = self._count_test_forwards(monkeypatch, data[2])
        cli_module.write_run_dir(str(tmp_path / "a"), cfg, result, data[2])
        cli_module.write_run_dir(str(tmp_path / "b"), cfg, result,
                                 data[2].copy())
        assert seen == []
        for name in ("eval.csv", "scatter.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), name
        scatter = np.loadtxt(tmp_path / "a" / "scatter.csv", delimiter=",",
                             skiprows=1)
        passes, index = model_module.forward_views(result.model, data[2],
                                                   data[2].presence[None])
        want = entropy_confidence_export(passes.take(index[0]))
        assert np.array_equal(scatter, want)

    def test_scatter_without_a_clean_rate_is_forwarded(
            self, config_path, tmp_path, monkeypatch):
        # train's table forwards its clean view 0 though no rate reads it,
        # so write_run_dir forwards nothing
        cfg = load_config(config_path)
        cfg = replace(cfg, train=replace(cfg.train, eval_rates=(0.5,)))
        data = generate(cfg.data)
        result = train(cfg.train, data)
        passes, index = model_module.forward_views(result.model, data[2],
                                                   data[2].presence[None])
        want = entropy_confidence_export(passes.take(index[0]))
        assert np.array_equal(result.test_scatter, want)
        seen = self._count_test_forwards(monkeypatch, data[2])
        cli_module.write_run_dir(str(tmp_path / "run"), cfg, result, data[2])
        assert seen == []
        scatter = np.loadtxt(tmp_path / "run" / "scatter.csv", delimiter=",",
                             skiprows=1)
        assert np.array_equal(scatter, want)

    def test_single_modality_scatter_reads_the_kept_modality(self,
                                                             config_path,
                                                             tmp_path):
        # the rows eval.csv scores: the model sees only the kept modality,
        # so each gate row is one-hot and its entropy prints as 0, not -0
        cfg = load_config(config_path)
        cfg = replace(cfg, train=replace(cfg.train,
                                         ablation="single_modality",
                                         single_modality_index=1))
        data = generate(cfg.data)
        result = train(cfg.train, data)
        out = tmp_path / "run"
        cli_module.write_run_dir(str(out), cfg, result, data[2])
        text = (out / "scatter.csv").read_text().splitlines()
        scatter = np.loadtxt(text[1:], delimiter=",")
        kept = np.zeros_like(data[2].presence)
        kept[:, 1] = True
        want = entropy_confidence_export(model_module.forward(
            result.model, data[2], kept[None]))
        assert np.array_equal(scatter, want)
        assert (scatter[:, 0] == 0.0).all()
        assert not any(cell.startswith("-") for row in text[1:]
                       for cell in row.split(","))


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
        assert inv[0] == "observed_small,observed_big,count,mean_violation,rows"
        # subset cells stay comma-free so every row has exactly five columns
        assert [row.split(",")[:2] for row in inv[1:]] == [["0", "0+1"],
                                                           ["1", "0+1"]]
        assert all(len(row.split(",")) == 5 for row in inv[1:])
        # full presence: each pair counts on every test row
        assert [row.split(",")[4] for row in inv[1:]] == ["96", "96"]
        assert os.path.exists(os.path.join(out, "scatter.csv"))
        assert not os.path.exists(os.path.join(out, "eval.csv"))
        assert "inversion_rate" in capsys.readouterr().out

    def test_one_forward_pass_over_the_test_split(
            self, run_dir, config_path, tmp_path, monkeypatch):
        # the scatter reuses the calibration pass; every other forward is
        # over a subset view, in the lattice's order {0}, {0, 1}, {1}, and
        # at full presence the view of {0, 1} is the split's presence
        seen = []
        spy_passes(monkeypatch, (cli_module, model_module, metrics_module),
                   lambda batch, clean: seen.append(clean))
        assert main(["audit",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
                     "--config", config_path,
                     "--out", str(tmp_path / "audit")]) == 0
        assert seen == [True, False, True, False]

    def test_more_than_four_modalities_exit_before_any_compute(
            self, tmp_path, capsys):
        doc = dict(SMALL_CONFIG, data=dict(SMALL_CONFIG["data"], modalities=5,
                                           dims=[2] * 5, snr=[10.0] * 5))
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        checkpoint = str(tmp_path / "checkpoint.npz")
        save_checkpoint(FusionModel.from_seed(FusionConfig(
            modalities=5, dims=(2,) * 5, classes=3), seed=0), checkpoint)
        out = tmp_path / "audit"
        assert main(["audit", "--checkpoint", checkpoint, "--config",
                     str(path), "--out", str(out)]) == 2
        assert ("full lattice audit is limited to 4 modalities"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_rates_flag_adds_dropout_table(self, run_dir, config_path, tmp_path):
        out = str(tmp_path / "audit")
        code = main(["audit",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
                     "--config", config_path, "--out", out,
                     "--rates", "0.0,0.3"])
        assert code == 0
        rows = open(os.path.join(out, "eval.csv")).read().splitlines()
        assert len(rows) == 3

    @pytest.mark.parametrize("rates", ["0,1.5", "0,1", "-0.1", "nan",
                                       "0.5,0.5", "0,-0", "0,x", ","])
    def test_bad_rates_are_usage_errors(
            self, run_dir, config_path, tmp_path, capsys, rates):
        out = tmp_path / "audit"
        code = main(["audit",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
                     "--config", config_path, "--out", str(out),
                     "--rates", rates])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("temp_scaling", [False, True])
    def test_reads_the_clean_pass_its_run_read(self, tmp_path, temp_scaling):
        # forward sums gate layer 1 in another order than the prepared pass
        # of forward_views, so reading another pass shows in the last digits
        doc = dict(SMALL_CONFIG,
                   data=dict(SMALL_CONFIG["data"], modalities=3,
                             dims=[6, 5, 4], snr=[100.0, 1.0, 0.3]),
                   train=dict(SMALL_CONFIG["train"],
                              temp_scaling=temp_scaling))
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        run, out = tmp_path / "run", tmp_path / "audit"
        assert main(["run", "--config", str(path), "--out", str(run)]) == 0
        assert main(["audit", "--checkpoint", str(run / "checkpoint.npz"),
                     "--config", str(path), "--out", str(out)]) == 0
        assert ((out / "scatter.csv").read_bytes()
                == (run / "scatter.csv").read_bytes())
        # the ECE the calibration bins imply is eval.csv's rate-0 ECE
        bins = np.loadtxt(out / "calibration.csv", delimiter=",", skiprows=1)
        counts = bins[:, 3].astype(np.int64)
        full = counts > 0
        implied = float(np.sum(counts[full] / counts.sum() * np.abs(
            bins[full, 5] - bins[full, 4])))
        rate0 = np.loadtxt(run / "eval.csv", delimiter=",", skiprows=1)[0]
        assert rate0[0] == 0.0 and implied == rate0[2]

    def test_one_table_over_the_test_split(self, run_dir, config_path,
                                           tmp_path, monkeypatch):
        # the clean pass, the lattice and the dropout table are blocks of
        # one forward_views call, which prepares the split's gate once
        test = generate(load_config(config_path).data)[2]
        tables, products = [], []
        real_views, real_products = (model_module.forward_views,
                                     model_module._gate_products)

        def views_spy(model, batch, views):
            tables.append(np.array_equal(batch.features[0], test.features[0]))
            return real_views(model, batch, views)

        def products_spy(model, batch):
            products.append(batch.n)
            return real_products(model, batch)

        for module in (cli_module, metrics_module, model_module,
                       trainer_module):
            monkeypatch.setattr(module, "forward_views", views_spy)
        monkeypatch.setattr(model_module, "_gate_products", products_spy)
        assert main(["audit",
                     "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
                     "--config", config_path, "--out", str(tmp_path / "audit"),
                     "--rates", "0.0,0.5"]) == 0
        assert tables == [True] and products == [test.n]

    @pytest.mark.parametrize("modalities,hidden,temp_scaling",
                             [(3, 3, True), (4, 2, False)])
    def test_files_equal_the_one_block_reads(self, tmp_path, modalities,
                                             hidden, temp_scaling):
        # every file from the shared table is byte for byte the file the
        # one-block calls give: a one-view clean pass, inversion_audit and
        # evaluate_under_dropout
        doc = dict(SMALL_CONFIG,
                   data=dict(SMALL_CONFIG["data"], modalities=modalities,
                             dims=[6, 5, 4, 3][:modalities],
                             snr=[100.0, 1.0, 0.3, 3.0][:modalities]),
                   train=dict(SMALL_CONFIG["train"], gate_hidden=hidden,
                              temp_scaling=temp_scaling, gamma=1.0))
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        run, out, want = tmp_path / "run", tmp_path / "audit", tmp_path / "want"
        assert main(["run", "--config", str(path), "--out", str(run)]) == 0
        checkpoint = str(run / "checkpoint.npz")
        assert main(["audit", "--checkpoint", checkpoint, "--config",
                     str(path), "--out", str(out), "--rates", "0.0,0.5"]) == 0

        cfg = load_config(str(path))
        model = model_module.load_checkpoint(checkpoint)
        temperature = cli_module._run_temperature(checkpoint)
        assert (temperature != 1.0) == temp_scaling
        test = generate(cfg.data)[2]
        passes, index = model_module.forward_views(model, test,
                                                   test.presence[None])
        clean = passes.take(index[0])
        report = metrics_module.ece(*metrics_module.confidence_correct(
            clean.logits.data, test.labels, temperature))
        metrics_module.write_csv(
            want / "calibration.csv", ["bin", "lower", "upper", "count",
                                       "mean_confidence", "accuracy"],
            [[k, report.bin_edges[k], report.bin_edges[k + 1],
              report.counts[k], report.mean_confidence[k],
              report.accuracy[k]] for k in range(len(report.counts))])
        audit = metrics_module.inversion_audit(model, test)
        cells = ["+".join(str(m) for m in np.flatnonzero(row))
                 for row in audit.subsets]
        metrics_module.write_csv(
            want / "inversions.csv", ["observed_small", "observed_big",
                                      "count", "mean_violation", "rows"],
            [[cells[small], cells[big], audit.counts[i],
              audit.mean_violation[i], audit.rows[i]]
             for i, (small, big) in enumerate(audit.pairs)])
        cli_module._write_scatter(str(want),
                                  entropy_confidence_export(clean))
        cli_module._write_eval(str(want), trainer_module.evaluate_under_dropout(
            model, test, rates=(0.0, 0.5), seeds=cfg.train.eval_seeds,
            seed=cfg.train.seed, temperature=temperature))
        names = ["calibration.csv", "inversions.csv", "scatter.csv",
                 "eval.csv"]
        assert sorted(os.listdir(out)) == sorted(names)
        for name in names:
            assert ((out / name).read_bytes()
                    == (want / name).read_bytes()), name

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

    @staticmethod
    def _audit_altered(run_dir, config_path, tmp_path, capsys, alter):
        """Exit code and stderr of audit on a copy of the run's checkpoint
        whose arrays ``alter`` has changed in place."""
        with np.load(os.path.join(run_dir, "checkpoint.npz")) as z:
            arrays = {name: z[name] for name in z.files}
        alter(arrays)
        path = tmp_path / "altered.npz"
        np.savez(path, **arrays)
        capsys.readouterr()
        code = main(["audit", "--checkpoint", str(path), "--config",
                     config_path, "--out", str(tmp_path / "audit")])
        return code, capsys.readouterr().err

    def test_checkpoint_config_with_an_unknown_key_exits_one(
            self, run_dir, config_path, tmp_path, capsys):
        # checkpoints written while FusionConfig still held dropout_rate
        def alter(arrays):
            cfg = json.loads(arrays["config_json"].tobytes())
            cfg["dropout_rate"] = 0.1
            arrays["config_json"] = np.frombuffer(
                json.dumps(cfg).encode("utf-8"), dtype=np.uint8)

        code, err = self._audit_altered(run_dir, config_path, tmp_path,
                                        capsys, alter)
        assert code == 1 and "cannot load checkpoint" in err
        assert "dropout_rate" in err

    def test_checkpoint_array_of_the_wrong_shape_exits_one(
            self, run_dir, config_path, tmp_path, capsys):
        def alter(arrays):
            arrays["head_w"] = arrays["head_w"][:, :-1]

        code, err = self._audit_altered(run_dir, config_path, tmp_path,
                                        capsys, alter)
        assert code == 1 and "cannot load checkpoint" in err
        assert "head_w" in err

    def test_checkpoint_with_a_non_finite_value_exits_one(
            self, run_dir, config_path, tmp_path, capsys):
        def alter(arrays):
            arrays["proj_1"][0, 0] = np.nan

        code, err = self._audit_altered(run_dir, config_path, tmp_path,
                                        capsys, alter)
        assert code == 1 and "cannot load checkpoint" in err
        assert "non-finite" in err

    @pytest.mark.parametrize("key", ["head_b", "norm_std_1", "config_json"])
    def test_checkpoint_missing_an_entry_exits_one(
            self, run_dir, config_path, tmp_path, capsys, key):
        def alter(arrays):
            del arrays[key]

        code, err = self._audit_altered(run_dir, config_path, tmp_path,
                                        capsys, alter)
        assert code == 1 and "cannot load checkpoint" in err
        assert f"checkpoint lacks entry {key}" in err
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize("kept", [0.0, 0.5], ids=["empty", "half"])
    def test_truncated_checkpoint_exits_one(self, run_dir, config_path,
                                            tmp_path, capsys, kept):
        # as a save killed part way leaves the file
        blob = open(os.path.join(run_dir, "checkpoint.npz"), "rb").read()
        path = tmp_path / "cut.npz"
        path.write_bytes(blob[: int(len(blob) * kept)])
        capsys.readouterr()
        code = main(["audit", "--checkpoint", str(path), "--config",
                     config_path, "--out", str(tmp_path / "audit")])
        err = capsys.readouterr().err
        assert code == 1 and "cannot load checkpoint" in err
        assert "not an npz archive" in err
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize("key,value", [("norm_std_1", -1.0),
                                           ("norm_std_0", 0.0)])
    def test_checkpoint_with_a_non_positive_norm_std_exits_one(
            self, run_dir, config_path, tmp_path, capsys, key, value):
        # a flipped or zero standardization, rejected before any file
        def alter(arrays):
            arrays[key][...] = value

        code, err = self._audit_altered(run_dir, config_path, tmp_path,
                                        capsys, alter)
        assert code == 1 and "cannot load checkpoint" in err
        assert f"{key} holds a value <= 0" in err
        assert not (tmp_path / "audit").exists()


class TestExitCodes:
    def test_missing_config_file_is_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_bad_yaml_is_one(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("data: [unclosed\n")
        assert main(["run", "--config", str(path)]) == 1

    # audit reads the config only after the checkpoint, so these need one
    @pytest.fixture
    def checkpoint(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["run", "--config", config_path, "--out", out]) == 0
        return os.path.join(out, "checkpoint.npz")

    def test_audit_missing_config_file_is_one(self, checkpoint, tmp_path):
        assert main(["audit", "--checkpoint", checkpoint,
                     "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_audit_bad_yaml_is_one(self, checkpoint, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("data: [unclosed\n")
        assert main(["audit", "--checkpoint", checkpoint,
                     "--config", str(path)]) == 1

    @pytest.fixture(params=["directory", "not_utf8"])
    def unreadable_config(self, request, tmp_path):
        if request.param == "directory":
            path = tmp_path / "config_dir"
            path.mkdir()
        else:
            path = tmp_path / "latin1.yaml"
            path.write_bytes(b"data: {seed: 0}  # caf\xe9\n")
        return str(path)

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_unreadable_config_is_one(self, unreadable_config, command,
                                      tmp_path, capsys):
        code = main([command, "--config", unreadable_config,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_audit_unreadable_config_is_one(self, checkpoint,
                                            unreadable_config, capsys):
        assert main(["audit", "--checkpoint", checkpoint,
                     "--config", unreadable_config]) == 1
        assert "config error: cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explode", "gen-data"])
    def test_unknown_subcommand_is_one(self, command, config_path, tmp_path,
                                       capsys):
        out = tmp_path / "data.npz"
        assert main([command, "--config", config_path, "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_docstring_readme_and_parser_name_the_same_subcommands(self):
        doc = cli_module.__doc__.split("Subcommands:\n")[1].split("\n\n")[0]
        readme = Path(__file__).resolve().parent.parent / "README.md"
        usage = (readme.read_text(encoding="utf-8").split("## CLI\n")[1]
                 .split("```bash\n")[1].split("```")[0])
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        named = set(re.findall(r"^  (\S+)  ", doc, re.MULTILINE))
        assert {"run", "ablate", "audit"} <= named
        assert set(re.findall(r"^entrofuse (\S+)", usage, re.MULTILINE)) == named
        assert set(sub.choices) == named

    def test_missing_required_flag_is_one(self):
        assert main(["run"]) == 1

    def test_unknown_config_key_is_one(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(minimal_bad_key()))
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("section,setting", [
        ("eval", {"rates": [0.0, 0.5, 0.5]}),
        ("eval", {"seeds": 0}),
        ("train", {"gate_hidden": 0}),
        ("train", {"cec_pair_limit": 0}),
        ("train", {"weight_decay": -0.01}),
        ("train", {"gamma": float("nan")}),  # YAML .nan
        ("train", {"single_modality_index": 2}),
        ("train", {"acm_family": "typo"}),
        ("train", {"divergence_factor": float("inf")}),  # YAML .inf
        ("data", {"snr": [float("inf"), 1e4]})])
    def test_bad_run_settings_exit_one_before_any_compute(
            self, tmp_path, monkeypatch, capsys, command, section, setting):
        doc = dict(SMALL_CONFIG, **{section: dict(SMALL_CONFIG[section],
                                                  **setting)})
        err = self._assert_config_error_before_compute(
            doc, command, tmp_path, monkeypatch, capsys)
        assert f"config error: {section}" in err  # names the section set

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_all_subsets_beyond_four_modalities_exits_one_before_any_compute(
            self, tmp_path, monkeypatch, capsys, command):
        doc = {"data": dict(SMALL_CONFIG["data"], modalities=5, dims=[6] * 5,
                            snr=[1e4] * 5),
               "train": dict(SMALL_CONFIG["train"], acm_family="all_subsets",
                             schedules={"mode": "acm"}),
               "eval": SMALL_CONFIG["eval"]}
        self._assert_config_error_before_compute(
            doc, command, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("command,ablation", [
        ("run", "full"), ("ablate", "single_modality")])
    def test_consistency_penalty_beyond_ten_modalities_exits_one_before_any_compute(
            self, tmp_path, monkeypatch, capsys, command, ablation):
        # the subset lattice stops at 10 modalities, so such a run could
        # never train: it is a config error, caught before data generation;
        # the ablate grid runs full whatever the tag
        doc = {"data": dict(SMALL_CONFIG["data"], modalities=11, dims=[2] * 11,
                            snr=[1e4] * 11),
               "train": dict(SMALL_CONFIG["train"], gamma=1.0,
                             ablation=ablation),
               "eval": SMALL_CONFIG["eval"]}
        err = self._assert_config_error_before_compute(
            doc, command, tmp_path, monkeypatch, capsys)
        assert "train.gamma > 0 is limited to 10 modalities" in err

    def test_removed_lambda_draws_key_exits_one_before_any_compute(
            self, tmp_path, monkeypatch, capsys):
        # the branch variance is in closed form, so the Monte-Carlo draw
        # count is an unknown key
        doc = dict(SMALL_CONFIG, train=dict(
            SMALL_CONFIG["train"], lam_mode="instance",
            **{"lambda": {"lam_min": 0.01, "draws": 20}}))
        err = self._assert_config_error_before_compute(
            doc, "run", tmp_path, monkeypatch, capsys)
        assert "'draws' in train.lambda" in err

    @staticmethod
    def _assert_config_error_before_compute(doc, command, tmp_path,
                                            monkeypatch, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))

        def no_compute(*args):
            raise AssertionError("a bad config reached data generation")

        monkeypatch.setattr(cli_module, "generate", no_compute)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert not out.exists()
        return err

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
