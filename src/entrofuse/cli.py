"""Experiment driver.

Subcommands:
  run       train one configuration and write a run directory
  ablate    run the ablation grid with shared seeds, emit a combined table
  audit     calibration + inversion + scatter reports for a checkpoint,
            at the temperature its run fitted (summary.yaml beside it)

Exit codes: 0 success, 1 usage or config error, 2 runtime failure
(including training divergence).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import yaml

from .config import (ConfigError, ExperimentConfig, check_lattice,
                     dump_resolved, load_config, parse_config, read_yaml)
from .data import generate
from .metrics import (audit_block, check_audit, confidence_correct, ece,
                      entropy_confidence_export, write_csv)
from .model import forward_views, load_checkpoint, save_checkpoint
from .trainer import (ABLATIONS, DivergenceError, RunResult, check_rates,
                      dropout_block, train)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; our contract reserves 2
    # for runtime failures, so usage problems are rerouted to exit 1.
    def error(self, message):
        raise UsageError(message)


def _rates_arg(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in text.split(",") if part != "")
        check_rates(rates)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rates list {text!r}: {exc}")
    if not rates:
        raise argparse.ArgumentTypeError("rates list is empty")
    return rates


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entrofuse",
                     description="entropy-gated fusion experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_abl = sub.add_parser("ablate", help="run the ablation grid")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--seed", type=int, default=None)
    p_abl.add_argument("--out", default=None)
    p_abl.add_argument("--jobs", type=int, default=1)
    p_abl.set_defaults(func=cmd_ablate)

    p_aud = sub.add_parser("audit", help="audit a trained checkpoint")
    p_aud.add_argument("--checkpoint", required=True)
    p_aud.add_argument("--config", required=True)
    p_aud.add_argument("--out", default=None)
    p_aud.add_argument("--rates", type=_rates_arg, default=None)
    p_aud.set_defaults(func=cmd_audit)

    return parser


def _resolve_out(cfg: ExperimentConfig, override: str | None, fallback: str) -> str:
    return override or cfg.out or fallback


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _write_eval(out: str, table: dict[float, dict[str, float]]) -> None:
    write_csv(os.path.join(out, "eval.csv"),
              ["rate", "score", "ece", "gate_entropy"],
              [[rate, row["score"], row["ece"], row["gate_entropy"]]
               for rate, row in table.items()])


def _write_scatter(out: str, scatter) -> None:
    write_csv(os.path.join(out, "scatter.csv"),
              ["gate_entropy", "confidence"], scatter.tolist())


def write_run_dir(out: str, cfg: ExperimentConfig, result: RunResult,
                  test_batch) -> None:
    """Write ``result``'s run directory. ``test_batch`` is not read: the
    scatter is ``result.test_scatter``, from the test split's table."""
    os.makedirs(out, exist_ok=True)
    dump_resolved(cfg, os.path.join(out, "config.yaml"))

    history_rows = [[row["epoch"], bd.total, bd.task, bd.ent, bd.cec, bd.lam,
                     row["score"], row["ece"], row["gate_entropy"]]
                    for bd, row in zip(result.history, result.metric_history)]
    write_csv(os.path.join(out, "history.csv"),
              ["epoch", "total", "task", "ent", "cec", "lam",
               "val_score", "val_ece", "val_gate_entropy"], history_rows)

    _write_eval(out, result.eval_table)
    _write_scatter(out, result.test_scatter)

    save_checkpoint(result.model, os.path.join(out, "checkpoint.npz"))

    summary = {
        "config_hash": result.config_hash,
        "wall_clock_s": float(result.wall_clock),
        "eval_s": float(result.eval_s),
        "temperature": result.temperature,
        "v_max": result.v_max,
        "final_val_score": float(result.metric_history[-1]["score"])
        if result.metric_history else None,
    }
    with open(os.path.join(out, "summary.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(summary, fh, sort_keys=True)


def cmd_run(args) -> int:
    cfg = _load(args)
    out = _resolve_out(cfg, args.out, f"runs/run-seed{cfg.train.seed}")
    data = generate(cfg.data)
    result = train(cfg.train, data)
    write_run_dir(out, cfg, result, data[2])
    zero = result.eval_table.get(0.0, {})
    print(f"run complete: out={out} hash={result.config_hash} "
          f"score@0={zero.get('score', float('nan')):.4f} "
          f"ece@0={zero.get('ece', float('nan')):.4f}")
    return 0


def _ablate_job(job: tuple[ExperimentConfig, str, str]):
    cfg, tag, out = job
    try:
        sub_cfg = ExperimentConfig(data=cfg.data,
                                   train=replace(cfg.train, ablation=tag),
                                   out=out)
        data = generate(sub_cfg.data)
        result = train(sub_cfg.train, data)
        write_run_dir(out, sub_cfg, result, data[2])
    except Exception as exc:
        raise RuntimeError(f"ablation '{tag}' failed: {exc}") from exc
    return tag, result.eval_table


def cmd_ablate(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _load(args)
    # the grid runs full, whatever the config's ablation tag
    check_lattice(replace(cfg.train, ablation="full"), cfg.data.modalities)
    out = _resolve_out(cfg, args.out, f"runs/ablate-seed{cfg.train.seed}")
    os.makedirs(out, exist_ok=True)
    jobs = [(cfg, tag, os.path.join(out, tag)) for tag in ABLATIONS]

    if args.jobs == 1:
        tables = dict(map(_ablate_job, jobs))
    else:
        # imported here, so that no other command loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers up front: one per job at most
        with ProcessPoolExecutor(min(args.jobs, len(jobs))) as pool:
            tables = dict(pool.map(_ablate_job, jobs))

    cols = [(rate, key) for rate in cfg.train.eval_rates
            for key in ("score", "ece")]
    table_path = os.path.join(out, "ablate.csv")
    write_csv(table_path, ["ablation"] + [f"{k}@{r:g}" for r, k in cols],
              [[tag] + [tables[tag][r][k] for r, k in cols]
               for tag in ABLATIONS])
    print(f"ablation table: {table_path}")
    return 0


def _run_temperature(checkpoint: str) -> float:
    """Temperature fitted by the run that wrote ``checkpoint``, read from the
    ``summary.yaml`` beside it; 1 when there is none or it records null."""
    path = os.path.join(os.path.dirname(checkpoint), "summary.yaml")
    if not os.path.isfile(path):
        return 1.0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read run summary {path}: {exc}")
    value = summary.get("temperature") if isinstance(summary, dict) else None
    if value is None:
        return 1.0
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value < float("inf")):
        raise ConfigError(f"{path}: temperature must be a positive number, "
                          f"got {value!r}")
    return float(value)


def cmd_audit(args) -> int:
    try:
        model = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {args.checkpoint}: {exc}")
    check_audit(model.cfg.modalities)  # before any compute or file

    doc = read_yaml(args.config)
    if isinstance(doc, dict):
        doc.setdefault("train", {})  # audit needs only the data section
    cfg = parse_config(doc)

    spec = cfg.data
    if (model.cfg.modalities != spec.modalities
            or tuple(model.cfg.dims) != tuple(spec.dims)
            or model.cfg.classes != spec.classes
            or model.cfg.multilabel != spec.multilabel):
        raise ConfigError(
            f"checkpoint layout (M={model.cfg.modalities}, dims={model.cfg.dims}, "
            f"classes={model.cfg.classes}) does not match data config")

    temperature = _run_temperature(args.checkpoint)
    _, _, test_b = generate(spec)
    out = _resolve_out(cfg, args.out, "runs/audit")
    os.makedirs(out, exist_ok=True)

    # one table: the dropout block, then the lattice block; calibration and
    # scatter read view 0, the clean view of run's rate-0 column and scatter
    table_views, read_table = dropout_block(
        test_b, args.rates or (), cfg.train.eval_seeds, cfg.train.seed,
        temperature)
    audit_views, read_audit = audit_block(test_b)
    passes, index = forward_views(model, test_b, [*table_views, *audit_views])
    clean = passes.take(index[0])
    report = ece(*confidence_correct(clean.logits.data, test_b.labels,
                                     temperature))
    bin_rows = [[k, report.bin_edges[k], report.bin_edges[k + 1],
                 report.counts[k], report.mean_confidence[k],
                 report.accuracy[k]] for k in range(len(report.counts))]
    write_csv(os.path.join(out, "calibration.csv"),
              ["bin", "lower", "upper", "count", "mean_confidence",
               "accuracy"], bin_rows)

    audit = read_audit(passes, index[len(table_views):])

    def cell(row):  # a subset's modality indices, comma-free for CSV cells
        return "+".join(str(m) for m, on in enumerate(audit.subsets[row])
                        if on)

    pair_rows = [[cell(small), cell(big), audit.counts[i],
                  audit.mean_violation[i], audit.rows[i]]
                 for i, (small, big) in enumerate(audit.pairs)]
    write_csv(os.path.join(out, "inversions.csv"),
              ["observed_small", "observed_big", "count", "mean_violation",
               "rows"], pair_rows)

    _write_scatter(out, entropy_confidence_export(clean))
    if args.rates is not None:
        _write_eval(out, read_table(passes, index[:len(table_views)]))

    print(f"audit: out={out} ece={report.ece:.4f} "
          f"inversion_rate={audit.rate:.4f} pairs={len(audit.pairs)} "
          f"temperature={temperature:.6g}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
