"""Closed-loop benchmark of entrofuse training and auditing.

Run from the repository root:

    python3 perfbench/run.py --workload train-acm-m2 --seed 0 --seconds 30 --trace 0

One process runs one workload: set-up (repeated, median reported), then the
workload's iteration back to back for ``--seconds``, each starting after the
previous one ends. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced iterations and prints the per-layer split.
The last line of standard output is the JSON result; spans, per-iteration
timings and loss histories go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: these 128x32 matmuls run slower with more, and a single
# thread keeps the benchmark off the second core of a shared machine.
BLAS_THREADS = 1
SETUP_REPS = 3
MIN_ITERATIONS = 4

END_TO_END = {"setup_s": "s", "run_s": "s", "rows_per_s": "rows/s",
              "peak_rss_mb": "MB", "acc_drop50": "frac"}

# metric -> (span name, what to read). "self" excludes time in traced
# callees, "incl" includes it, "calls" counts entries.
PER_LAYER_SPANS = {
    "model.gate_rows_s": ("model.gate_rows", "self"),
    "model.forward_s": ("model.forward", "self"),
    "data.apply_mask_s": ("data.apply_mask", "self"),
    "data.take_s": ("data.take", "self"),
    "losses.subset_confidences_s": ("losses.subset_confidences", "incl"),
    "losses.cec_loss_s": ("losses.cec_loss", "self"),
    "losses.composite_loss_s": ("losses.composite_loss", "self"),
    "tensor.backward_s": ("tensor.backward", "self"),
    "curriculum.acm_distribution_s": ("curriculum.acm_distribution", "incl"),
    "curriculum.sample_keep_s": ("curriculum.sample_keep", "self"),
    "uncertainty.lambda_of_s": ("uncertainty.lambda_of", "incl"),
    "optim.adamw_step_s": ("optim.adamw_step", "self"),
    "metrics.inversion_audit_s": ("metrics.inversion_audit", "incl"),
    "metrics.ece_s": ("metrics.ece", "self"),
    "trainer.evaluate_under_dropout_s": ("trainer.evaluate_under_dropout", "incl"),
    "trainer.train_self_s": ("trainer.train", "self"),
    "cli.write_run_dir_s": ("cli.write_run_dir", "incl"),
    "model.gate_rows_calls": ("model.gate_rows", "calls"),
    "model.forward_calls": ("model.forward", "calls"),
    "model.predict_subset_calls": ("model.predict_subset", "calls"),
    "data.apply_mask_calls": ("data.apply_mask", "calls"),
    "data.take_calls": ("data.take", "calls"),
}
PER_LAYER_UNITS = {
    **{name: "count" if kind == "calls" else "s"
       for name, (_, kind) in PER_LAYER_SPANS.items()},
    "tensor.tape_nodes": "count", "data.generate_s": "s",
    "trace_overhead": "ratio", "host.reference_s": "s",
    "metrics.ece_drop50": "frac",
    "metrics.inversion_rate": "frac",
}
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "numpy": np.__version__, "python": sys.version.split()[0],
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "entrofuse" / "__init__.py").is_file():
        print(f"error: no entrofuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    t_import = time.perf_counter()
    import entrofuse
    from workloads import (NAMES, REFERENCE_SHAPE, Workload, history_rows,
                           loss_digest)
    import_s = time.perf_counter() - t_import
    from hostclock import NOMINAL_REF_S, HostClock
    from tracing import Tracer

    if Path(entrofuse.__file__).resolve().parent != SRC / "entrofuse":
        print(f"error: imported entrofuse from {entrofuse.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(NAMES)}", file=sys.stderr)
        return 2
    clock = HostClock(*REFERENCE_SHAPE[args.workload])
    import_s *= NOMINAL_REF_S / clock.reference_s[0]
    OUT.mkdir(exist_ok=True)
    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tracer = Tracer() if args.trace else None

    # Set-up: inputs (and the audit checkpoint) plus one discarded warm-up
    # iteration, so lazy imports and BLAS start-up land here, not in run_s.
    setup_times = []
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.run = f"setup-{rep}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload = Workload(args.workload, args.seed, str(OUT))
            workload.setup()
            workload.iterate()
        finally:
            if tracer:
                tracer.remove()
        setup_times.append((time.perf_counter() - t0) * clock.scale())
    setup_s = import_s + median(setup_times)

    outcomes, scales, traced, layers = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while attempted < MIN_ITERATIONS or time.perf_counter() < deadline:
        is_traced = tracer is not None and attempted % 2 == 1
        run_id = f"iter-{attempted}"
        attempted += 1
        if is_traced:
            tracer.run = run_id
            tracer.install()
        try:
            outcome = workload.iterate()
        except Exception:
            failed += 1
            print(f"{run_id} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            if is_traced:
                tracer.remove()
            scale = clock.scale()
        workload.check(outcome)
        if outcomes and outcome.fingerprint != outcomes[0].fingerprint:
            outcome.problems.append(
                f"result {outcome.fingerprint} differs from the first "
                f"iteration's {outcomes[0].fingerprint}")
        if outcome.problems:
            failed += 1
            print(f"{run_id} failed: {'; '.join(outcome.problems)}",
                  file=sys.stderr)
        outcomes.append(outcome)
        scales.append(scale)
        traced.append(is_traced)
        if is_traced:
            layers.append(layer_totals(tracer, run_id))

    if not outcomes or (tracer and len(set(traced)) < 2):
        print("error: too few iterations completed", file=sys.stderr)
        return 1
    history = history_rows(workload.history)
    print(f"loss_digest workload={args.workload} seed={args.seed} "
          f"epochs={len(history)} sha256={loss_digest(workload.history)} "
          f"first_total={history[0][0]!r} last_total={history[-1][0]!r}")
    problems = list(dict.fromkeys(p for o in outcomes for p in o.problems))
    walls = [o.wall_s for o in outcomes]
    scaled = [o.wall_s * f for o, f in zip(outcomes, scales)]

    if tracer:
        values = {name: median(row[name] for row in layers)
                  for name in layers[0]}
        for name in COUNTS:
            if len({row[name] for row in layers}) > 1:
                problems.append(f"{name} differs between iterations: "
                                f"{[row[name] for row in layers]}")
        values["data.generate_s"] = median(
            tracer.totals(f"setup-{rep}")["data.generate"]["incl"]
            for rep in range(SETUP_REPS))
        values["trace_overhead"] = (
            median(t for t, on in zip(scaled, traced) if on)
            / median(t for t, on in zip(scaled, traced) if not on))
        values["host.reference_s"] = median(clock.reference_s)
        values["metrics.ece_drop50"] = median(o.ece_drop50 for o in outcomes)
        values["metrics.inversion_rate"] = median(
            o.inversion_rate for o in outcomes)
        units = PER_LAYER_UNITS
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": setup_s,
            "run_s": median(scaled),
            "rows_per_s": workload.rows_per_iteration / median(
                o.main_s * f for o, f in zip(outcomes, scales)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "acc_drop50": median(o.acc_drop50 for o in outcomes),
        }
        units = END_TO_END

    print(f"quality workload={args.workload} seed={args.seed} "
          f"ece_drop50={outcomes[0].ece_drop50!r} "
          f"inversion_rate={outcomes[0].inversion_rate!r}")
    print(f"iterations={attempted} failed={failed} wall_s: best={min(walls):.4f} "
          f"median={median(walls):.4f} worst={max(walls):.4f} "
          f"reference_s: median={median(clock.reference_s):.4f} "
          f"setup_reps_s={[round(t, 4) for t in setup_times]} "
          f"import_s={import_s:.4f}")
    for name, value in values.items():
        print(f"metric {args.workload} {name} = {value!r} {units[name]}")
    for problem in problems:
        print(f"problem: {problem}")

    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": float(value), "unit": units[name]}
                          for name, value in values.items()}}
    record = {"args": vars(args), "env": env, "result": result,
              "setup_scaled_s": setup_times, "import_scaled_s": import_s,
              "iteration_wall_s": walls, "iteration_scale": scales,
              "reference_s": clock.reference_s,
              "loss_history": history, "problems": problems}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def layer_totals(tracer, run_id: str) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    totals = tracer.totals(run_id)
    row = {}
    for name, (span, kind) in PER_LAYER_SPANS.items():
        row[name] = totals[span][kind] if span in totals else 0
    row["tensor.tape_nodes"] = tracer.tape_nodes.get(run_id, 0)
    return row


if __name__ == "__main__":
    sys.exit(main())
