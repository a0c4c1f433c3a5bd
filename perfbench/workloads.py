"""The three benchmark workloads: inputs, set-up, one loop iteration, checks.

Each workload builds its inputs from the seed alone and calls only public
entrofuse functions. One iteration is the unit of work the loop repeats on
the same inputs:

- ``train-acm-m2`` / ``train-instance-m2``: ``trainer.train`` on the C07
  acceptance data, then ``cli.write_run_dir``.
- ``audit-m4``: one audit pass over the test split of a 4-modality
  checkpoint trained in set-up: ``metrics.inversion_audit`` over the full
  subset lattice, a forward pass and ``metrics.ece`` for calibration, and
  ``trainer.evaluate_under_dropout`` at five rates.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from entrofuse import cli, data, metrics, model, trainer
from entrofuse.config import ExperimentConfig
from entrofuse.curriculum import Schedules
from entrofuse.subsets import nonempty_subsets

NAMES = ("train-acm-m2", "train-instance-m2", "audit-m4")

# Lowest accuracy at 50% test-time modality dropout that counts as a correct
# run: well below what seeds reach (0.92-0.98 on M=2, 0.85-0.93 on M=4) and
# far above chance (0.125), so only a broken model falls under it.
ACC_DROP50_FLOOR = {"train-acm-m2": 0.8, "train-instance-m2": 0.8,
                    "audit-m4": 0.7}

AUDIT_ROWS = 1000

# Rows and repetitions of the host-speed reference kernel (see hostclock.py):
# rows like the arrays the iteration works on, a training batch or the
# audited test split.
REFERENCE_SHAPE = {"train-acm-m2": (128, 380), "train-instance-m2": (128, 380),
                   "audit-m4": (AUDIT_ROWS, 56)}

AUDIT_RATES = (0.0, 0.1, 0.2, 0.3, 0.5)
AUDIT_SEEDS = 5
SIMPLEX_TOL = 1e-9


def _c07_spec(seed: int) -> data.SyntheticSpec:
    return data.SyntheticSpec(modalities=2, classes=8, dims=(32, 32),
                              snr=(1e4, 0.3), n_train=1500, n_val=500,
                              n_test=1000, seed=seed)


def _m4_spec(seed: int) -> data.SyntheticSpec:
    return data.SyntheticSpec(modalities=4, classes=8, dims=(32, 32, 32, 32),
                              snr=(1e4, 1.0, 0.3, 0.1), n_train=1500,
                              n_val=500, n_test=AUDIT_ROWS, seed=seed)


def _train_config(name: str, seed: int) -> trainer.TrainConfig:
    common = dict(batch_size=128, seed=seed, gate_hidden=64, probe_size=512)
    if name == "train-acm-m2":
        return trainer.TrainConfig(
            epochs=30, gamma=20.0, eval_rates=(0.0, 0.5), eval_seeds=5,
            schedules=Schedules(mode="acm", t_warm=10, t_lam=10, lam_max=1.2),
            **common)
    if name == "train-instance-m2":
        return trainer.TrainConfig(
            epochs=30, gamma=0.0, lam_mode="instance", eval_rates=(0.0, 0.5),
            eval_seeds=5,
            schedules=Schedules(mode="bernoulli", t_warm=10, t_lam=10,
                                lam_max=1.2),
            **common)
    # the short checkpoint audit-m4 reads; its own evaluation is one column
    return trainer.TrainConfig(
        epochs=10, gamma=20.0, acm_family="all_subsets", eval_rates=(0.0,),
        eval_seeds=1,
        schedules=Schedules(mode="acm", t_warm=10, t_lam=10, lam_max=1.2),
        **common)


def history_rows(history) -> list[list[float]]:
    """Per-epoch (total, task, ent, cec, lam) losses."""
    return [[bd.total, bd.task, bd.ent, bd.cec, bd.lam] for bd in history]


def loss_digest(history) -> str:
    """SHA-256 prefix over every per-epoch loss component at full precision."""
    text = "\n".join(" ".join("%.17g" % v for v in row)
                     for row in history_rows(history))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


@dataclass
class Outcome:
    """What one iteration produced, plus the reasons any check failed."""

    wall_s: float
    main_s: float  # train() alone, or the whole audit pass
    acc_drop50: float
    ece_drop50: float
    fingerprint: str  # equal across iterations of one run, else a failure
    inversion_rate: float = float("nan")
    problems: list[str] = field(default_factory=list)


class Workload:
    """Set-up state and the closed-loop iteration for one named workload."""

    def __init__(self, name: str, seed: int, out_dir: str):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.seed = seed
        self.run_dir = os.path.join(out_dir, f"run-{name}")
        self.cfg = _train_config(name, seed)
        self.spec = _m4_spec(seed) if name == "audit-m4" else _c07_spec(seed)
        self.experiment = ExperimentConfig(data=self.spec, train=self.cfg,
                                           out=self.run_dir)
        self.splits = None
        self.model = None
        self.history = None  # per-epoch losses of the trained model

    @property
    def rows_per_iteration(self) -> int:
        """Rows pushed through the model by the iteration's main phase."""
        if self.name != "audit-m4":
            return self.cfg.epochs * self.spec.n_train
        forwards = (len(nonempty_subsets(self.spec.modalities)) + 1
                    + sum(1 if r == 0.0 else AUDIT_SEEDS for r in AUDIT_RATES))
        return forwards * self.spec.n_test

    def setup(self) -> None:
        """Generate inputs; for audit-m4 also train, write and reload the
        checkpoint the audit pass reads."""
        self.splits = data.generate(self.spec)
        if self.name == "audit-m4":
            result = trainer.train(self.cfg, self.splits)
            cli.write_run_dir(self.run_dir, self.experiment, result,
                              self.splits[2])
            self.model = model.load_checkpoint(
                os.path.join(self.run_dir, "checkpoint.npz"))
            self.history = result.history

    def iterate(self) -> Outcome:
        """The timed unit of work; calls nothing but the work itself."""
        if self.name == "audit-m4":
            return self._audit_pass()
        t0 = time.perf_counter()
        result = trainer.train(self.cfg, self.splits)
        t1 = time.perf_counter()
        cli.write_run_dir(self.run_dir, self.experiment, result,
                          self.splits[2])
        t2 = time.perf_counter()
        self.model = result.model
        self.history = result.history
        outcome = Outcome(wall_s=t2 - t0, main_s=t1 - t0,
                          acc_drop50=result.eval_table[0.5]["score"],
                          ece_drop50=result.eval_table[0.5]["ece"],
                          fingerprint=loss_digest(result.history))
        losses = np.array(history_rows(result.history))
        if losses.shape != (self.cfg.epochs, 5) or not np.isfinite(losses).all():
            outcome.problems.append("loss history is not finite")
        for artifact in ("config.yaml", "history.csv", "eval.csv",
                         "scatter.csv", "checkpoint.npz", "summary.yaml"):
            if not os.path.isfile(os.path.join(self.run_dir, artifact)):
                outcome.problems.append(f"run directory lacks {artifact}")
        return outcome

    def _audit_pass(self) -> Outcome:
        test = self.splits[2]
        t0 = time.perf_counter()
        audit = metrics.inversion_audit(self.model, test)
        out = model.forward(self.model, test)
        correct = out.logits.data.argmax(axis=1) == test.labels
        report = metrics.ece(out.confidence.data, correct)
        table = trainer.evaluate_under_dropout(
            self.model, test, rates=AUDIT_RATES, seeds=AUDIT_SEEDS,
            seed=self.seed)
        t1 = time.perf_counter()
        fingerprint = hashlib.sha256(np.concatenate([
            audit.counts.astype(np.float64), audit.mean_violation,
            [report.ece], [v for row in table.values() for v in row.values()],
        ]).tobytes()).hexdigest()[:16]
        outcome = Outcome(wall_s=t1 - t0, main_s=t1 - t0,
                          acc_drop50=table[0.5]["score"],
                          ece_drop50=table[0.5]["ece"],
                          fingerprint=fingerprint, inversion_rate=audit.rate)
        if len(audit.pairs) != 50 or not 0.0 <= audit.rate <= 1.0:
            outcome.problems.append("inversion audit is malformed")
        if not 0.0 <= report.ece <= 1.0 or report.n != test.n:
            outcome.problems.append("calibration report is malformed")
        return outcome

    def check(self, outcome: Outcome) -> None:
        """Untimed checks on the model the iteration produced or read."""
        if np.isnan(outcome.inversion_rate):
            outcome.inversion_rate = metrics.inversion_audit(
                self.model, self.splits[2]).rate
        if not outcome.acc_drop50 >= ACC_DROP50_FLOOR[self.name]:
            outcome.problems.append(
                f"acc_drop50={outcome.acc_drop50:.4f} below floor "
                f"{ACC_DROP50_FLOOR[self.name]}")
        worst = self.simplex_violation()
        if not worst <= SIMPLEX_TOL:
            outcome.problems.append(
                f"gate rows off the masked simplex by {worst:.3g}")

    def simplex_violation(self) -> float:
        """Largest departure of gate rows from the masked simplex on a probe
        batch of test rows with half their modalities dropped."""
        probe = self.splits[2].take(np.arange(256))
        rng = np.random.default_rng([self.seed, 7])
        keep = data.bernoulli_mask(probe.n, probe.num_modalities, 0.5, rng)
        masked = data.apply_mask(probe, per_sample=keep)
        p = model.gate_rows(self.model, masked).data
        return float(max(-p.min(), np.abs(p.sum(axis=1) - 1.0).max(),
                         np.abs(p[~masked.presence]).max(initial=0.0)))
