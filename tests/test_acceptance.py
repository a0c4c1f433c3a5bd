"""Release gate: eleven end-to-end checks, one verdict line each.

Each test prints ``[Cxx] <name>: PASS/FAIL (<measurements>)`` so the suite
output doubles as the acceptance report.  The desk-scale benchmark shared by
C07/C08/C11 is a dominant-modality mixture: modality 0 is nearly noiseless,
modality 1 carries weak signal, and half the test inputs lose a modality.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import entrofuse
from entrofuse.cli import main
from entrofuse.curriculum import (Schedules, acm_distribution, candidate_family,
                                  ramp)
from entrofuse.data import SyntheticSpec, apply_mask, generate
from entrofuse.losses import cec_loss, step_loss
from entrofuse.metrics import audit_confidences, ece, inversion_audit
from entrofuse.model import FusionConfig, forward
from entrofuse.subsets import subset_lattice
from entrofuse.trainer import TrainConfig, train
from entrofuse.uncertainty import LambdaConfig, calibrate_vmax, lambda_of

from test_model import random_batch, random_model
from test_uncertainty import lambda_upper


def verdict(cid, name, ok, detail):
    line = f"[{cid}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- benchmark

BENCH_SEEDS = range(5)


def bench_data(seed):
    spec = SyntheticSpec(modalities=2, classes=8, dims=(32, 32),
                         snr=(1e4, 0.3), n_train=1500, n_val=500,
                         n_test=1000, seed=seed)
    return generate(spec)


def bench_config(tag, seed, gamma=20.0, mode="acm", eval_rates=(0.0, 0.5)):
    return TrainConfig(
        epochs=30, batch_size=128, seed=seed, ablation=tag, gamma=gamma,
        gate_hidden=64,
        schedules=Schedules(mode=mode, t_warm=10, t_lam=10, lam_max=1.2),
        eval_rates=eval_rates, eval_seeds=5, probe_size=512)


def bench_run(tag, seed, gamma=20.0):
    data = bench_data(seed)
    res = train(bench_config(tag, seed, gamma=gamma), data)
    audit = inversion_audit(res.model, data[2])
    return {"acc": res.eval_table[0.5]["score"],
            "ece": res.eval_table[0.5]["ece"],
            "inv": audit.total_count}


@pytest.fixture(scope="module")
def bench():
    t0 = time.perf_counter()
    arms = {}
    for arm, tag, gamma in (("full", "full", 20.0),
                            ("no_gate", "no_gate", 20.0),
                            ("no_curmask", "no_curmask", 20.0),
                            ("no_entropy", "no_entropy", 20.0),
                            ("gamma0", "full", 0.0)):
        arms[arm] = [bench_run(tag, s, gamma=gamma) for s in BENCH_SEEDS]
    arms["elapsed"] = time.perf_counter() - t0
    return arms


def arm_mean(bench, arm, key):
    return float(np.mean([r[key] for r in bench[arm]]))


# -------------------------------------------------------------------- C01


def test_c01_loss_gradients_match_finite_differences():
    # the objective's gradient is derived as a whole, so each term is read
    # off it: the task term at lam = gamma = 0, the entropy and consistency
    # terms as the change of the analytic and of the numeric gradient from
    # coefficient 0 to 1, and the composite objective at (0.05, 0.2)
    terms = {"task": [(0.0, 0.0)],
             "entropy": [(1.0, 0.0), (0.0, 0.0)],
             "consistency": [(0.0, 1.0), (0.0, 0.0)],
             "composite": [(0.05, 0.2)]}
    worst = dict.fromkeys(terms, 0.0)
    eps = 1e-5
    for point in range(10):
        rng = np.random.default_rng(100 + point)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        lattice = subset_lattice(2)
        names, params = zip(*model.parameters())

        def objective(lam, gamma):
            # each call also adds its gradients into the model's buffers
            return step_loss(model, batch, batch.presence, lattice, lam=lam,
                             gamma=gamma).total

        def gradients(lam, gamma, picks):
            """Analytic and central-difference gradients of the objective
            at one entry of each parameter."""
            model.zero_grad()
            objective(lam, gamma)
            analytic = [model.grad[name].reshape(-1)[idx]
                        for name, idx in zip(names, picks)]
            numeric = []
            for param, idx in zip(params, picks):
                flat = param.reshape(-1)
                keep = flat[idx]
                flat[idx] = keep + eps
                up = objective(lam, gamma)
                flat[idx] = keep - eps
                down = objective(lam, gamma)
                flat[idx] = keep
                numeric.append((up - down) / (2 * eps))
            return np.array(analytic), np.array(numeric)

        for name, coefficients in terms.items():
            picks = [rng.integers(param.size) for param in params]
            (analytic, numeric), *base = [gradients(lam, gamma, picks)
                                          for lam, gamma in coefficients]
            for base_analytic, base_numeric in base:
                analytic = analytic - base_analytic
                numeric = numeric - base_numeric
            err = (np.abs(analytic - numeric)
                   / (np.abs(analytic) + np.abs(numeric) + 1e-12))
            worst[name] = max(worst[name], float(err.max()))
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    verdict("C01", "loss gradients match finite differences",
            max(worst.values()) < 1e-4, detail)


# -------------------------------------------------------------------- C02


def test_c02_gate_simplex_and_entropy_invariants():
    rows = 0
    worst_sum = 0.0
    worst_slack = -np.inf
    rng = np.random.default_rng(200)
    for trial in range(20):
        m = int(rng.integers(2, 5))
        cfg = FusionConfig(modalities=m, dims=(3,) * m, classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        presence = rng.random((500, m)) < 0.7
        dead = ~presence.any(axis=1)
        presence[dead, rng.integers(m)] = True
        batch = random_batch(rng, 500, cfg.dims, cfg.classes,
                             presence=presence)
        p = forward(model, batch).p.data
        rows += p.shape[0]
        worst_sum = max(worst_sum, float(np.abs(p.sum(axis=1) - 1.0).max()))
        assert (p[~presence] == 0.0).all()
        h = -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)
        slack = h - np.log(presence.sum(axis=1))
        worst_slack = max(worst_slack, float(slack.max()))
    ok = rows == 10_000 and worst_sum <= 1e-9 and worst_slack <= 1e-12
    verdict("C02", "gate rows live on the masked simplex", ok,
            f"rows={rows} max|sum-1|={worst_sum:.1e} "
            f"max H-log(k)={worst_slack:.1e}")


# -------------------------------------------------------------------- C03


def test_c03_consistency_loss_zero_iff_no_inversions():
    rng = np.random.default_rng(300)
    agree = monotone = violating = 0
    for case in range(100):
        m = 2 if case % 2 == 0 else 3
        lattice = subset_lattice(m)
        n = 5
        if case % 4 < 2:
            # confidence nondecreasing in subset size => no inversions
            levels = np.sort(rng.uniform(0.0, 1.0, size=(n, m)), axis=1)
            conf = levels[:, lattice.subsets.sum(axis=1) - 1].T
        else:
            conf = rng.uniform(0.0, 1.0, size=(len(lattice.subsets), n))
        loss, _ = cec_loss(conf, lattice.pairs)
        count = audit_confidences(conf, lattice).total_count
        agree += int((loss == 0.0) == (count == 0))
        monotone += int(count == 0)
        violating += int(count > 0)
    ok = agree == 100 and monotone >= 30 and violating >= 30
    verdict("C03", "consistency loss is zero exactly when audit is clean", ok,
            f"agree={agree}/100 clean={monotone} violating={violating}")


# -------------------------------------------------------------------- C04


def test_c04_adaptive_mask_distribution_closed_form():
    worst_gap = 0.0
    worst_uniform = 0.0
    monotone_ok = True
    rng = np.random.default_rng(400)
    for m in (2, 3, 4):
        cfg = FusionConfig(modalities=m, dims=(3,) * m, classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 32, cfg.dims, cfg.classes)
        for family in ("single_drops", "all_subsets"):
            candidates = candidate_family(m, family)
            # independent probe: recompute mean gate entropy per drop subset
            ents = []
            for drop in candidates:
                p = forward(model, apply_mask(
                    batch, per_sample=np.tile(~drop, (batch.n, 1)))).p.data
                h = -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)),
                              0.0).sum(axis=1)
                ents.append(float(h.mean()))
            ents = np.array(ents)
            for eta in (0.25, 1.0, 4.0):
                dist = acm_distribution(model, batch, eta, family=family)
                brute = np.exp(ents / eta)
                brute = brute / brute.sum()
                worst_gap = max(worst_gap,
                                float(np.abs(dist.probs - brute).max()))
                order = np.argsort(ents)
                for lo, hi in zip(order[:-1], order[1:]):
                    if ents[hi] > ents[lo]:
                        monotone_ok &= dist.probs[hi] > dist.probs[lo]
            flat = acm_distribution(model, batch, 1e6, family=family)
            worst_uniform = max(worst_uniform, float(
                np.abs(flat.probs - 1.0 / len(candidates)).max()))
    ok = worst_gap < 1e-10 and monotone_ok and worst_uniform < 1e-6
    verdict("C04", "adaptive masking matches the brute-force softmax", ok,
            f"max|p-brute|={worst_gap:.1e} monotone={monotone_ok} "
            f"max|p-uniform|@eta=1e6 {worst_uniform:.1e}")


# -------------------------------------------------------------------- C05


def test_c05_mask_and_weight_schedules_exact():
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(5):
        s = Schedules(t_warm=int(rng.integers(1, 40)),
                      t_lam=int(rng.integers(1, 40)),
                      pi_max=float(rng.uniform(0.05, 0.95)),
                      lam_max=float(rng.uniform(0.0, 1.0)))
        for t in range(0, 3 * max(s.t_warm, s.t_lam) + 1):
            worst = max(worst,
                        abs(ramp(t, s.t_warm, s.pi_max)
                            - s.pi_max * min(1.0, t / s.t_warm)),
                        abs(ramp(t, s.t_lam, s.lam_max)
                            - s.lam_max * min(1.0, t / s.t_lam)))
    d = Schedules()
    saturated = (ramp(d.t_warm, d.t_warm, d.pi_max) == 0.40
                 and ramp(5 * d.t_warm, d.t_warm, d.pi_max) == 0.40
                 and ramp(d.t_lam, d.t_lam, d.lam_max) == 0.08
                 and ramp(5 * d.t_lam, d.t_lam, d.lam_max) == 0.08)
    ok = worst <= 1e-12 and saturated
    verdict("C05", "warm-up schedules reproduce the ramp formulas", ok,
            f"max err={worst:.1e} default saturation at 0.40/0.08={saturated}")


# -------------------------------------------------------------------- C06


def test_c06_calibration_error_oracle():
    hand = ece(np.array([0.9, 0.9, 0.6, 0.6]),
               np.array([True, False, True, True]), bins=15).ece
    rng = np.random.default_rng(600)
    conf = rng.uniform(0.55, 0.95, size=10_000)
    correct = rng.random(10_000) < conf
    calibrated = ece(conf, correct).ece
    ok = hand == 0.4 and calibrated < 0.02
    verdict("C06", "calibration error matches hand-binned oracle", ok,
            f"hand={hand} calibrated@1e4={calibrated:.4f}")


# -------------------------------------------------------------------- C07


def test_c07_dominant_modality_robustness_gaps(bench):
    full = arm_mean(bench, "full", "acc")
    gate_gap = full - arm_mean(bench, "no_gate", "acc")
    mask_gap = full - arm_mean(bench, "no_curmask", "acc")
    per_seed_gate = [f - n["acc"] for f, n in
                     zip((r["acc"] for r in bench["full"]), bench["no_gate"])]
    ok = gate_gap >= 0.05 and mask_gap >= 0.03 and bench["elapsed"] < 900
    verdict("C07", "gating and mask curriculum each earn accuracy at 50% drop",
            ok,
            f"gate gap={gate_gap:+.3f} (need >=+0.050, per-seed "
            f"{np.round(per_seed_gate, 3).tolist()}) "
            f"mask gap={mask_gap:+.3f} (need >=+0.030) "
            f"elapsed={bench['elapsed']:.0f}s")


# -------------------------------------------------------------------- C08


def test_c08_calibration_trend_and_inversion_reduction(bench):
    dece = arm_mean(bench, "full", "ece") - arm_mean(bench, "no_entropy", "ece")
    inv_full = arm_mean(bench, "full", "inv")
    inv_g0 = arm_mean(bench, "gamma0", "inv")
    reduction = 1.0 - inv_full / inv_g0
    ok = dece <= 0.0 and reduction >= 0.30
    verdict("C08", "entropy keeps calibration and consistency cuts inversions",
            ok,
            f"ece(full)-ece(no_entropy)={dece:+.4f} (need <=0) "
            f"inversions {inv_g0:.0f}->{inv_full:.0f} "
            f"reduction={100 * reduction:.0f}% (need >=30%)")


# -------------------------------------------------------------------- C09


def test_c09_instance_weight_bounds():
    rng = np.random.default_rng(900)
    cfg = FusionConfig(modalities=2, dims=(6, 6), classes=3, fused_dim=8)
    model = random_model(rng, cfg)
    val = random_batch(rng, 512, cfg.dims, cfg.classes)
    lam_cfg = LambdaConfig(lam_min=0.01)
    v_max = calibrate_vmax(model, val, lam_cfg)
    batch = random_batch(rng, 10_000, cfg.dims, cfg.classes)
    lam = lambda_of(model, batch, lam_cfg, v_max)
    upper = lambda_upper(lam_cfg, v_max)
    ok = (lam.shape == (10_000,) and (lam > lam_cfg.lam_min).all()
          and (lam <= upper).all())
    verdict("C09", "instance weights stay inside the softplus band", ok,
            f"n={lam.size} min={lam.min():.5f} max={lam.max():.5f} "
            f"bounds=({lam_cfg.lam_min}, {upper:.5f}]")


# -------------------------------------------------------------------- C10


def test_c10_run_command_bit_reproducible(tmp_path):
    config = {
        "data": {"modalities": 2, "classes": 3, "dims": [6, 6],
                 "snr": [10000.0, 10000.0], "n_train": 256, "n_val": 96,
                 "n_test": 96, "seed": 0},
        "train": {"epochs": 3, "batch_size": 64, "probe_size": 64,
                  "schedules": {"mode": "acm", "t_warm": 5, "t_lam": 5}},
        "eval": {"rates": [0.0, 0.5], "seeds": 2},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", str(path), "--out", out_a]) == 0
    assert main(["run", "--config", str(path), "--out", out_b]) == 0
    same = []
    for name in ("config.yaml", "history.csv", "eval.csv", "scatter.csv"):
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            same.append(fa.read() == fb.read())
    ck_a = np.load(os.path.join(out_a, "checkpoint.npz"))
    ck_b = np.load(os.path.join(out_b, "checkpoint.npz"))
    same.append(sorted(ck_a.files) == sorted(ck_b.files))
    for key in ck_a.files:
        same.append(np.array_equal(ck_a[key], ck_b[key]))
    # summaries match except the wall-clock measurements
    sum_a = yaml.safe_load(open(os.path.join(out_a, "summary.yaml")))
    sum_b = yaml.safe_load(open(os.path.join(out_b, "summary.yaml")))
    for key in ("wall_clock_s", "eval_s"):
        sum_a.pop(key), sum_b.pop(key)
    same.append(sum_a == sum_b)
    verdict("C10", "repeated runs are bit-identical", all(same),
            f"{sum(same)}/{len(same)} artifacts identical")


# -------------------------------------------------------------------- C11


def c11_walls():
    """Best-of-5 wall clock of each mode's ``train`` per seed, the modes
    interleaved so machine-load drift hits both arms alike, and one slow
    repeat on a busy host does not set a seed's reading."""
    def wall_once(cfg, data):
        t0 = time.perf_counter()
        train(cfg, data)
        return time.perf_counter() - t0

    warm = bench_data(0)
    wall_once(bench_config("full", 0, mode="bernoulli", eval_rates=()), warm)
    walls = {"bernoulli": [], "acm": []}
    for seed in range(5):
        data = bench_data(seed)
        cfgs = {m: bench_config("full", seed, mode=m, eval_rates=())
                for m in ("bernoulli", "acm")}
        best = {"bernoulli": np.inf, "acm": np.inf}
        for _ in range(5):
            for mode in ("bernoulli", "acm"):
                best[mode] = min(best[mode], wall_once(cfgs[mode], data))
        for mode in walls:
            walls[mode].append(best[mode])
    return walls


def test_c11_adaptive_masking_overhead():
    # every timed train runs in one child process on one BLAS thread, as
    # the benchmark runs them: BLAS reads its thread count once, at import
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(entrofuse.__file__).resolve().parents[1]),
        str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_acceptance as t; "
         "print(json.dumps(t.c11_walls()))"],
        env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    walls = json.loads(child.stdout.splitlines()[-1])
    bern_walls, acm_walls = walls["bernoulli"], walls["acm"]
    ratios = [a / b for a, b in zip(acm_walls, bern_walls)]
    overhead = float(np.sum(acm_walls) / np.sum(bern_walls)) - 1.0
    verdict("C11", "adaptive masking stays within the overhead budget",
            overhead <= 0.05,
            f"bernoulli={np.mean(bern_walls):.2f}s "
            f"adaptive={np.mean(acm_walls):.2f}s "
            f"overhead={100 * overhead:+.1f}% (budget 5%, per-seed "
            f"{[round(100 * (r - 1), 1) for r in ratios]})")
