"""Training loop: ablation switches, determinism, divergence guard,
dropout evaluation, temperature fitting."""

import sys

import numpy as np
import pytest

import entrofuse.model as model_module
import entrofuse.tensor as T
from entrofuse.curriculum import Schedules
from entrofuse.data import SyntheticSpec, generate
from entrofuse.model import FusionConfig, FusionModel, forward
from entrofuse.metrics import top1_accuracy
from entrofuse.rng import stream
from entrofuse.trainer import (DivergenceError, Switches, TrainConfig,
                               apply_ablation, evaluate_under_dropout,
                               fit_temperature, run_config_hash, train)
from entrofuse.uncertainty import LambdaConfig


def small_data(seed=0, classes=3, snr=(1e4, 1e4)):
    spec = SyntheticSpec(modalities=2, classes=classes, dims=(6, 6), snr=snr,
                         n_train=256, n_val=96, n_test=96, seed=seed)
    return generate(spec)


def small_cfg(**kw):
    base = dict(epochs=3, batch_size=64, seed=0,
                schedules=Schedules(mode="bernoulli", t_warm=5, t_lam=5),
                eval_rates=(0.0, 0.5), eval_seeds=2, probe_size=64)
    base.update(kw)
    return TrainConfig(**base)


class TestApplyAblation:
    def test_full_enables_everything(self):
        sw = apply_ablation(small_cfg(ablation="full"))
        assert sw == Switches()

    def test_no_entropy_only_drops_lambda(self):
        sw = apply_ablation(small_cfg(ablation="no_entropy"))
        assert not sw.lam_on
        assert sw.mask_on and sw.gate_on and sw.cec_on

    def test_no_curmask_only_drops_masking(self):
        sw = apply_ablation(small_cfg(ablation="no_curmask"))
        assert not sw.mask_on
        assert sw.lam_on and sw.gate_on and sw.cec_on

    def test_no_gate_only_freezes_mixture(self):
        sw = apply_ablation(small_cfg(ablation="no_gate"))
        assert not sw.gate_on
        assert sw.lam_on and sw.mask_on and sw.cec_on

    def test_single_modality_pins_input_and_drops_subset_terms(self):
        sw = apply_ablation(small_cfg(ablation="single_modality",
                                      single_modality_index=1))
        assert sw.keep_only == 1
        assert not sw.mask_on and not sw.cec_on
        assert sw.lam_on and sw.gate_on


class TestTrainConfigValidation:
    def test_gate_lr_must_dominate_base(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_base=1e-2, lr_gate=1e-3)

    def test_unknown_modes_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lam_mode="adaptive")
        with pytest.raises(ValueError):
            TrainConfig(ablation="none")

    def test_eval_rates_domain(self):
        with pytest.raises(ValueError):
            TrainConfig(eval_rates=(0.0, 1.0))
        with pytest.raises(ValueError):
            TrainConfig(eval_rates=(-0.1,))

    def test_divergence_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            TrainConfig(divergence_factor=1.0)


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self):
        data = small_data()
        cfg = small_cfg(epochs=0)
        res = train(cfg, data)
        assert res.history == [] and res.metric_history == []
        expect = FusionModel.init(
            FusionConfig(modalities=2, dims=(6, 6), classes=3,
                         fused_dim=cfg.fused_dim,
                         dropout_rate=cfg.lambda_cfg.rate),
            stream(cfg.seed, "init"))
        expect.fit_norm(data[0])
        for (name, got), (_, want) in zip(res.model.parameters(),
                                          expect.parameters()):
            assert (got.data == want.data).all(), name
        for m in range(2):
            assert (res.model.norm_mean[m] == expect.norm_mean[m]).all()

    def test_loss_descends_across_seeds(self):
        for seed in range(3):
            res = train(small_cfg(seed=seed), small_data(seed))
            assert res.history[-1].total < res.history[0].total

    def test_validation_accuracy_improves_on_separable_data(self):
        res = train(small_cfg(epochs=5), small_data())
        assert res.metric_history[-1]["score"] > 0.8

    def test_same_seed_is_bit_identical(self):
        a = train(small_cfg(), small_data())
        b = train(small_cfg(), small_data())
        assert [h.total for h in a.history] == [h.total for h in b.history]
        assert a.eval_table == b.eval_table
        for (_, ta), (_, tb) in zip(a.model.parameters(), b.model.parameters()):
            assert (ta.data == tb.data).all()
        assert a.config_hash == b.config_hash

    def test_different_seed_changes_outcome(self):
        a = train(small_cfg(seed=0), small_data())
        b = train(small_cfg(seed=1), small_data())
        assert [h.total for h in a.history] != [h.total for h in b.history]

    def test_history_rows_recompose_in_scheduled_mode(self):
        # lam is constant within an epoch, so epoch means stay consistent
        res = train(small_cfg(epochs=4), small_data())
        for row in res.history:
            np.testing.assert_allclose(
                row.total,
                row.task + row.lam * row.ent + row.gamma * row.cec,
                rtol=0, atol=1e-9)

    def test_epoch_metric_rows_are_complete(self):
        res = train(small_cfg(epochs=2), small_data())
        assert [r["epoch"] for r in res.metric_history] == [1, 2]
        for row in res.metric_history:
            assert set(row) == {"epoch", "score", "ece", "gate_entropy"}

    def test_gamma_zero_skips_consistency_term(self):
        res = train(small_cfg(gamma=0.0), small_data())
        assert all(h.cec == 0.0 for h in res.history)

    @pytest.mark.parametrize("ablation", ["full", "no_gate"])
    def test_consistency_penalty_shares_one_forward_per_step(
            self, monkeypatch, ablation):
        # training forwards are the ones under a tape; the lattice subsets
        # must ride in that one pass, never in predict_subset calls
        calls = {"forward": 0, "predict_subset": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                if name != "forward" or T._active_tape() is not None:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            original = getattr(model_module, name)
            wrapped = counting(name, original)
            for mod_name, module in list(sys.modules.items()):
                if (mod_name.startswith("entrofuse")
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, wrapped)
        cfg = small_cfg(gamma=1.0, ablation=ablation,
                        schedules=Schedules(mode="acm", t_warm=5, t_lam=5))
        res = train(cfg, small_data())
        assert all(h.cec > 0.0 for h in res.history)
        steps = cfg.epochs * (256 // cfg.batch_size)
        assert calls == {"forward": steps, "predict_subset": 0}

    def test_divergence_guard_raises(self):
        cfg = small_cfg(epochs=10, lr_base=2.0, lr_gate=20.0,
                        divergence_factor=1.5)
        with pytest.raises(DivergenceError):
            train(cfg, small_data(snr=(1.0, 1.0)))

    def test_instance_mode_calibrates_vmax_and_reports_it(self):
        cfg = small_cfg(lam_mode="instance",
                        lambda_cfg=LambdaConfig(draws=4, rate=0.2))
        res = train(cfg, small_data())
        assert res.v_max is not None and res.v_max >= 0.0
        # per-sample weights average above the floor
        assert all(h.lam > cfg.lambda_cfg.lam_min for h in res.history)

    def test_wall_clock_and_hash_are_populated(self):
        res = train(small_cfg(epochs=1), small_data())
        assert res.wall_clock > 0.0
        assert len(res.config_hash) == 16
        int(res.config_hash, 16)


class TestAblationRuns:
    def test_no_gate_never_updates_gate_parameters(self):
        cfg = small_cfg(ablation="no_gate", weight_decay=0.0)
        res = train(cfg, small_data())
        init = FusionModel.init(
            FusionConfig(modalities=2, dims=(6, 6), classes=3,
                         fused_dim=cfg.fused_dim,
                         dropout_rate=cfg.lambda_cfg.rate),
            stream(cfg.seed, "init"))
        for got, want in zip(res.model.gate_parameters(),
                             init.gate_parameters()):
            assert (got.data == want.data).all()
        # base parameters did move
        assert np.abs(res.model.head_w.data - init.head_w.data).max() > 1e-6

    def test_no_entropy_reports_zero_lambda(self):
        res = train(small_cfg(ablation="no_entropy"), small_data())
        assert all(h.lam == 0.0 for h in res.history)

    def test_single_modality_sees_one_modality_everywhere(self):
        res = train(small_cfg(ablation="single_modality",
                              single_modality_index=0), small_data())
        # one observed modality pins the gate: entropy identically zero
        assert all(r["gate_entropy"] == 0.0 for r in res.metric_history)
        assert all(h.cec == 0.0 for h in res.history)
        # frozen input interface: every eval rate sees the same batch
        rows = list(res.eval_table.values())
        assert all(r == rows[0] for r in rows)

    def test_all_ablations_run_green(self):
        data = small_data()
        for tag in ("full", "no_entropy", "no_curmask", "no_gate",
                    "single_modality"):
            res = train(small_cfg(epochs=1, ablation=tag), data)
            assert set(res.eval_table) == {0.0, 0.5}

    def test_acm_mode_runs_with_teacher_refresh(self):
        cfg = small_cfg(schedules=Schedules(mode="acm", t_warm=5, t_lam=5))
        res = train(cfg, small_data())
        assert res.history[-1].total < res.history[0].total


class TestEvaluateUnderDropout:
    def _trained(self):
        data = small_data()
        res = train(small_cfg(epochs=5), data)
        return res.model, data[2]

    def test_rate_zero_matches_plain_forward_metrics(self):
        model, test_b = self._trained()
        table = evaluate_under_dropout(model, test_b, rates=(0.0,), seeds=3)
        out = forward(model, test_b)
        np.testing.assert_allclose(
            table[0.0]["score"], top1_accuracy(out.logits.data, test_b.labels),
            rtol=0, atol=0)

    def test_accuracy_degrades_with_heavy_dropout(self):
        model, test_b = self._trained()
        table = evaluate_under_dropout(model, test_b, rates=(0.0, 0.5),
                                       seeds=3)
        assert table[0.5]["score"] <= table[0.0]["score"] + 0.02

    def test_same_seed_same_table(self):
        model, test_b = self._trained()
        a = evaluate_under_dropout(model, test_b, rates=(0.0, 0.3), seeds=2,
                                   seed=11)
        b = evaluate_under_dropout(model, test_b, rates=(0.0, 0.3), seeds=2,
                                   seed=11)
        assert a == b

    def test_frozen_mask_ignores_rates(self):
        model, test_b = self._trained()
        table = evaluate_under_dropout(model, test_b, rates=(0.0, 0.3, 0.5),
                                       seeds=2, frozen_mask=True)
        rows = list(table.values())
        assert all(r == rows[0] for r in rows)

    def test_invalid_rate_rejected(self):
        model, test_b = self._trained()
        with pytest.raises(ValueError):
            evaluate_under_dropout(model, test_b, rates=(1.0,))


class TestFitTemperature:
    def _calibrated_logits(self, seed, n=4000, classes=4):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, classes)) * 2.0
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(classes, p=p) for p in probs])
        return logits, labels

    def test_calibrated_logits_keep_temperature_near_one(self):
        logits, labels = self._calibrated_logits(0)
        t = fit_temperature(logits, labels)
        assert 0.9 < t < 1.1

    def test_doubled_logits_double_the_temperature(self):
        logits, labels = self._calibrated_logits(1)
        t1 = fit_temperature(logits, labels)
        t2 = fit_temperature(2.0 * logits, labels)
        np.testing.assert_allclose(t2, 2.0 * t1, rtol=0.02)

    def test_fitted_temperature_does_not_hurt_nll(self):
        logits, labels = self._calibrated_logits(2)
        scaled = 3.0 * logits
        t = fit_temperature(scaled, labels)

        def nll(z):
            z = z - z.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(z).sum(axis=1))
            return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))

        assert nll(scaled / t) <= nll(scaled) + 1e-12

    def test_multilabel_path_recovers_scale(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3000, 4)) * 2.0
        probs = 1.0 / (1.0 + np.exp(-logits))
        targets = (rng.random(probs.shape) < probs).astype(np.float64)
        t = fit_temperature(4.0 * logits, targets, multilabel=True)
        assert 3.0 < t < 5.0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_temperature(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_temperature(np.zeros((4, 3)), np.zeros(4))


class TestRunConfigHash:
    def test_any_training_knob_changes_hash(self):
        data_cfg = FusionConfig(modalities=2, dims=(6, 6), classes=3)
        base = small_cfg()
        assert run_config_hash(base, data_cfg) == run_config_hash(base, data_cfg)
        for other in (small_cfg(lr_base=1e-3), small_cfg(gamma=0.2),
                      small_cfg(seed=1), small_cfg(ablation="no_gate")):
            assert run_config_hash(other, data_cfg) != run_config_hash(base, data_cfg)
