"""Training loop: ablation switches, determinism, divergence guard,
dropout evaluation, temperature fitting."""

import sys

import numpy as np
import pytest

import entrofuse.losses as losses_module
import entrofuse.model as model_module
import entrofuse.optim as optim_module
import entrofuse.tensor as T
import entrofuse.trainer as trainer_module
import entrofuse.uncertainty as uncertainty
from entrofuse.curriculum import Schedules
from entrofuse.losses import task_term
from entrofuse.data import SyntheticSpec, apply_mask, generate
from entrofuse.model import FusionConfig, FusionModel, forward, forward_views
from entrofuse.metrics import inversion_audit, top1_accuracy
from entrofuse.rng import stream
from entrofuse.trainer import (ABLATIONS, DivergenceError, Switches,
                               TrainConfig, apply_ablation,
                               evaluate_under_dropout,
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


def c07_missing_one(seed=0):
    """The C07 splits with modality 1 cleared in 30% of the rows of each."""
    spec = SyntheticSpec(modalities=2, classes=8, dims=(32, 32),
                         snr=(1e4, 0.3), n_train=1500, n_val=500,
                         n_test=1000, seed=seed)
    rng = np.random.default_rng([seed, 30])
    splits = []
    for split in generate(spec):
        keep = np.ones_like(split.presence)
        keep[:, 1] = rng.random(split.n) >= 0.3
        splits.append(apply_mask(split, keep))
    return tuple(splits)


class TestMissingInputs:
    """Training on rows that lack a modality: the curriculum's draws stay
    inside each row's observed set, and the consistency penalty counts a
    pair only on the rows its small subset leaves a modality."""

    @staticmethod
    def _cfg(mode, lam_mode, gamma):
        return TrainConfig(
            epochs=3, gamma=gamma, lam_mode=lam_mode, seed=0, gate_hidden=64,
            eval_rates=(0.0, 0.5),
            schedules=Schedules(mode=mode, t_warm=10, t_lam=10, lam_max=1.2))

    @pytest.mark.parametrize("mode", ["bernoulli", "acm"])
    @pytest.mark.parametrize("lam_mode", ["scheduled", "instance"])
    def test_gamma_zero_trains_and_audits(self, monkeypatch, mode, lam_mode):
        data = c07_missing_one()
        seen = []
        real = trainer_module.step_loss

        def spy(model, batch, keep, *args, **kw):
            seen.append((batch.presence, keep))
            return real(model, batch, keep, *args, **kw)

        monkeypatch.setattr(trainer_module, "step_loss", spy)
        res = train(self._cfg(mode, lam_mode, 0.0), data)
        assert all(np.isfinite(h.total) for h in res.history)
        for presence, keep in seen:
            assert not (keep & ~presence).any() and keep.any(axis=1).all()
        assert any((keep != presence).any() for presence, keep in seen)
        audit = inversion_audit(res.model, data[2])
        assert 0.0 <= audit.rate <= 1.0
        assert (audit.rows < data[2].n).any()  # rows lacking modality 1

    @pytest.mark.parametrize("mode", ["bernoulli", "acm"])
    @pytest.mark.parametrize("lam_mode", ["scheduled", "instance"])
    def test_consistency_penalty_trains_on_missing_inputs(self, mode,
                                                          lam_mode):
        data = c07_missing_one()
        res = train(self._cfg(mode, lam_mode, 20.0), data)
        assert all(np.isfinite([h.total, h.task, h.ent, h.cec]).all()
                   for h in res.history)
        assert any(h.cec > 0.0 for h in res.history)
        audit = inversion_audit(res.model, data[2])
        assert 0.0 <= audit.rate <= 1.0
        assert (audit.rows < data[2].n).any()  # rows lacking modality 1


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

    def test_every_tag_in_ablate_row_order(self):
        # the table's order is the row order of ablate.csv
        expected = {
            "full": Switches(),
            "no_entropy": Switches(lam_on=False),
            "no_curmask": Switches(mask_on=False),
            "no_gate": Switches(gate_on=False),
            "single_modality": Switches(mask_on=False, cec_on=False,
                                        keep_only=1),
        }
        assert list(ABLATIONS) == list(expected)
        for tag, switches in expected.items():
            assert apply_ablation(small_cfg(
                ablation=tag, single_modality_index=1)) == switches


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

    @pytest.mark.parametrize("rates", [(0.0, 0.5, 0.5), (0.0, -0.0)])
    def test_eval_rates_must_be_distinct(self, rates):
        # each rate keys one column of the evaluation table
        with pytest.raises(ValueError, match="distinct"):
            TrainConfig(eval_rates=rates)

    @pytest.mark.parametrize("setting", [
        {"gate_hidden": 0}, {"gate_hidden": -1}, {"fused_dim": 0},
        {"cec_pair_limit": 0}, {"cec_pair_limit": -1},
        {"weight_decay": -0.01}])
    def test_bad_model_and_optimizer_settings_rejected(self, setting):
        with pytest.raises(ValueError):
            TrainConfig(**setting)

    def test_divergence_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            TrainConfig(divergence_factor=1.0)


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self):
        data = small_data()
        cfg = small_cfg(epochs=0)
        res = train(cfg, data)
        assert res.history == [] and res.metric_history == []
        expect = FusionModel(
            FusionConfig(modalities=2, dims=(6, 6), classes=3,
                         fused_dim=cfg.fused_dim),
            stream(cfg.seed, "init"))
        expect.fit_norm(data[0])
        for (name, got), (_, want) in zip(res.model.parameters(),
                                          expect.parameters()):
            assert (got == want).all(), name
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
            assert (ta == tb).all()
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
        # one model pass per step carries the masked rows and every subset
        # view, with no predict_subset call beside it; the only other pass
        # through forward_pullback is each epoch's validation forward
        calls = {"forward_pullback": 0, "predict_subset": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
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
        assert calls == {"forward_pullback": steps + cfg.epochs,
                         "predict_subset": 0}

    def test_divergence_guard_raises(self):
        cfg = small_cfg(epochs=10, lr_base=2.0, lr_gate=20.0,
                        divergence_factor=1.5)
        with pytest.raises(DivergenceError):
            train(cfg, small_data(snr=(1.0, 1.0)))

    def test_instance_mode_calibrates_vmax_and_reports_it(self):
        cfg = small_cfg(lam_mode="instance",
                        lambda_cfg=LambdaConfig(rate=0.2))
        res = train(cfg, small_data())
        assert res.v_max is not None and res.v_max >= 0.0
        # per-sample weights average above the floor
        assert all(h.lam > cfg.lambda_cfg.lam_min for h in res.history)

    def test_instance_lambda_reads_one_dropout_variance_per_step(
            self, monkeypatch):
        # the calibration and each step read the closed-form variance once,
        # at the configured rate, and draw nothing for it: the history is
        # the one the variance alone determines
        cfg = small_cfg(lam_mode="instance", gamma=0.0,
                        lambda_cfg=LambdaConfig(rate=0.2))
        plain = train(cfg, small_data())
        rates = []
        original = uncertainty.dropout_variance

        def counted(model, batch, rate):
            rates.append(rate)
            return original(model, batch, rate)

        monkeypatch.setattr(uncertainty, "dropout_variance", counted)
        traced = train(cfg, small_data())
        assert rates == [0.2] * (1 + cfg.epochs * (256 // cfg.batch_size))
        assert plain.v_max == traced.v_max
        assert plain.history == traced.history

    def test_wall_clock_and_hash_are_populated(self):
        res = train(small_cfg(epochs=1), small_data())
        assert res.wall_clock > 0.0
        assert len(res.config_hash) == 16
        int(res.config_hash, 16)


class TestMaskedCopies:
    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    @pytest.mark.parametrize("lam_mode", ["scheduled", "instance"])
    def test_step_loop_makes_no_masked_copy(self, monkeypatch, gamma,
                                            lam_mode):
        # the step, instance lambda and the dropout evaluation read the
        # masked pattern as presence, not as zero-filled features
        calls = []

        def counting(batch, *args, **kwargs):
            calls.append(batch.n)
            return apply_mask(batch, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("entrofuse") and hasattr(module, "apply_mask"):
                monkeypatch.setattr(module, "apply_mask", counting)
        cfg = small_cfg(gamma=gamma, lam_mode=lam_mode)
        res = train(cfg, small_data())
        assert all((h.cec > 0.0) == (gamma > 0.0) for h in res.history)
        assert calls == []


class TestTracedPhases:
    def test_each_step_makes_one_update_per_group_and_one_consistency_call(
            self, monkeypatch):
        # the benchmark's tracer times the optimizer, the objective and its
        # consistency term by wrapping these functions in every entrofuse
        # namespace that binds them, so one gamma > 0 run must reach them
        # through those names: once per optimizer group and step, and once
        # per step
        calls = {"adamw_step": [], "cec_loss": [], "composite_loss": []}
        spaces = [module for key, module in sys.modules.items()
                  if key.split(".")[0] == "entrofuse"]
        for module, name in ((optim_module, "adamw_step"),
                             (losses_module, "cec_loss"),
                             (losses_module, "composite_loss")):
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kw):
                calls[_name].append(1)
                return _real(*args, **kw)
            for space in spaces:
                if vars(space).get(name) is real:
                    monkeypatch.setattr(space, name, spy)
        cfg = small_cfg(gamma=1.0,
                        schedules=Schedules(mode="acm", t_warm=5, t_lam=5))
        res = train(cfg, small_data())
        steps = cfg.epochs * (256 // cfg.batch_size)
        assert all(h.cec > 0.0 for h in res.history)
        assert len(calls["adamw_step"]) == 2 * steps
        for name in ("cec_loss", "composite_loss"):
            assert len(calls[name]) == steps, name


class TestNoTape:
    @pytest.mark.parametrize("kw", [
        dict(gamma=2.0, schedules=Schedules(mode="acm", t_warm=5, t_lam=5)),
        dict(gamma=0.0, lam_mode="instance"),
        dict(gamma=2.0, ablation="no_gate")])
    def test_training_never_opens_a_tape(self, monkeypatch, kw):
        # each step's gradients come from the objective and the model
        # pass's pullback, so a tape that cannot be entered changes nothing
        cfg = small_cfg(epochs=2, **kw)
        want = train(cfg, small_data())

        def refuse(self):
            raise AssertionError("training opened a tape")

        monkeypatch.setattr(T.Tape, "__enter__", refuse)
        got = train(cfg, small_data())
        assert got.history == want.history and len(got.history) == 2
        assert np.array_equal(got.model.base.params, want.model.base.params)


class TestAblationRuns:
    def test_no_gate_never_updates_gate_parameters(self, monkeypatch):
        cfg = small_cfg(ablation="no_gate", weight_decay=0.0)
        steps = []
        real = trainer_module.step_loss

        def spy(model, *args, **kw):
            # the step's gradients, read before the optimizer runs
            out = real(model, *args, **kw)
            steps.append((model.gate.grads.any(), model.base.grads.any()))
            return out

        monkeypatch.setattr(trainer_module, "step_loss", spy)
        res = train(cfg, small_data())
        init = FusionModel(
            FusionConfig(modalities=2, dims=(6, 6), classes=3,
                         fused_dim=cfg.fused_dim),
            stream(cfg.seed, "init"))
        assert res.model.gate_frozen
        assert steps and all(base and not gate for gate, base in steps)
        assert np.array_equal(res.model.gate.params, init.gate.params)
        # base parameters did move
        assert np.abs(res.model.head_w - init.head_w).max() > 1e-6

    def test_no_gate_keeps_its_gate_out_of_weight_decay(self):
        cfg = small_cfg(ablation="no_gate")
        assert cfg.weight_decay > 0.0
        res = train(cfg, small_data())
        init = FusionModel(
            FusionConfig(modalities=2, dims=(6, 6), classes=3,
                         fused_dim=cfg.fused_dim),
            stream(cfg.seed, "init"))
        assert np.array_equal(res.model.gate.params, init.gate.params)

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

    @pytest.mark.parametrize("index", [-1, 2])
    def test_single_modality_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="single_modality_index"):
            train(small_cfg(ablation="single_modality",
                            single_modality_index=index), small_data())

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

    def test_one_modality_per_row_evaluates_each_rate_once(self,
                                                            monkeypatch):
        # no draw can change a batch whose rows observe one modality each:
        # every rate is the clean column, computed once
        model, test_b = self._trained()
        keep = np.zeros_like(test_b.presence)
        keep[np.arange(test_b.n), np.arange(test_b.n) % 2] = True
        test_b = apply_mask(test_b, per_sample=keep)
        calls = []

        def counting(model, batch, views):
            calls.extend(views)
            return forward_views(model, batch, views)

        monkeypatch.setattr(trainer_module, "forward_views", counting)
        table = evaluate_under_dropout(model, test_b, rates=(0.0, 0.3, 0.5),
                                       seeds=2)
        assert len(calls) == 3
        rows = list(table.values())
        assert all(r == rows[0] for r in rows)

    def test_invalid_rate_rejected(self):
        model, test_b = self._trained()
        with pytest.raises(ValueError):
            evaluate_under_dropout(model, test_b, rates=(1.0,))

    def test_duplicate_rates_rejected(self):
        # the second 0.5 column's draws would overwrite the first's
        model, test_b = self._trained()
        with pytest.raises(ValueError, match="distinct"):
            evaluate_under_dropout(model, test_b, rates=(0.0, 0.5, 0.5))

    def test_zero_seeds_rejected(self):
        model, test_b = self._trained()
        with pytest.raises(ValueError, match="seeds"):
            evaluate_under_dropout(model, test_b, rates=(0.0, 0.5), seeds=0)


def written_out_nll(z, labels, multilabel=False):
    """Mean BCE (multi-label) or mean cross-entropy of logit rows ``z``,
    written out here rather than read from ``losses.task_term``."""
    if multilabel:
        targets = np.asarray(labels, dtype=np.float64)
        return float(np.mean(np.maximum(z, 0.0) - z * targets
                             + np.log1p(np.exp(-np.abs(z)))))
    idx = np.asarray(labels).astype(np.int64)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(z)), idx]))


def golden_nll_temperature(logits, labels, multilabel=False,
                           bounds=(0.05, 20.0), iters=200):
    """Reference for ``fit_temperature``: the same golden-section search
    over ``written_out_nll`` of logits / t."""
    def nll(t):
        return written_out_nll(logits / t, labels, multilabel)

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = bounds
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = nll(c), nll(d)
    for _ in range(iters):
        if b - a < 1e-10:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = nll(d)
    return float((a + b) / 2.0)


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

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_written_out_search(self, seed):
        # labels drawn at temperature t_true put the optimum inside bounds
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(300, 5)) * 2.0
        t_true = rng.uniform(0.3, 3.0)
        probs = np.exp(logits / t_true)
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(5, p=p) for p in probs])
        targets = (rng.random(logits.shape)
                   < 1.0 / (1.0 + np.exp(-logits / t_true))).astype(float)
        for y, multilabel in ((labels, False), (targets, True)):
            t = fit_temperature(logits, y, multilabel)
            assert t == golden_nll_temperature(logits, y, multilabel)
            assert 0.1 < t < 10.0
            for s in (0.05, t_true, t, 20.0):
                assert task_term(logits / s, y, multilabel)[0] == (
                    written_out_nll(logits / s, y, multilabel))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_temperature(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_temperature(np.zeros((4, 3)), np.zeros(4))

    @staticmethod
    def _val_forwards(monkeypatch, cfg):
        """The run's fitted temperature and its forward passes over the
        validation split."""
        data = small_data()
        calls = []

        def counted(model, batch, views=None):
            calls.append(batch is data[1])
            return forward(model, batch, views)

        monkeypatch.setattr(trainer_module, "forward", counted)
        return train(cfg, data).temperature, sum(calls)

    def test_validation_split_is_forwarded_once_per_epoch(self, monkeypatch):
        # the temperature is fitted on the last epoch's validation pass: the
        # model does not change after it
        plain = self._val_forwards(monkeypatch, small_cfg(epochs=2))
        fitted = self._val_forwards(monkeypatch,
                                    small_cfg(epochs=2, temp_scaling=True))
        assert plain == (None, 2)
        assert fitted[1] == 2 and fitted[0] > 0.0

    def test_temperature_is_fitted_without_training(self, monkeypatch):
        temperature, forwards = self._val_forwards(
            monkeypatch, small_cfg(epochs=0, temp_scaling=True))
        assert forwards == 1
        data = small_data()
        model = train(small_cfg(epochs=0), data).model
        assert temperature == fit_temperature(
            forward(model, data[1]).logits.data, data[1].labels)


class TestRunConfigHash:
    def test_any_training_knob_changes_hash(self):
        data_cfg = FusionConfig(modalities=2, dims=(6, 6), classes=3)
        base = small_cfg()
        assert run_config_hash(base, data_cfg) == run_config_hash(base, data_cfg)
        for other in (small_cfg(lr_base=1e-3), small_cfg(gamma=0.2),
                      small_cfg(seed=1), small_cfg(ablation="no_gate")):
            assert run_config_hash(other, data_cfg) != run_config_hash(base, data_cfg)
