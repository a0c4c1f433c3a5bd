"""Instance-adaptive entropy weight from per-branch predictive variance."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from entrofuse.curriculum import Schedules
from entrofuse.data import SyntheticSpec, apply_mask, generate
from entrofuse.model import FusionConfig
from entrofuse.trainer import TrainConfig, train
from entrofuse.uncertainty import (LambdaConfig, calibrate_vmax,
                                   dropout_variance, lambda_of,
                                   mean_branch_variance, softplus)

from test_model import random_batch, random_model, random_presence


def lambda_upper(cfg, v_max):
    """Supremum of lambda_of under this config and cap (attained at it)."""
    return cfg.lam_min + float(softplus(v_max))


def mc_branch_logits(model, batch, m, rng, draws, rate):
    """Monte-Carlo reference: the [draws, r, classes] logits of branch m over
    the r rows that observe it, each draw under its own inverted-dropout
    mask (every entry kept with probability 1 - rate, scaled by
    1 / (1 - rate))."""
    rows = np.flatnonzero(batch.presence[:, m])
    h = batch.features[m][rows]
    vw = model.proj[m] @ model.head_w
    keep = rng.random((draws, *h.shape)) >= rate
    return (h * keep / (1.0 - rate)) @ vw + model.head_b


def mc_max_logit_variance(model, batch, rng, draws, rate):
    """Per-sample, per-branch sample variance (ddof=1) of the max logit over
    ``draws`` dropout draws; 0 for a modality the row does not observe."""
    var = np.zeros((batch.n, batch.num_modalities))
    for m in range(batch.num_modalities):
        rows = np.flatnonzero(batch.presence[:, m])
        if rows.size:
            ys = mc_branch_logits(model, batch, m, rng, draws, rate).max(axis=2)
            var[rows, m] = ys.var(axis=0, ddof=1)
    return var


def per_row_dropout_variance(model, batch, rate):
    """Reference: the closed form one row and one observed modality at a
    time, each row's predicted class read from its own undropped logits."""
    var = np.zeros((batch.n, batch.num_modalities))
    for m in range(batch.num_modalities):
        vw = model.proj[m] @ model.head_w
        for i in np.flatnonzero(batch.presence[:, m]):
            h = batch.features[m][i]
            k = int(np.argmax(h @ vw + model.head_b))
            var[i, m] = rate / (1.0 - rate) * float(np.dot(h * h,
                                                            vw[:, k] ** 2))
    return var


# (dims, classes): the benchmark's layout, and unequal dims with few classes
LAYOUTS = [((32, 32), 8), ((3, 5, 40), 3)]


def spearman(a, b):
    """Rank correlation of two untied samples."""
    ra, rb = a.argsort().argsort(), b.argsort().argsort()
    return float(np.corrcoef(ra, rb)[0, 1])


class TestLambdaConfig:
    def test_defaults_are_valid(self):
        cfg = LambdaConfig()
        assert cfg.lam_min == 0.01
        # the cap is measured at run time, so it is no config field
        assert "v_max" not in {f.name for f in fields(LambdaConfig)}

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            LambdaConfig(lam_min=0.0)
        with pytest.raises(ValueError):
            LambdaConfig(rate=1.0)


class TestDropoutVariance:
    def test_shape_and_nonnegative(self):
        rng = np.random.default_rng(0)
        cfg = FusionConfig(modalities=2, dims=(4, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 10, cfg.dims, cfg.classes)
        var = dropout_variance(model, batch)
        assert var.shape == (10, 2)
        assert (var >= 0.0).all()

    @pytest.mark.parametrize("rate", [-0.1, 1.0, np.nan])
    def test_rate_outside_unit_interval_rejected(self, rate):
        rng = np.random.default_rng(1)
        cfg = FusionConfig(modalities=1, dims=(3,), classes=2, fused_dim=3)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        with pytest.raises(ValueError, match="rate must be in"):
            dropout_variance(model, batch, rate=rate)

    def test_zero_rate_gives_zero_variance(self):
        rng = np.random.default_rng(2)
        cfg = FusionConfig(modalities=2, dims=(4, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        var = dropout_variance(model, batch, rate=0.0)
        assert np.array_equal(var, np.zeros((6, 2)))

    def test_absent_modality_has_zero_variance(self):
        rng = np.random.default_rng(4)
        cfg = FusionConfig(modalities=2, dims=(4, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        masked = apply_mask(batch, per_sample=np.tile([True, False], (8, 1)))
        var = dropout_variance(model, masked)
        assert np.array_equal(var[:, 1], np.zeros(8))
        assert (var[:, 0] > 0.0).all()

    def test_matches_closed_form_for_single_logit_head(self):
        # with one class the max is the logit, so the dropout variance is
        # sum_j (h_j w_j)^2 * r / (1 - r)
        rng = np.random.default_rng(6)
        cfg = FusionConfig(modalities=1, dims=(6,), classes=1, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 16, cfg.dims, 2)
        rate = 0.3
        var = dropout_variance(model, batch, rate=rate)
        vw = (model.proj[0] @ model.head_w)[:, 0]
        expected = ((batch.features[0] * vw) ** 2).sum(axis=1) * rate / (1 - rate)
        np.testing.assert_allclose(var[:, 0], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dims", [(4, 3), (4, 3, 5)])
    @pytest.mark.parametrize("rate", [0.1, 0.3])
    def test_per_logit_variance_matches_monte_carlo(self, dims, rate):
        # at the class the undropped logits predict, held fixed across
        # draws, the closed form is the exact variance of that logit: a
        # 20,000-draw sample variance lands within 5 of its standard errors
        rng = np.random.default_rng(sum(dims) + int(10 * rate))
        cfg = FusionConfig(modalities=len(dims), dims=dims, classes=3,
                           fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, dims, cfg.classes)
        var = dropout_variance(model, batch, rate=rate)
        draws = 20_000
        for m in range(len(dims)):
            k = (batch.features[m] @ model.proj[m] @ model.head_w
                 + model.head_b).argmax(axis=1)
            logits = mc_branch_logits(model, batch, m, rng, draws, rate)
            ys = logits[:, np.arange(batch.n), k]
            dev2 = (ys - ys.mean(axis=0)) ** 2
            sample = ys.var(axis=0, ddof=1)
            stderr = np.sqrt(dev2.var(axis=0, ddof=1) / draws)
            assert (np.abs(var[:, m] - sample) <= 5.0 * stderr).all(), (
                m, var[:, m], sample, stderr)

    def test_row_variance_does_not_depend_on_the_batch(self):
        # a row's entries are the same alone, in the batch and permuted (to
        # 1e-12 relative: BLAS may round a gemm row differently with the
        # row count)
        rng = np.random.default_rng(11)
        dims = (5, 3, 7)
        cfg = FusionConfig(modalities=3, dims=dims, classes=4, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 40, dims, cfg.classes,
                             random_presence(rng, 40, 3))
        var = dropout_variance(model, batch, rate=0.2)
        perm = rng.permutation(batch.n)
        np.testing.assert_allclose(
            dropout_variance(model, batch.take(perm), rate=0.2), var[perm],
            rtol=1e-12, atol=0)
        for i in range(batch.n):
            np.testing.assert_allclose(
                dropout_variance(model, batch.take(np.array([i])), rate=0.2),
                var[i:i + 1], rtol=1e-12, atol=0)

    def test_rank_agreement_with_monte_carlo_max_logit(self):
        # reported, not bounded: how the closed form (and, for comparison,
        # a 20-draw estimate) ranks rows against a 400-draw Monte-Carlo
        # variance of the max logit, on a briefly trained model of the
        # benchmark's instance-lambda shape
        spec = SyntheticSpec(modalities=2, classes=8, dims=(32, 32),
                             snr=(1e4, 0.3), n_train=384, n_val=200,
                             n_test=8, seed=4)
        train_b, val_b, _ = data = generate(spec)
        cfg = TrainConfig(
            epochs=3, batch_size=128, seed=4, gate_hidden=64, gamma=0.0,
            lam_mode="instance", eval_rates=(), probe_size=128,
            schedules=Schedules(mode="bernoulli", t_warm=10, t_lam=10,
                                lam_max=1.2))
        model = train(cfg, data).model
        lcfg = LambdaConfig()
        closed = mean_branch_variance(model, val_b, lcfg)
        observed = val_b.presence.sum(axis=1)
        rng = np.random.default_rng(12)
        ref, few = (mc_max_logit_variance(model, val_b, rng, draws,
                                          lcfg.rate).sum(axis=1) / observed
                    for draws in (400, 20))
        rho_closed, rho_few = spearman(closed, ref), spearman(few, ref)
        print(f"spearman vs 400 draws: closed form {rho_closed:.3f}, "
              f"20 draws {rho_few:.3f}")
        assert np.isfinite(rho_closed) and np.isfinite(rho_few)


class TestLoopEquivalence:
    """The batched closed form against a per-row loop, and its memory."""

    @pytest.mark.parametrize("dims,classes", LAYOUTS)
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("n", [1, 7, 2000])
    @pytest.mark.parametrize("partial", [False, True])
    def test_dropout_variance_matches_per_row_loop(self, dims, classes, rate,
                                                   n, partial):
        # equal to 1e-12 relative (a gemm row may round differently from a
        # dot product); an unobserved modality's entry is exactly 0
        rng = np.random.default_rng(n)
        presence = (random_presence(rng, n, len(dims)) if partial
                    else np.ones((n, len(dims)), dtype=bool))
        cfg = FusionConfig(modalities=len(dims), dims=dims, classes=classes,
                           fused_dim=8)
        model = random_model(rng, cfg)
        batch = random_batch(rng, n, dims, classes, presence)
        got = dropout_variance(model, batch, rate=rate)
        want = per_row_dropout_variance(model, batch, rate)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(got[~presence], np.zeros((~presence).sum()))

    @pytest.mark.parametrize("n", [500, 2000])
    def test_working_set_holds_no_dim_by_class_array(self, n):
        # the estimator holds a few [rows, dim] and [rows, classes] arrays;
        # forming the per-logit sums as a [rows, dim, classes] product
        # before reducing breaks the bound
        rng = np.random.default_rng(62)
        cfg = FusionConfig(modalities=2, dims=(32, 32), classes=16,
                           fused_dim=32)
        model = random_model(rng, cfg)
        batch = random_batch(rng, n, cfg.dims, cfg.classes)
        tracemalloc.start()
        try:
            dropout_variance(model, batch, rate=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d, c = cfg.dims[0], cfg.classes
        assert peak < 4 * n * (d + c) * 8 < n * d * c * 8


class TestLambdaOf:
    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(20)
        cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 12, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(lam_min=0.02, rate=0.2)
        lam = lambda_of(model, batch, lcfg, 0.4)
        var = dropout_variance(model, batch, rate=0.2)
        expected = 0.02 + softplus(np.minimum(var.mean(axis=1), 0.4))
        np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-15)

    def test_values_stay_inside_declared_bounds(self):
        # lam_min < lam(x) <= lam_min + softplus(v_max)
        for k in range(5):
            rng = np.random.default_rng(30 + k)
            cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=4)
            model = random_model(rng, cfg)
            cal = random_batch(rng, 32, cfg.dims, cfg.classes)
            fresh = random_batch(rng, 64, cfg.dims, cfg.classes)
            lcfg = LambdaConfig(lam_min=0.01, rate=0.2)
            v_max = calibrate_vmax(model, cal, lcfg)
            lam = lambda_of(model, fresh, lcfg, v_max)
            assert (lam > lcfg.lam_min).all()
            assert (lam <= lambda_upper(lcfg, v_max) + 1e-15).all()

    def test_zero_cap_pins_lambda_at_softplus_zero(self):
        rng = np.random.default_rng(22)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(lam_min=0.01)
        lam = lambda_of(model, batch, lcfg, 0.0)
        np.testing.assert_allclose(lam, 0.01 + np.log(2.0), rtol=0, atol=1e-15)

    def test_infinite_cap_uses_raw_variance(self):
        rng = np.random.default_rng(24)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(lam_min=0.01)
        lam = lambda_of(model, batch, lcfg, np.inf)
        var = dropout_variance(model, batch)
        np.testing.assert_allclose(lam, 0.01 + softplus(var.mean(axis=1)),
                                   rtol=0, atol=1e-15)


class TestObservedBranches:
    """v(x) averages the branches of the modalities a row observes."""

    def _cfg_batch(self, seed, n, dims, presence=None):
        rng = np.random.default_rng(seed)
        cfg = FusionConfig(modalities=len(dims), dims=dims, classes=3,
                           fused_dim=4)
        return random_model(rng, cfg), random_batch(rng, n, dims, 3, presence)

    def test_mean_over_observed_branches(self):
        presence = np.array([[True, True, True], [True, False, False],
                             [False, True, True], [False, False, True]])
        model, batch = self._cfg_batch(90, 4, (4, 3, 5), presence)
        lcfg = LambdaConfig(rate=0.2)
        v = mean_branch_variance(model, batch, lcfg)
        var = dropout_variance(model, batch, rate=0.2)
        expected = [var[0].mean(), var[1, 0], var[2, 1:].mean(), var[3, 2]]
        np.testing.assert_allclose(v, expected, rtol=1e-15, atol=0)


class TestLambdaInvariants:
    """Random presence patterns (every row observing at least one modality),
    2 to 5 modalities."""

    @pytest.mark.parametrize("modalities", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_invariants(self, modalities, seed):
        rng = np.random.default_rng(1000 * modalities + seed)
        dims = tuple(int(d) for d in rng.integers(1, 9, size=modalities))
        cfg = FusionConfig(modalities=modalities, dims=dims,
                           classes=int(rng.integers(1, 5)), fused_dim=4)
        model = random_model(rng, cfg)
        full = random_batch(rng, 40, dims, cfg.classes)
        presence = random_presence(rng, 40, modalities)
        batch = random_batch(rng, 40, dims, cfg.classes, presence)
        lcfg = LambdaConfig(lam_min=0.01, rate=0.25)

        # a fully observed batch averages every branch, as var.mean does
        v = mean_branch_variance(model, full, lcfg)
        var = dropout_variance(model, full, rate=0.25)
        assert np.array_equal(v, var.mean(axis=1))

        v_max = calibrate_vmax(model, full, lcfg)
        lam = lambda_of(model, batch, lcfg, v_max)
        assert (lam > lcfg.lam_min).all()
        # softplus round-off
        assert (lam <= lambda_upper(lcfg, v_max) + 1e-15).all()

        # what an unobserved modality's features hold changes nothing
        noisy = [np.where(presence[:, m, None], f, rng.normal(size=f.shape))
                 for m, f in enumerate(batch.features)]
        lam_noisy = lambda_of(model, replace(batch, features=noisy), lcfg,
                              v_max)
        assert np.array_equal(lam, lam_noisy)


class TestCalibration:
    def test_vmax_is_max_mean_branch_variance(self):
        rng = np.random.default_rng(26)
        cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 16, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(rate=0.2)
        v_max = calibrate_vmax(model, batch, lcfg)
        var = dropout_variance(model, batch, rate=0.2)
        assert v_max == var.mean(axis=1).max()

    @pytest.mark.parametrize("v_max", [-0.1, np.nan])
    def test_cap_must_be_nonnegative(self, v_max):
        rng = np.random.default_rng(28)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        with pytest.raises(ValueError, match="v_max must be nonnegative"):
            lambda_of(model, batch, LambdaConfig(), v_max)

    def test_lambda_upper_formula(self):
        lcfg = LambdaConfig(lam_min=0.03)
        np.testing.assert_allclose(lambda_upper(lcfg, 1.7),
                                   0.03 + softplus(1.7), rtol=0, atol=0)
