"""Instance-adaptive entropy weight from per-branch predictive variance."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from entrofuse.data import apply_mask
from entrofuse.model import FusionConfig
from entrofuse.uncertainty import softplus
from entrofuse.uncertainty import (BLOCK, LambdaConfig, calibrate_vmax,
                                   lambda_of, lambda_upper, mc_variance,
                                   mean_branch_variance)

from test_model import random_batch, random_model, random_presence


def per_draw_mc_variance(model, batch, rng, draws=20, rate=0.1):
    """Reference estimator: one dropout pass per draw and modality, over the
    rows that observe the modality, each draw's mask read from its own
    ``random_raw`` call as uint16 lanes."""
    var = np.zeros((batch.n, batch.num_modalities))
    head_w = model.head_w
    head_b = model.head_b
    cut = round(rate * 2**16)
    for m in range(batch.num_modalities):
        rows = np.flatnonzero(batch.presence[:, m])
        if rows.size == 0:
            continue
        h = batch.features[m][rows]
        vw = model.proj[m] @ head_w
        ys = np.empty((draws, rows.size))
        for k in range(draws):
            if rate > 0.0:
                raw = rng.bit_generator.random_raw(-(-h.size // 4))
                lanes = raw.astype("<u8").view("<u2")[:h.size].reshape(h.shape)
                keep = (lanes >= cut).astype(np.float64)
                hk = h * keep / (1.0 - rate)
            else:
                hk = h
            ys[k] = (hk @ vw + head_b).max(axis=1)
        var[rows, m] = ys.var(axis=0, ddof=1)
    return var


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


# (dims, classes): the benchmark's layout, and unequal dims with few classes
LAYOUTS = [((32, 32), 8), ((3, 5, 40), 3)]


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
        with pytest.raises(ValueError):
            LambdaConfig(draws=1)


class TestMcVariance:
    def test_shape_and_nonnegative(self):
        rng = np.random.default_rng(0)
        cfg = FusionConfig(modalities=2, dims=(4, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 10, cfg.dims, cfg.classes)
        var = mc_variance(model, batch, np.random.default_rng(1), draws=8)
        assert var.shape == (10, 2)
        assert (var >= 0.0).all()

    def test_zero_rate_gives_zero_variance(self):
        rng = np.random.default_rng(2)
        cfg = FusionConfig(modalities=2, dims=(4, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        var = mc_variance(model, batch, np.random.default_rng(3), draws=5, rate=0.0)
        # identical draws; only mean-subtraction round-off remains
        np.testing.assert_allclose(var, 0.0, rtol=0, atol=1e-30)

    def test_absent_modality_has_zero_variance(self):
        # zero-filled features stay zero under dropout
        rng = np.random.default_rng(4)
        cfg = FusionConfig(modalities=2, dims=(4, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        masked = apply_mask(batch, per_sample=np.tile([True, False], (8, 1)))
        var = mc_variance(model, masked, np.random.default_rng(5), draws=8)
        assert (var[:, 1] == 0.0).all()
        assert (var[:, 0] > 0.0).any()

    def test_matches_closed_form_for_single_logit_head(self):
        # with one class the max is linear, so the dropout variance is
        # sum_j (h_j w_j)^2 * r / (1 - r) exactly
        rng = np.random.default_rng(6)
        cfg = FusionConfig(modalities=1, dims=(6,), classes=1, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 16, cfg.dims, 2)
        rate = 0.3
        var = mc_variance(model, batch, np.random.default_rng(7),
                          draws=8000, rate=rate)
        vw = (model.proj[0] @ model.head_w)[:, 0]
        expected = ((batch.features[0] * vw) ** 2).sum(axis=1) * rate / (1 - rate)
        np.testing.assert_allclose(var[:, 0], expected, rtol=0.1)

    def test_same_rng_seed_same_estimate(self):
        rng = np.random.default_rng(8)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        a = mc_variance(model, batch, np.random.default_rng(9), draws=10)
        b = mc_variance(model, batch, np.random.default_rng(9), draws=10)
        assert (a == b).all()

    def test_too_few_draws_rejected(self):
        rng = np.random.default_rng(10)
        cfg = FusionConfig(modalities=1, dims=(3,), classes=2, fused_dim=3)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        with pytest.raises(ValueError):
            mc_variance(model, batch, np.random.default_rng(0), draws=1)


class TestDropoutStream:
    """The documented mask stream: ceil(r * d / 4) words of ``random_raw``
    per draw of a modality observed by r rows, read as uint16 lanes that
    drop an entry when below round(rate * 2**16)."""

    def _setup(self, seed, n=9, dims=(5, 3), presence=None):
        rng = np.random.default_rng(seed)
        cfg = FusionConfig(modalities=len(dims), dims=dims, classes=4,
                           fused_dim=4)
        return random_model(rng, cfg), random_batch(rng, n, dims, 4, presence)

    def test_only_observed_rows_take_draws(self):
        presence = np.ones((9, 2), dtype=bool)
        presence[[1, 4, 5], 0] = False  # 6 rows observe modality 0
        presence[:, 1] = False
        presence[[1, 4, 5], 1] = True  # 3 rows observe modality 1
        model, batch = self._setup(80, presence=presence)
        rng, want = np.random.default_rng(81), np.random.default_rng(81)
        var = mc_variance(model, batch, rng, draws=7, rate=0.3)
        want.bit_generator.random_raw(7 * -(-6 * 5 // 4) + 7 * -(-3 * 3 // 4))
        assert same_state(rng, want)
        assert ((var > 0.0) == presence).all()

    def test_unobserved_modality_takes_no_draws(self):
        presence = np.ones((9, 2), dtype=bool)
        presence[:, 1] = False
        model, batch = self._setup(82, presence=presence)
        rng, want = np.random.default_rng(83), np.random.default_rng(83)
        var = mc_variance(model, batch, rng, draws=4, rate=0.5)
        want.bit_generator.random_raw(4 * -(-9 * 5 // 4))
        assert same_state(rng, want)
        assert (var[:, 1] == 0.0).all()

    def test_rate_just_below_one_drops_every_entry(self):
        # round(rate * 2**16) is 2**16 here, one past the largest lane
        model, batch = self._setup(84)
        rate = 1.0 - 2**-20
        assert round(rate * 2**16) == 2**16
        rng, want = np.random.default_rng(85), np.random.default_rng(85)
        var = mc_variance(model, batch, rng, draws=6, rate=rate)
        np.testing.assert_allclose(var, 0.0, rtol=0, atol=1e-30)
        want.bit_generator.random_raw(6 * (-(-9 * 5 // 4) + -(-9 * 3 // 4)))
        assert same_state(rng, want)

    def test_tiny_rate_drops_no_entry(self):
        # round(rate * 2**16) is 0: every lane keeps, yet draws are taken
        model, batch = self._setup(86)
        rate = 2**-20
        rng, want = np.random.default_rng(87), np.random.default_rng(87)
        var = mc_variance(model, batch, rng, draws=6, rate=rate)
        np.testing.assert_allclose(var, 0.0, rtol=0, atol=1e-30)
        want.bit_generator.random_raw(6 * (-(-9 * 5 // 4) + -(-9 * 3 // 4)))
        assert same_state(rng, want)

    def test_entry_kept_exactly_when_its_lane_reaches_the_cut(self):
        # one row of one feature, so every draw reads one lane of a word;
        # the entry is kept exactly when that lane is at least the cut
        rng = np.random.default_rng(88)
        cfg = FusionConfig(modalities=2, dims=(1, 1), classes=1, fused_dim=2)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 1, cfg.dims, 2, [[True, False]])
        rate = 0.3
        draws = 64
        lanes = (np.random.default_rng(89).bit_generator.random_raw(draws)
                 .astype("<u8").view("<u2")[::4])
        keep = lanes >= round(rate * 2**16)
        h = batch.features[0][0, 0] / (1.0 - rate)
        vw = (model.proj[0] @ model.head_w)[0, 0]
        ys = np.where(keep, h, 0.0) * vw + model.head_b[0]
        var = mc_variance(model, batch, np.random.default_rng(89),
                          draws=draws, rate=rate)
        np.testing.assert_allclose(var[0, 0], ys.var(ddof=1), rtol=1e-12)


class TestBlockedEquivalence:
    """The blocked estimators against the one-draw-at-a-time references:
    equal bit for bit, and leaving the generator in the same state."""

    @pytest.mark.parametrize("dims,classes", LAYOUTS)
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("n", [1, 7, 2000])
    @pytest.mark.parametrize("partial", [False, True])
    def test_mc_variance_matches_per_draw_loop(self, dims, classes, rate, n,
                                               partial):
        draws = 21
        rng = np.random.default_rng(n)
        presence = (random_presence(rng, n, len(dims)) if partial
                    else np.ones((n, len(dims)), dtype=bool))
        for d, r in zip(dims, presence.sum(axis=0)):
            if n == 2000:  # several blocks per modality, the last one partial
                assert BLOCK // (r * d) < draws
            elif r:  # one block per observed modality
                assert BLOCK // (r * d) >= draws
        cfg = FusionConfig(modalities=len(dims), dims=dims, classes=classes,
                           fused_dim=8)
        model = random_model(rng, cfg)
        batch = random_batch(rng, n, dims, classes, presence)
        got_rng, want_rng = np.random.default_rng(60), np.random.default_rng(60)
        got = mc_variance(model, batch, got_rng, draws=draws, rate=rate)
        want = per_draw_mc_variance(model, batch, want_rng, draws=draws,
                                    rate=rate)
        assert np.array_equal(got, want)
        assert same_state(got_rng, want_rng)

    @pytest.mark.parametrize("draws", [20, 400])
    def test_working_set_does_not_grow_with_draws(self, draws):
        # beyond the [draws, n] max logits the variance is taken from, the
        # estimator holds one dropout block whatever the draw count; a
        # [draws, n, d] array of every draw, or a second [draws, n] array
        # for the variance, breaks the bound
        rng = np.random.default_rng(62)
        cfg = FusionConfig(modalities=2, dims=(32, 32), classes=8, fused_dim=32)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 500, cfg.dims, cfg.classes)
        tracemalloc.start()
        try:
            mc_variance(model, batch, np.random.default_rng(63), draws=draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = draws * batch.n * 8
        assert peak - samples < 2**20


class TestLambdaOf:
    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(20)
        cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 12, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(lam_min=0.02, draws=8, rate=0.2)
        lam = lambda_of(model, batch, lcfg, np.random.default_rng(21), 0.4)
        var = mc_variance(model, batch, np.random.default_rng(21),
                          draws=8, rate=0.2)
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
            lcfg = LambdaConfig(lam_min=0.01, draws=6, rate=0.2)
            v_max = calibrate_vmax(model, cal, lcfg, np.random.default_rng(40 + k))
            lam = lambda_of(model, fresh, lcfg, np.random.default_rng(50 + k),
                            v_max)
            assert (lam > lcfg.lam_min).all()
            assert (lam <= lambda_upper(lcfg, v_max) + 1e-15).all()

    def test_zero_cap_pins_lambda_at_softplus_zero(self):
        rng = np.random.default_rng(22)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(lam_min=0.01)
        lam = lambda_of(model, batch, lcfg, np.random.default_rng(23), 0.0)
        np.testing.assert_allclose(lam, 0.01 + np.log(2.0), rtol=0, atol=1e-15)

    def test_infinite_cap_uses_raw_variance(self):
        rng = np.random.default_rng(24)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(lam_min=0.01, draws=6)
        lam = lambda_of(model, batch, lcfg, np.random.default_rng(25), np.inf)
        var = mc_variance(model, batch, np.random.default_rng(25), draws=6)
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
        lcfg = LambdaConfig(draws=6, rate=0.2)
        v = mean_branch_variance(model, batch, lcfg, np.random.default_rng(91))
        var = mc_variance(model, batch, np.random.default_rng(91), draws=6,
                          rate=0.2)
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
        lcfg = LambdaConfig(lam_min=0.01, draws=5, rate=0.25)

        # a fully observed batch averages every branch, as var.mean does
        v = mean_branch_variance(model, full, lcfg, np.random.default_rng(1))
        var = mc_variance(model, full, np.random.default_rng(1), draws=5,
                          rate=0.25)
        assert np.array_equal(v, var.mean(axis=1))

        v_max = calibrate_vmax(model, full, lcfg, np.random.default_rng(2))
        lam = lambda_of(model, batch, lcfg, np.random.default_rng(3), v_max)
        assert (lam > lcfg.lam_min).all()
        # softplus round-off
        assert (lam <= lambda_upper(lcfg, v_max) + 1e-15).all()

        # what an unobserved modality's features hold changes nothing
        noisy = [np.where(presence[:, m, None], f, rng.normal(size=f.shape))
                 for m, f in enumerate(batch.features)]
        lam_noisy = lambda_of(model, replace(batch, features=noisy), lcfg,
                              np.random.default_rng(3), v_max)
        assert np.array_equal(lam, lam_noisy)


class TestCalibration:
    def test_vmax_is_max_mean_branch_variance(self):
        rng = np.random.default_rng(26)
        cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 16, cfg.dims, cfg.classes)
        lcfg = LambdaConfig(draws=6, rate=0.2)
        v_max = calibrate_vmax(model, batch, lcfg, np.random.default_rng(27))
        var = mc_variance(model, batch, np.random.default_rng(27),
                          draws=6, rate=0.2)
        assert v_max == var.mean(axis=1).max()

    @pytest.mark.parametrize("v_max", [-0.1, np.nan])
    def test_cap_must_be_nonnegative(self, v_max):
        rng = np.random.default_rng(28)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="v_max must be nonnegative"):
            lambda_of(model, batch, LambdaConfig(), rng, v_max)
        assert rng.bit_generator.state == state  # raised before drawing

    def test_lambda_upper_formula(self):
        lcfg = LambdaConfig(lam_min=0.03)
        np.testing.assert_allclose(lambda_upper(lcfg, 1.7),
                                   0.03 + softplus(1.7), rtol=0, atol=0)
