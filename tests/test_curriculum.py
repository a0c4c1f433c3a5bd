"""Mask curriculum: linear ramps, adaptive teacher, per-sample mask draws."""

import numpy as np
import pytest

from entrofuse.curriculum import (MaskDistribution, Schedules,
                                  acm_distribution, candidate_family, ramp,
                                  sample_keep)
import entrofuse.curriculum as curriculum_module
import entrofuse.model as model_module
from entrofuse.data import apply_mask, keep_observed
from entrofuse.model import FusionConfig, FusionModel
from entrofuse.subsets import nonempty_subsets

from reference_chain import entropy_rows
from test_model import random_batch, random_model, random_presence


# pi_t and lam_t as the trainer runs the one ramp
def schedule_pi(t, s):
    return ramp(t, s.t_warm, s.pi_max)


def schedule_lambda(t, s):
    return ramp(t, s.t_lam, s.lam_max)


class TestSchedules:
    def test_linear_ramp_values_are_exact(self):
        s = Schedules(t_warm=10, pi_max=0.40, t_lam=10, lam_max=0.08)
        assert schedule_pi(0, s) == 0.0
        assert schedule_lambda(0, s) == 0.0
        np.testing.assert_allclose(schedule_pi(5, s), 0.20, rtol=0, atol=1e-12)
        np.testing.assert_allclose(schedule_lambda(5, s), 0.04, rtol=0, atol=1e-12)

    def test_random_tuples_match_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t_warm = int(rng.integers(1, 40))
            t_lam = int(rng.integers(1, 40))
            pi_max = float(rng.uniform(0.05, 0.95))
            lam_max = float(rng.uniform(0.0, 0.5))
            t = int(rng.integers(0, 80))
            s = Schedules(t_warm=t_warm, pi_max=pi_max, t_lam=t_lam,
                          lam_max=lam_max)
            np.testing.assert_allclose(schedule_pi(t, s),
                                       pi_max * min(1.0, t / t_warm),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(schedule_lambda(t, s),
                                       lam_max * min(1.0, t / t_lam),
                                       rtol=0, atol=1e-12)

    def test_saturation_at_horizon(self):
        s = Schedules(t_warm=10, pi_max=0.40, t_lam=7, lam_max=0.08)
        for t in (10, 11, 50, 10_000):
            assert schedule_pi(t, s) == 0.40
        for t in (7, 8, 50, 10_000):
            assert schedule_lambda(t, s) == 0.08

    def test_ramps_never_decrease(self):
        s = Schedules(t_warm=13, pi_max=0.3, t_lam=9, lam_max=0.1)
        pis = [schedule_pi(t, s) for t in range(40)]
        lams = [schedule_lambda(t, s) for t in range(40)]
        assert all(b >= a for a, b in zip(pis, pis[1:]))
        assert all(b >= a for a, b in zip(lams, lams[1:]))

    def test_negative_epoch_rejected(self):
        s = Schedules()
        with pytest.raises(ValueError):
            schedule_pi(-1, s)
        with pytest.raises(ValueError):
            schedule_lambda(-1, s)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            Schedules(t_warm=0)
        with pytest.raises(ValueError):
            Schedules(pi_max=0.0)
        with pytest.raises(ValueError):
            Schedules(pi_max=1.0)
        with pytest.raises(ValueError):
            Schedules(lam_max=-0.1)
        with pytest.raises(ValueError):
            Schedules(eta=0.0)
        with pytest.raises(ValueError):
            Schedules(mode="random")


class TestCandidateFamily:
    def test_single_drops_are_the_singletons(self):
        fam = candidate_family(4, "single_drops")
        assert fam.dtype == bool
        assert np.array_equal(fam, np.eye(4, dtype=bool))

    def test_all_subsets_excludes_empty_and_full(self):
        fam = candidate_family(3, "all_subsets")
        assert fam.shape == (6, 3)  # 2^3 - 2
        assert fam.any(axis=1).all() and not fam.all(axis=1).any()
        assert np.array_equal(fam, nonempty_subsets(3)[:6])

    def test_all_subsets_capped_at_four_modalities(self):
        with pytest.raises(ValueError):
            candidate_family(5, "all_subsets")
        assert len(candidate_family(5, "single_drops")) == 5

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            candidate_family(3, "pairs")


class TestMaskDistribution:
    def test_full_drop_in_support_rejected(self):
        with pytest.raises(ValueError):
            MaskDistribution(support=np.ones((1, 2), dtype=bool),
                             probs=np.array([1.0]),
                             mean_entropies=np.array([0.0]))

    def test_support_must_be_bool_rows(self):
        for support in (np.eye(2), np.zeros((0, 2), dtype=bool),
                        np.array([True, False])):
            with pytest.raises(ValueError, match="bool rows"):
                MaskDistribution(support=support, probs=np.array([1.0]),
                                 mean_entropies=np.zeros(1))

    def test_probs_must_be_simplex(self):
        support = candidate_family(2, "single_drops")
        with pytest.raises(ValueError):
            MaskDistribution(support=support, probs=np.array([0.7, 0.7]),
                             mean_entropies=np.zeros(2))
        with pytest.raises(ValueError):
            MaskDistribution(support=support, probs=np.array([1.5, -0.5]),
                             mean_entropies=np.zeros(2))

    def test_nan_probs_rejected(self):
        support = candidate_family(2, "single_drops")
        for probs in ([np.nan, np.nan], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="simplex"):
                MaskDistribution(support=support, probs=np.array(probs),
                                 mean_entropies=np.zeros(2))

    def test_shape_mismatches_rejected(self):
        support = candidate_family(2, "single_drops")
        with pytest.raises(ValueError):
            MaskDistribution(support=support, probs=np.array([1.0]),
                             mean_entropies=np.zeros(1))
        with pytest.raises(ValueError):
            MaskDistribution(support=support, probs=np.array([0.5, 0.5]),
                             mean_entropies=np.zeros(3))


class TestAcmDistribution:
    def test_matches_brute_force_softmax(self):
        # independent exp/sum oracle on the probe entropies
        for k in range(3):
            rng = np.random.default_rng(k)
            cfg = FusionConfig(modalities=3, dims=(4, 4, 4), classes=3,
                               fused_dim=5)
            model = random_model(rng, cfg)
            batch = random_batch(rng, 32, cfg.dims, cfg.classes)
            for eta in (0.25, 1.0, 4.0):
                dist = acm_distribution(model, batch, eta, family="all_subsets")
                w = np.exp(dist.mean_entropies / eta)
                np.testing.assert_allclose(dist.probs, w / w.sum(),
                                           rtol=0, atol=1e-10)

    def test_higher_probe_entropy_gets_strictly_higher_probability(self):
        rng = np.random.default_rng(10)
        cfg = FusionConfig(modalities=3, dims=(4, 4, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 32, cfg.dims, cfg.classes)
        dist = acm_distribution(model, batch, 0.5, family="all_subsets")
        h, p = dist.mean_entropies, dist.probs
        gaps = 0
        for i in range(len(h)):
            for j in range(len(h)):
                if h[i] > h[j] + 1e-12:
                    assert p[i] > p[j]
                    gaps += 1
        assert gaps > 0

    def test_huge_eta_flattens_to_uniform(self):
        rng = np.random.default_rng(11)
        cfg = FusionConfig(modalities=3, dims=(4, 4, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 32, cfg.dims, cfg.classes)
        dist = acm_distribution(model, batch, 1e6, family="all_subsets")
        np.testing.assert_allclose(dist.probs, 1.0 / len(dist.support),
                                   rtol=0, atol=1e-6)

    def test_two_modality_single_drops_are_exactly_uniform(self):
        # dropping either modality leaves one observed, entropy exactly zero
        rng = np.random.default_rng(12)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 16, cfg.dims, cfg.classes)
        dist = acm_distribution(model, batch, 1.0, family="single_drops")
        assert (dist.mean_entropies == 0.0).all()
        np.testing.assert_allclose(dist.probs, [0.5, 0.5], rtol=0, atol=0)

    def test_gate_runs_only_where_more_than_one_modality_is_left(self, monkeypatch):
        # a single observed modality per row makes the softmax a point mass
        calls = []
        real = model_module.gate_rows
        real_gate = model_module._gate

        def counting(model, batch, keep, *rest):
            calls.append(len(keep))
            return real_gate(model, batch, keep, *rest)

        monkeypatch.setattr(model_module, "_gate", counting)
        rng = np.random.default_rng(16)
        for m, family, runs in ((2, "single_drops", 0), (3, "single_drops", 3),
                                (3, "all_subsets", 3)):
            cfg = FusionConfig(modalities=m, dims=(4,) * m, classes=3,
                               fused_dim=5)
            model = random_model(rng, cfg)
            batch = random_batch(rng, 24, cfg.dims, cfg.classes)
            calls.clear()
            dist = acm_distribution(model, batch, 0.5, family=family)
            assert len(calls) == runs
            brute = [float(entropy_rows(real(model, apply_mask(
                batch, per_sample=np.tile(~d, (batch.n, 1))))).data.mean())
                     for d in dist.support]
            assert np.array_equal(dist.mean_entropies, brute)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("family", ["single_drops", "all_subsets"])
    def test_one_modality_shortcut_keeps_the_gate_route_probs(
            self, m, family, monkeypatch):
        # a candidate that leaves no live row two modalities scores 0 with
        # no gate_rows call; every candidate through gate_rows gives the
        # same probs and entropies, bit for bit (0 may read -0 there)
        calls = []
        monkeypatch.setattr(curriculum_module, "gate_rows",
                            lambda *args: calls.append(1)
                            or model_module.gate_rows(*args))
        rng = np.random.default_rng(30 + m)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5)[:m], classes=3,
                           fused_dim=4)
        model = random_model(rng, cfg)
        presence = random_presence(rng, 40, m)
        batch = random_batch(rng, 40, cfg.dims, cfg.classes, presence)
        for eta in (0.3, 1.0):
            calls.clear()
            dist = acm_distribution(model, batch, eta, family=family)
            support = candidate_family(m, family)
            entropies = np.zeros(len(support))
            gated = 0
            for i, drop in enumerate(support):
                view, live = keep_observed(presence, ~drop)
                gated += (view[live].sum(axis=1) > 1).any()
                if live.any():
                    entropies[i] = float(entropy_rows(model_module.gate_rows(
                        model, batch, view[None])).data[live].mean())
            scaled = entropies / eta
            weights = np.exp(scaled - scaled.max())
            assert np.array_equal(dist.mean_entropies, entropies)
            assert np.array_equal(dist.probs, weights / weights.sum())
            cdf = np.cumsum(dist.probs)
            assert np.array_equal(dist.cdf, cdf / cdf[-1])
            assert len(calls) == gated
            # every M=2 single drop and each all_subsets drop of M - 1
            # leaves one modality: those skip the gate
            assert gated < len(support) or (m > 2 and family == "single_drops")

    @pytest.mark.parametrize("seed", range(3))
    def test_entropy_averages_the_rows_a_candidate_leaves_observable(
            self, seed):
        # a row that observes only dropped modalities leaves that
        # candidate's mean; the reference gates the other rows alone
        rng = np.random.default_rng(17 + seed)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=2,
                           fused_dim=4)
        model = random_model(rng, cfg)
        presence = random_presence(rng, 40, 3)
        batch = random_batch(rng, 40, cfg.dims, cfg.classes, presence)
        dist = acm_distribution(model, batch, 1.0, family="all_subsets")
        emptied = 0
        for drop, h in zip(dist.support, dist.mean_entropies):
            live = np.flatnonzero((presence & ~drop).any(axis=1))
            emptied += live.size < batch.n
            rows = batch.take(live)
            want = entropy_rows(model_module.gate_rows(model, apply_mask(
                rows, np.tile(~drop, (rows.n, 1))))).data.mean()
            np.testing.assert_allclose(h, want, rtol=1e-12, atol=0)
        assert emptied > 0

    def test_candidate_emptying_every_row_reads_zero(self):
        rng = np.random.default_rng(20)
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=2,
                           fused_dim=4)
        model = random_model(rng, cfg)
        presence = np.tile([True, True, False], (6, 1))
        batch = random_batch(rng, 6, cfg.dims, cfg.classes, presence)
        dist = acm_distribution(model, batch, 1.0, family="all_subsets")
        # dropping {0, 1} empties every row, and only dropping {2} leaves
        # a row two modalities to weigh
        only_2 = (dist.support == [False, False, True]).all(axis=1)
        assert (dist.mean_entropies[~only_2] == 0.0).all()
        assert dist.mean_entropies[only_2] > 0.0
        assert np.isfinite(dist.probs).all()

    def test_fresh_gate_spreads_candidates_uniformly(self):
        # zero gate output layer keeps every probe entropy at log(2)
        rng = np.random.default_rng(13)
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=3, fused_dim=4)
        model = FusionModel(cfg, rng)
        batch = random_batch(rng, 16, cfg.dims, cfg.classes)
        dist = acm_distribution(model, batch, 1.0, family="single_drops")
        np.testing.assert_allclose(dist.mean_entropies, np.log(2.0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist.probs, 1.0 / 3.0, rtol=0, atol=1e-12)

    def test_families_agree_on_shared_candidates(self):
        rng = np.random.default_rng(14)
        cfg = FusionConfig(modalities=3, dims=(4, 4, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 24, cfg.dims, cfg.classes)
        singles = acm_distribution(model, batch, 1.0, family="single_drops")
        full = acm_distribution(model, batch, 1.0, family="all_subsets")
        assert np.array_equal(full.support[:3], singles.support)
        np.testing.assert_allclose(full.mean_entropies[:3],
                                   singles.mean_entropies, rtol=0, atol=0)

    def test_nonpositive_eta_rejected(self):
        rng = np.random.default_rng(15)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=2, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        with pytest.raises(ValueError):
            acm_distribution(model, batch, 0.0)


def _ref_drop_subsets(dist, pi_t, n, rng):
    """Per-sample drop subsets, one loop step per sample: the reference
    ``sample_keep`` must match draw for draw."""
    gate = rng.random(n) < pi_t
    picks = rng.choice(len(dist.support), size=n, p=dist.probs)
    empty = np.zeros(dist.support.shape[1], dtype=bool)
    return [dist.support[picks[i]] if gate[i] else empty for i in range(n)]


class TestSampleMask:
    def _dist(self, probs=(0.5, 0.5)):
        support = candidate_family(2, "single_drops")
        return MaskDistribution(support=support,
                                probs=np.asarray(probs, dtype=np.float64),
                                mean_entropies=np.zeros(2))

    def test_zero_rate_masks_nothing(self):
        dist = self._dist()
        assert sample_keep(dist, 0.0, 50, np.random.default_rng(0)).all()

    def test_sample_keep_equals_subset_route_bitwise(self):
        # same rng stream in, same keep matrix and same post-call rng state out
        dist = self._dist(probs=(0.3, 0.7))
        for pi_t in (0.0, 0.4, 1.0):
            rng_a = np.random.default_rng(21)
            rng_b = np.random.default_rng(21)
            drops = _ref_drop_subsets(dist, pi_t, 40, rng_a)
            via_subsets = ~np.array(drops)
            direct = sample_keep(dist, pi_t, 40, rng_b)
            assert (via_subsets == direct).all()
            assert rng_a.random() == rng_b.random()

    def test_sample_keep_validation_matches_sample_mask(self):
        dist = self._dist()
        with pytest.raises(ValueError):
            sample_keep(dist, 1.5, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_keep(dist, 0.5, 0, np.random.default_rng(0))

    def test_full_rate_on_degenerate_teacher_always_picks_it(self):
        dist = self._dist(probs=(1.0, 0.0))
        keep = sample_keep(dist, 1.0, 50, np.random.default_rng(1))
        assert (keep == ~dist.support[0]).all()

    def test_draw_past_a_short_cumsum_picks_the_last_candidate(self):
        # the teacher's probabilities may sum to within 1e-9 of 1, so a
        # uniform draw can land at or above their cumsum's last entry
        dist = self._dist(probs=(0.5, 0.4999999995))

        class Draws:  # the gate's uniforms, then the picks'
            def __init__(self, *draws):
                self.draws = list(draws)

            def random(self, n):
                return self.draws.pop(0)

        draws = Draws(np.zeros(2), np.array([0.25, 0.99999999999]))
        keep = sample_keep(dist, 1.0, 2, draws)
        assert np.array_equal(keep, ~dist.support)

    def test_draw_in_the_band_past_a_short_cumsum_entry(self):
        # normalized as rng.choice normalizes it, the first cumsum entry is
        # 0.50000000025, so a draw just past 0.5 still picks candidate 0
        dist = self._dist(probs=(0.5, 0.4999999995))

        class Draws:  # the gate's uniforms, then the picks'
            def __init__(self, *draws):
                self.draws = list(draws)

            def random(self, n):
                return self.draws.pop(0)

        keep = sample_keep(dist, 1.0, 1, Draws(np.zeros(1),
                                                np.array([0.5000000001])))
        assert np.array_equal(keep, ~dist.support[:1])

    def test_unnormalized_teachers_match_rng_choice(self):
        rng = np.random.default_rng(30)
        for m, family in ((2, "single_drops"), (3, "all_subsets"),
                          (4, "all_subsets"), (5, "single_drops")):
            support = candidate_family(m, family)
            for _ in range(50):
                logits = rng.normal(scale=3.0, size=len(support))
                probs = np.exp(logits - logits.max())
                probs /= probs.sum()
                probs *= 1.0 + rng.uniform(-9e-10, 9e-10)
                dist = MaskDistribution(support=support, probs=probs,
                                        mean_entropies=np.zeros(len(support)))
                seed = int(rng.integers(2**32))
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                keep = sample_keep(dist, 1.0, 200, got_rng)
                want_rng.random(200)
                picks = want_rng.choice(len(support), size=200, p=probs)
                assert np.array_equal(keep, ~support[picks])
                assert got_rng.random() == want_rng.random()

    def test_masked_fraction_tracks_rate(self):
        dist = self._dist()
        keep = sample_keep(dist, 0.5, 100_000, np.random.default_rng(2))
        frac = np.mean(~keep.all(axis=1))
        np.testing.assert_allclose(frac, 0.5, rtol=0, atol=0.01)

    def test_pick_frequencies_track_teacher_probs(self):
        dist = self._dist(probs=(0.8, 0.2))
        keep = sample_keep(dist, 1.0, 100_000, np.random.default_rng(3))
        frac0 = np.mean(~keep[:, 0])  # support[0] drops modality 0
        np.testing.assert_allclose(frac0, 0.8, rtol=0, atol=0.01)

    def test_rng_consumption_is_independent_of_rate(self):
        # downstream draws stay aligned when the curriculum rate ramps
        dist = self._dist()
        after = []
        for pi_t in (0.0, 0.3, 1.0):
            rng = np.random.default_rng(7)
            sample_keep(dist, pi_t, 64, rng)
            after.append(rng.random(4))
        assert (after[0] == after[1]).all()
        assert (after[0] == after[2]).all()

    def test_keep_matrix_inverts_drop_bits(self):
        dist = self._dist(probs=(1.0, 0.0))
        keep = sample_keep(dist, 1.0, 10, np.random.default_rng(4))
        assert keep.shape == (10, 2)
        assert (~keep[:, 0]).all()  # support[0] drops modality 0
        assert keep[:, 1].all()

    def test_invalid_arguments_rejected(self):
        dist = self._dist()
        for pi_t, n in ((-0.1, 10), (1.1, 10), (0.5, 0)):
            with pytest.raises(ValueError):
                sample_keep(dist, pi_t, n, np.random.default_rng(0))
