"""Seeded streams, modality subsets, synthetic data, masking."""

from dataclasses import replace

import numpy as np
import pytest

from entrofuse.data import (MultimodalBatch, SyntheticSpec, apply_mask,
                            bernoulli_mask, generate, keep_observed)
from entrofuse.rng import stream
from entrofuse.subsets import (SubsetLattice, nonempty_subsets,
                              subset_lattice)


class TestStreams:
    def test_same_name_same_sequence(self):
        a = stream(7, "data").random(100)
        b = stream(7, "data").random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        a = stream(7, "data").random(100)
        b = stream(7, "masking").random(100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = stream(7, "data").random(100)
        b = stream(8, "data").random(100)
        assert not np.array_equal(a, b)

    def test_streams_do_not_interfere(self):
        # consuming one stream never shifts another: ablations that skip
        # masking draws still see identical data order
        data_only = stream(3, "data").permutation(50)
        mask = stream(3, "masking")
        mask.random(1000)
        data_after = stream(3, "data").permutation(50)
        np.testing.assert_array_equal(data_only, data_after)


def _members(row) -> frozenset:
    return frozenset(int(m) for m in np.flatnonzero(row))


class TestSubsetLattice:
    def test_pairs_index_subset_rows(self):
        lattice = subset_lattice(3)
        assert lattice.subsets.dtype == bool
        assert lattice.subsets.shape == (7, 3)
        assert lattice.pairs.shape == (12, 2)
        assert lattice.pairs.dtype == np.int64

    def test_rejects_loose_pairs(self):
        rows = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
        SubsetLattice(rows, [[0, 1]])
        for pair in ([1, 0], [0, 0], [2, 1]):  # superset, equal, disjoint
            with pytest.raises(ValueError, match="not strict inclusion"):
                SubsetLattice(rows, [pair])

    def test_rejects_bad_shapes_and_indices(self):
        rows = np.array([[1, 0], [1, 1]], dtype=bool)
        for subsets, pairs in ((rows, [[0, 2]]), (rows, [[-1, 1]]),
                               (rows, np.zeros((0, 2))), (rows, [0, 1]),
                               (rows[0], [[0, 1]])):
            with pytest.raises(ValueError):
                SubsetLattice(subsets, pairs)

    def test_arrays_are_read_only_copies(self):
        rows = np.array([[1, 0], [1, 1]], dtype=bool)
        pairs = np.array([[0, 1]])
        lattice = SubsetLattice(rows, pairs)
        rows[1, 1] = False  # validated once: later edits must not reach it
        assert lattice.subsets[1, 1]
        with pytest.raises(ValueError):
            lattice.pairs[0, 0] = 1
        with pytest.raises(ValueError):
            lattice.subsets[0, 0] = False

    def test_select_renumbers_in_first_mention_order(self):
        lattice = subset_lattice(3)
        picked = lattice.select(np.array([5, 0]))
        np.testing.assert_array_equal(picked.pairs, [[0, 1], [2, 3]])
        for (a, b), (a0, b0) in zip(picked.pairs, lattice.pairs[[5, 0]]):
            np.testing.assert_array_equal(picked.subsets[a],
                                          lattice.subsets[a0])
            np.testing.assert_array_equal(picked.subsets[b],
                                          lattice.subsets[b0])

    def test_views_check_width(self):
        lattice = subset_lattice(2)
        presence = np.array([[True, True], [True, False]])
        views, live = keep_observed(presence, lattice.subsets[:, None])
        assert views.shape == (3, 2, 2) and live.shape == (3, 2)
        np.testing.assert_array_equal(views[0], [[True, False],
                                                 [True, False]])
        # subset 2, {1}, would empty row 1: it reads the row's presence there
        np.testing.assert_array_equal(views[2], [[False, True],
                                                 [True, False]])
        assert live.tolist() == [[True, True], [True, True], [True, False]]
        with pytest.raises(ValueError, match="modality count"):
            keep_observed(np.ones((2, 3), dtype=bool),
                          lattice.subsets[:, None])


class TestLattice:
    def test_nonempty_subsets_count_and_order(self):
        for m in range(2, 6):
            subs = nonempty_subsets(m)
            assert subs.shape == (2 ** m - 1, m) and subs.dtype == bool
            keys = [(int(s.sum()), tuple(np.flatnonzero(s))) for s in subs]
            assert keys == sorted(keys)
        np.testing.assert_array_equal(
            nonempty_subsets(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                                  [1, 0, 1], [0, 1, 1], [1, 1, 1]])

    def test_m2_has_exactly_two_pairs(self):
        lattice = subset_lattice(2)
        assert len(lattice.pairs) == 2
        rendered = {(_members(lattice.subsets[a]),
                     _members(lattice.subsets[b])) for a, b in lattice.pairs}
        assert rendered == {(frozenset({0}), frozenset({0, 1})),
                            (frozenset({1}), frozenset({0, 1}))}

    def test_matches_brute_force_enumeration(self):
        # oracle: direct double loop over nonempty subsets with strict
        # set inclusion
        for m in (2, 3, 4):
            oracle = []
            all_sets = [frozenset(i for i in range(m) if (k >> i) & 1)
                        for k in range(1, 2 ** m)]
            for a in all_sets:
                for b in all_sets:
                    if a < b:
                        oracle.append((a, b))
            lattice = subset_lattice(m)
            assert len(lattice.pairs) == len(oracle)
            got = {(_members(lattice.subsets[a]), _members(lattice.subsets[b]))
                   for a, b in lattice.pairs}
            assert got == set(oracle)

    def test_counts_follow_closed_form(self):
        # sum over nonempty A of (2^(M-|A|) - 1) strict supersets
        import math
        for m in (2, 3, 4, 5):
            expected = sum(math.comb(m, k) * (2 ** (m - k) - 1)
                           for k in range(1, m + 1))
            assert len(subset_lattice(m).pairs) == expected

    def test_every_pair_strict(self):
        lattice = subset_lattice(3)
        for a, b in lattice.pairs:
            assert _members(lattice.subsets[a]) < _members(lattice.subsets[b])

    def test_range_validated(self):
        with pytest.raises(ValueError):
            subset_lattice(1)
        with pytest.raises(ValueError):
            subset_lattice(11)


def _centroid_probe_accuracy(features: np.ndarray, labels: np.ndarray,
                             classes: int) -> float:
    """Nearest-class-mean linear probe, fit and scored on the same split."""
    means = np.stack([features[labels == c].mean(axis=0)
                      for c in range(classes)])
    d2 = ((features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == labels).mean())


class TestGenerate:
    def test_shapes_and_presence(self):
        spec = SyntheticSpec(modalities=3, classes=5, dims=(8, 6, 4),
                             snr=(10.0, 10.0, 10.0), n_train=200, n_val=50,
                             n_test=50, seed=1)
        train, val, test = generate(spec)
        assert train.n == 200 and val.n == 50 and test.n == 50
        assert train.dims == (8, 6, 4)
        assert train.presence.all() and test.presence.all()
        for split in (train, val, test):
            assert split.labels.min() >= 0 and split.labels.max() < 5

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_train=100, n_val=50, n_test=50, seed=9)
        a = generate(spec)
        b = generate(spec)
        for split_a, split_b in zip(a, b):
            for f_a, f_b in zip(split_a.features, split_b.features):
                np.testing.assert_array_equal(f_a, f_b)
            np.testing.assert_array_equal(split_a.labels, split_b.labels)

    def test_seed_changes_data(self):
        a = generate(SyntheticSpec(n_train=100, n_val=50, n_test=50, seed=1))
        b = generate(SyntheticSpec(n_train=100, n_val=50, n_test=50, seed=2))
        assert not np.array_equal(a[0].features[0], b[0].features[0])

    def test_splits_disjoint(self):
        spec = SyntheticSpec(n_train=100, n_val=50, n_test=50, seed=3)
        train, val, test = generate(spec)
        pool = np.vstack([train.features[0], val.features[0], test.features[0]])
        assert len(np.unique(pool.round(12), axis=0)) == pool.shape[0]

    def test_high_snr_probe_near_perfect(self):
        spec = SyntheticSpec(modalities=2, classes=10, dims=(32, 32),
                             snr=(1e6, 1e6), n_train=1000, n_val=100,
                             n_test=100, seed=4)
        train, _, _ = generate(spec)
        for m in range(2):
            acc = _centroid_probe_accuracy(train.features[m], train.labels, 10)
            assert acc > 0.99

    def test_snr_gap_separates_probes(self):
        spec = SyntheticSpec(modalities=2, classes=10, dims=(32, 32),
                             snr=(1e6, 0.01), n_train=1000, n_val=100,
                             n_test=100, seed=5)
        train, _, _ = generate(spec)
        acc_hi = _centroid_probe_accuracy(train.features[0], train.labels, 10)
        acc_lo = _centroid_probe_accuracy(train.features[1], train.labels, 10)
        assert acc_hi - acc_lo > 0.30

    def test_all_classes_present_per_split(self):
        spec = SyntheticSpec(classes=10, n_train=200, n_val=100, n_test=100,
                             seed=6)
        for split in generate(spec):
            assert set(np.unique(split.labels)) == set(range(10))

    def test_multilabel_mode(self):
        spec = SyntheticSpec(classes=6, n_train=2000, n_val=100, n_test=100,
                             seed=7, multilabel=True, extra_label_rate=0.2)
        train, _, _ = generate(spec)
        assert train.labels.shape == (2000, 6)
        assert set(np.unique(train.labels)) == {0.0, 1.0}
        assert (train.labels.sum(axis=1) >= 1.0).all()
        extra_rate = (train.labels.sum() - 2000) / (2000 * 5)
        assert abs(extra_rate - 0.2) < 0.03

    @pytest.mark.parametrize("modalities", [2, 4])
    @pytest.mark.parametrize("multilabel", [False, True])
    def test_equals_prototype_plus_scaled_noise_split_by_take(
            self, modalities, multilabel):
        # the reference forms prototype + sigma * noise in full-size
        # temporaries and splits by take copies; generate works in place
        spec = SyntheticSpec(modalities=modalities, classes=5,
                             dims=(6, 3, 5, 4)[:modalities],
                             snr=(1e6, 0.5, 4.0, 0.01)[:modalities],
                             n_train=60, n_val=20, n_test=30, seed=8,
                             multilabel=multilabel, extra_label_rate=0.3)
        label_rng = stream(spec.seed, "data:labels")
        noise_rng = stream(spec.seed, "data:noise")
        proto_rng = stream(spec.seed, "data:prototypes")
        prototypes = [proto_rng.standard_normal((spec.classes, d))
                      for d in spec.dims]
        total = spec.n_train + spec.n_val + spec.n_test
        reps = -(-total // spec.classes)
        labels = np.tile(np.arange(spec.classes, dtype=np.int64), reps)[:total]
        label_rng.shuffle(labels)
        features = [prototypes[m][labels] + (1.0 / np.sqrt(spec.snr[m]))
                    * noise_rng.standard_normal((total, spec.dims[m]))
                    for m in range(modalities)]
        if multilabel:
            y = np.zeros((total, spec.classes))
            y[np.arange(total), labels] = 1.0
            labels = np.maximum(y, (label_rng.random((total, spec.classes))
                                    < spec.extra_label_rate).astype(float))
        full = MultimodalBatch(features=features,
                               presence=np.ones((total, modalities), bool),
                               labels=labels, multilabel=multilabel)
        bounds = np.cumsum([0, spec.n_train, spec.n_val, spec.n_test])
        for split, lo, hi in zip(generate(spec), bounds, bounds[1:]):
            ref = full.take(np.arange(lo, hi))
            assert split.multilabel is multilabel
            assert all(np.array_equal(a, b)
                       for a, b in zip(split.features, ref.features))
            assert np.array_equal(split.presence, ref.presence)
            assert np.array_equal(split.labels, ref.labels)

    @pytest.mark.parametrize("multilabel", [False, True])
    def test_splits_share_no_memory(self, multilabel):
        spec = SyntheticSpec(modalities=3, classes=4, dims=(5, 3, 2),
                             snr=(1.0, 1.0, 1.0), n_train=40, n_val=10,
                             n_test=20, seed=2, multilabel=multilabel)
        splits = generate(spec)
        arrays = [[*s.features, s.presence, s.labels] for s in splits]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert not any(np.shares_memory(a, b)
                           for a in arrays[i] for b in arrays[j])
        for i, split in enumerate(splits):
            others = [s for j, s in enumerate(splits) if j != i]
            before = [[f.copy() for f in s.features] for s in others]
            for f in split.features:
                f[...] = 7.0
            for s, saved in zip(others, before):
                assert all(np.array_equal(f, g)
                           for f, g in zip(s.features, saved))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(modalities=1, dims=(4,), snr=(1.0,))
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(4,))
        with pytest.raises(ValueError):
            SyntheticSpec(snr=(1.0, -1.0))
        with pytest.raises(ValueError):
            SyntheticSpec(classes=3, n_val=2)


class TestApplyMask:
    def _batch(self, n=6):
        rng = np.random.default_rng(40)
        return MultimodalBatch(
            features=[rng.standard_normal((n, 3)), rng.standard_normal((n, 2))],
            presence=np.ones((n, 2), dtype=bool),
            labels=np.zeros(n, dtype=np.int64))

    def test_full_keep_is_identity(self):
        batch = self._batch()
        out = apply_mask(batch, per_sample=np.ones((6, 2), dtype=bool))
        np.testing.assert_array_equal(out.features[0], batch.features[0])
        np.testing.assert_array_equal(out.presence, batch.presence)

    def test_drop_zeroes_features_and_presence(self):
        batch = self._batch()
        out = apply_mask(batch, per_sample=np.tile([True, False], (6, 1)))
        assert (out.features[1] == 0.0).all()
        assert not out.presence[:, 1].any()
        assert out.presence[:, 0].all()
        # original untouched
        assert not (batch.features[1] == 0.0).all()

    def test_idempotent(self):
        batch = self._batch()
        keep = np.tile([False, True], (6, 1))
        once = apply_mask(batch, per_sample=keep)
        twice = apply_mask(once, per_sample=keep)
        np.testing.assert_array_equal(once.features[0], twice.features[0])
        np.testing.assert_array_equal(once.presence, twice.presence)

    def test_cannot_drop_all(self):
        with pytest.raises(ValueError):
            apply_mask(self._batch(), per_sample=np.zeros((6, 2), dtype=bool))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            apply_mask(self._batch(), per_sample=np.ones((6, 3), dtype=bool))

    def test_rejects_emptied_sample(self):
        batch = self._batch(4)
        per_sample = np.ones((4, 2), dtype=bool)
        per_sample[2] = False
        with pytest.raises(ValueError):
            apply_mask(batch, per_sample=per_sample)

    def test_bernoulli_drop_rate_statistics(self):
        # resampling forbids empty rows, so the per-entry drop rate is only
        # near pi when (1-pi)^M is tiny; M=8 keeps 0.5 within +/-0.02
        rng = np.random.default_rng(41)
        n, m = 10_000, 8
        batch = MultimodalBatch(
            features=[np.ones((n, 2)) for _ in range(m)],
            presence=np.ones((n, m), dtype=bool),
            labels=np.zeros(n, dtype=np.int64))
        keep = bernoulli_mask(n, m, 0.5, rng)
        out = apply_mask(batch, per_sample=keep)
        drop_rate = 1.0 - out.presence.mean()
        assert abs(drop_rate - 0.5) < 0.02


class TestBernoulliMask:
    def test_pi_zero_all_true(self):
        keep = bernoulli_mask(50, 3, 0.0, np.random.default_rng(0))
        assert keep.all()

    def test_no_empty_rows_even_at_high_rate(self):
        keep = bernoulli_mask(10_000, 2, 0.9, np.random.default_rng(1))
        assert keep.any(axis=1).all()

    def test_kept_fraction_converges(self):
        # conditional per-entry keep rate is (1-pi)/(1-pi^M); M=5 at pi=0.3
        # gives 0.7017, inside the 0.70 +/- 0.01 budget
        keep = bernoulli_mask(100_000, 5, 0.3, np.random.default_rng(2))
        per_modality = keep.mean(axis=0)
        np.testing.assert_allclose(per_modality, 0.70, atol=0.01)

    @staticmethod
    def _full_recheck(n, m, pi, rng):
        """The loop that checks every row after each redraw, the reference
        for redrawing and checking only the rows left empty."""
        keep = rng.random((n, m)) >= pi
        for _ in range(10_000):
            empty = ~keep.any(axis=1)
            if not empty.any():
                return keep
            keep[empty] = rng.random((int(empty.sum()), m)) >= pi
        raise RuntimeError("resampling failed to produce non-empty rows")

    def test_same_draws_as_the_full_recheck(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n, m = int(rng.integers(1, 300)), int(rng.integers(2, 6))
            pi, seed = rng.uniform(0.0, 0.9), int(rng.integers(2**31))
            ref_rng, rng_ = (np.random.default_rng(seed) for _ in "ab")
            ref = self._full_recheck(n, m, pi, ref_rng)
            assert np.array_equal(bernoulli_mask(n, m, pi, rng_), ref)
            assert rng_.bit_generator.state == ref_rng.bit_generator.state

    def test_rate_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            bernoulli_mask(10, 2, 1.0, rng)
        with pytest.raises(ValueError):
            bernoulli_mask(10, 2, -0.1, rng)


class TestKeepObserved:
    def test_intersects_and_refills_emptied_rows(self):
        presence = np.array([[True, True], [True, False], [False, True],
                             [True, True]])
        keep = np.array([[True, False], [False, True], [False, True],
                         [False, False]])
        view, live = keep_observed(presence, keep)
        assert view.dtype == bool
        assert view.tolist() == [[True, False], [True, False], [False, True],
                                 [True, True]]
        assert live.tolist() == [True, False, True, False]

    def test_one_subset_row_broadcasts(self):
        presence = np.array([[True, True, False], [False, False, True]])
        view, live = keep_observed(presence, np.array([True, True, False]))
        assert view.tolist() == [[True, True, False], [False, False, True]]
        assert live.tolist() == [True, False]


class TestBatchValidation:
    def _parts(self, n=6):
        rng = np.random.default_rng(4)
        return [rng.normal(size=(n, 3)), rng.normal(size=(n, 2))]

    def test_integer_presence_rejected(self):
        # fit_norm would index rows 0 and 1 with it instead of masking
        presence = np.ones((6, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="presence is int64, not bool"):
            MultimodalBatch(features=self._parts(), presence=presence,
                            labels=np.zeros(6, dtype=np.int64))

    def test_rows_observing_nothing_rejected(self):
        # checked once, where a batch is built: no view, draw or variance
        # downstream meets a row with nothing observed
        presence = np.ones((6, 2), dtype=bool)
        presence[[1, 4], :] = False
        with pytest.raises(ValueError, match="2 of 6 rows observe no modality"):
            MultimodalBatch(features=self._parts(), presence=presence,
                            labels=np.zeros(6, dtype=np.int64))
        batch = MultimodalBatch(features=self._parts(),
                                presence=np.ones((6, 2), dtype=bool),
                                labels=np.zeros(6, dtype=np.int64))
        presence[[1, 4], 0] = True
        presence[3] = False
        with pytest.raises(ValueError, match="1 of 6 rows observe no"):
            replace(batch, presence=presence)  # as lambda_of's batch is made

    @pytest.mark.parametrize("multilabel,labels", [
        (False, np.zeros((6, 3))), (False, np.zeros((6, 1), dtype=np.int64)),
        (True, np.zeros(6)), (True, np.zeros((6, 3, 1)))])
    def test_label_shape_must_match_the_mode(self, multilabel, labels):
        with pytest.raises(ValueError, match="1-D exactly when single"):
            MultimodalBatch(features=self._parts(),
                            presence=np.ones((6, 2), dtype=bool),
                            labels=labels, multilabel=multilabel)
