"""Seeded streams, modality subsets, synthetic data, masking, dataset IO."""

import numpy as np
import pytest

from entrofuse.data import (MultimodalBatch, SyntheticSpec, apply_mask,
                            bernoulli_mask, generate, load_dataset,
                            save_dataset, stack_views)
from entrofuse.rng import stream
from entrofuse.subsets import SubsetMask, nonempty_subsets, subset_lattice


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


class TestSubsetMask:
    def test_from_indices_and_str(self):
        s = SubsetMask.from_indices(3, [0, 2])
        assert s.bits == (True, False, True)
        assert s.count == 2
        assert s.indices() == (0, 2)
        assert str(s) == "{0,2}"

    def test_from_indices_validates(self):
        with pytest.raises(ValueError):
            SubsetMask.from_indices(2, [2])
        with pytest.raises(ValueError):
            SubsetMask.from_indices(2, [-1])

    def test_complement(self):
        s = SubsetMask.from_indices(3, [1])
        assert s.complement().bits == (True, False, True)
        assert s.complement().complement() == s

    def test_strict_subset_truth_table(self):
        a = SubsetMask.from_indices(3, [0])
        ab = SubsetMask.from_indices(3, [0, 1])
        c = SubsetMask.from_indices(3, [2])
        assert a.is_strict_subset_of(ab)
        assert not ab.is_strict_subset_of(a)
        assert not a.is_strict_subset_of(a)
        assert not c.is_strict_subset_of(ab)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            SubsetMask.from_indices(2, [0]).is_strict_subset_of(
                SubsetMask.from_indices(3, [0, 1]))


class TestLattice:
    def test_nonempty_subsets_count_and_order(self):
        for m in range(2, 6):
            subs = nonempty_subsets(m)
            assert len(subs) == 2 ** m - 1
            sizes = [s.count for s in subs]
            assert sizes == sorted(sizes)

    def test_m2_has_exactly_two_pairs(self):
        pairs = subset_lattice(2)
        assert len(pairs) == 2
        rendered = {(str(a), str(b)) for a, b in pairs}
        assert rendered == {("{0}", "{0,1}"), ("{1}", "{0,1}")}

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
            pairs = subset_lattice(m)
            assert len(pairs) == len(oracle)
            got = {(frozenset(a.indices()), frozenset(b.indices()))
                   for a, b in pairs}
            assert got == set(oracle)

    def test_counts_follow_closed_form(self):
        # sum over nonempty A of (2^(M-|A|) - 1) strict supersets
        import math
        for m in (2, 3, 4, 5):
            expected = sum(math.comb(m, k) * (2 ** (m - k) - 1)
                           for k in range(1, m + 1))
            assert len(subset_lattice(m)) == expected

    def test_every_pair_strict(self):
        for a, b in subset_lattice(3):
            assert a.is_strict_subset_of(b)

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

    def test_empty_drop_is_identity(self):
        batch = self._batch()
        out = apply_mask(batch, drop=SubsetMask.empty(2))
        np.testing.assert_array_equal(out.features[0], batch.features[0])
        np.testing.assert_array_equal(out.presence, batch.presence)

    def test_drop_zeroes_features_and_presence(self):
        batch = self._batch()
        out = apply_mask(batch, drop=SubsetMask.from_indices(2, [1]))
        assert (out.features[1] == 0.0).all()
        assert not out.presence[:, 1].any()
        assert out.presence[:, 0].all()
        # original untouched
        assert not (batch.features[1] == 0.0).all()

    def test_idempotent(self):
        batch = self._batch()
        drop = SubsetMask.from_indices(2, [0])
        once = apply_mask(batch, drop=drop)
        twice = apply_mask(once, drop=drop)
        np.testing.assert_array_equal(once.features[0], twice.features[0])
        np.testing.assert_array_equal(once.presence, twice.presence)

    def test_cannot_drop_all(self):
        with pytest.raises(ValueError):
            apply_mask(self._batch(), drop=SubsetMask.full(2))

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


class TestStackViews:
    def _batch(self, rng, n, presence=None):
        dims = (3, 2, 4)
        if presence is None:
            presence = np.ones((n, 3), dtype=bool)
        feats = [rng.standard_normal((n, d)) * presence[:, m:m + 1]
                 for m, d in enumerate(dims)]
        return MultimodalBatch(features=feats, presence=presence,
                               labels=rng.integers(0, 4, size=n))

    def test_blocks_equal_apply_mask_of_the_complement(self):
        rng = np.random.default_rng(60)
        batch = self._batch(rng, 5)
        head = self._batch(rng, 3)
        subsets = nonempty_subsets(3)
        out = stack_views(batch, subsets, head=head)
        assert out.n == 3 + 5 * len(subsets)
        for m in range(3):
            np.testing.assert_array_equal(out.features[m][:3], head.features[m])
        np.testing.assert_array_equal(out.presence[:3], head.presence)
        np.testing.assert_array_equal(out.labels[:3], head.labels)
        for i, subset in enumerate(subsets):
            rows = slice(3 + 5 * i, 3 + 5 * (i + 1))
            ref = apply_mask(batch, drop=subset.complement())
            for m in range(3):
                np.testing.assert_array_equal(out.features[m][rows],
                                              ref.features[m])
            np.testing.assert_array_equal(out.presence[rows], ref.presence)
            np.testing.assert_array_equal(out.labels[rows], batch.labels)

    def test_views_respect_missing_inputs(self):
        rng = np.random.default_rng(61)
        presence = rng.random((8, 3)) < 0.6
        presence[~presence.any(axis=1), 2] = True
        batch = self._batch(rng, 8, presence)
        subsets = nonempty_subsets(3)
        out = stack_views(batch, subsets)
        for i, subset in enumerate(subsets):
            rows = slice(8 * i, 8 * (i + 1))
            keep = presence & np.array(subset.bits)
            np.testing.assert_array_equal(out.presence[rows], keep)
            for m in range(3):
                want = np.where(keep[:, m:m + 1], batch.features[m], 0.0)
                np.testing.assert_array_equal(out.features[m][rows], want)

    def test_invalid_subsets_and_heads_rejected(self):
        rng = np.random.default_rng(62)
        batch = self._batch(rng, 4)
        with pytest.raises(ValueError):
            stack_views(batch, [])
        with pytest.raises(ValueError):
            stack_views(batch, [SubsetMask.empty(3)])
        with pytest.raises(ValueError):
            stack_views(batch, [SubsetMask.full(2)])
        other = MultimodalBatch(
            features=[np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 5))],
            presence=np.ones((2, 3), dtype=bool),
            labels=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            stack_views(batch, [SubsetMask.full(3)], head=other)


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

    def test_rate_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            bernoulli_mask(10, 2, 1.0, rng)
        with pytest.raises(ValueError):
            bernoulli_mask(10, 2, -0.1, rng)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(modalities=2, classes=4, dims=(5, 3),
                             snr=(10.0, 2.0), n_train=40, n_val=8, n_test=8,
                             seed=11)
        train, val, test = generate(spec)
        path = tmp_path / "ds.bin"
        save_dataset(path, train, val, test, classes=4)
        r_train, r_val, r_test, classes = load_dataset(path)
        assert classes == 4
        for orig, loaded in zip((train, val, test), (r_train, r_val, r_test)):
            for f_o, f_l in zip(orig.features, loaded.features):
                np.testing.assert_array_equal(f_o, f_l)
            np.testing.assert_array_equal(orig.presence, loaded.presence)
            np.testing.assert_array_equal(orig.labels, loaded.labels)

    def test_multilabel_round_trip(self, tmp_path):
        spec = SyntheticSpec(modalities=2, classes=3, dims=(4, 4),
                             snr=(5.0, 5.0), n_train=30, n_val=6, n_test=6,
                             seed=12, multilabel=True)
        train, val, test = generate(spec)
        path = tmp_path / "ml.bin"
        save_dataset(path, train, val, test, classes=3)
        r_train, _, _, _ = load_dataset(path)
        assert r_train.multilabel
        np.testing.assert_array_equal(train.labels, r_train.labels)

    def test_byte_deterministic(self, tmp_path):
        spec = SyntheticSpec(classes=5, n_train=20, n_val=5, n_test=5, seed=13)
        train, val, test = generate(spec)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(p1, train, val, test, classes=5)
        save_dataset(p2, train, val, test, classes=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_truncated_rejected(self, tmp_path):
        spec = SyntheticSpec(classes=5, n_train=20, n_val=5, n_test=5, seed=14)
        train, val, test = generate(spec)
        path = tmp_path / "t.bin"
        save_dataset(path, train, val, test, classes=5)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            load_dataset(path)
