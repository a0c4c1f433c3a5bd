"""Calibration, ranking metrics, inversion audit, and CSV formatting."""

import dataclasses

import numpy as np
import pytest

from entrofuse.data import keep_observed
from entrofuse.losses import cec_loss, cec_pairs, subset_confidences
from entrofuse.metrics import (CalibrationReport, audit_confidences,
                               confidence_correct, ece, ece_rows,
                               entropy_confidence_export, format_value,
                               inversion_audit, map_at_1, top1_accuracy,
                               write_csv)
from entrofuse.model import (FusionConfig, forward, forward_views,
                             predict_subset)
from entrofuse.rng import stream
from entrofuse.subsets import SubsetLattice, subset_lattice

from test_model import random_batch, random_model, random_presence


class TestEce:
    def test_hand_example_scores_exactly_point_four(self):
        # two bins, each holding half the mass with a 0.4 confidence gap
        conf = np.array([0.9, 0.9, 0.6, 0.6])
        correct = np.array([True, False, True, True])
        report = ece(conf, correct, bins=15)
        assert report.ece == 0.4

    def test_perfectly_confident_and_correct_scores_zero(self):
        report = ece(np.ones(10), np.ones(10, dtype=bool))
        assert report.ece == 0.0

    def test_perfectly_confident_and_wrong_scores_one(self):
        report = ece(np.ones(10), np.zeros(10, dtype=bool))
        assert report.ece == 1.0

    def test_calibrated_predictor_scores_below_two_percent(self):
        # correctness drawn with probability equal to the stated confidence
        rng = np.random.default_rng(0)
        conf = rng.uniform(0.0, 1.0, size=10_000)
        correct = rng.random(10_000) < conf
        report = ece(conf, correct, bins=15)
        assert report.ece < 0.02

    def test_score_is_permutation_invariant(self):
        rng = np.random.default_rng(1)
        conf = rng.uniform(0.0, 1.0, size=200)
        correct = rng.random(200) < 0.7
        perm = rng.permutation(200)
        a = ece(conf, correct).ece
        b = ece(conf[perm], correct[perm]).ece
        assert a == b

    def test_counts_cover_every_sample(self):
        rng = np.random.default_rng(2)
        conf = rng.uniform(0.0, 1.0, size=137)
        correct = rng.random(137) < 0.5
        report = ece(conf, correct, bins=15)
        assert report.counts.sum() == 137
        assert report.n == 137
        assert report.bin_edges.shape == (16,)

    def test_bins_are_left_closed_and_last_closed_at_one(self):
        # 1/15 lands in bin 1; exact 1.0 stays in bin 14
        report = ece(np.array([1.0 / 15.0, 1.0]), np.array([True, True]), bins=15)
        assert report.counts[1] == 1
        assert report.counts[14] == 1
        assert report.counts[0] == 0

    def test_empty_bins_contribute_nothing(self):
        # all mass in one bin: score is that bin's gap alone
        conf = np.full(8, 0.52)
        correct = np.array([True] * 4 + [False] * 4)
        report = ece(conf, correct, bins=15)
        np.testing.assert_allclose(report.ece, abs(0.5 - 0.52), rtol=0, atol=1e-15)
        assert (report.counts > 0).sum() == 1

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            conf = rng.uniform(0.0, 1.0, size=64)
            correct = rng.random(64) < conf
            bins = 15
            score = 0.0
            for k in range(bins):
                lo, hi = k / bins, (k + 1) / bins
                sel = ((conf >= lo) & (conf < hi)) | ((k == bins - 1) & (conf == 1.0))
                if sel.any():
                    score += sel.mean() * abs(correct[sel].mean() - conf[sel].mean())
            np.testing.assert_allclose(ece(conf, correct, bins=bins).ece, score,
                                       rtol=0, atol=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ece(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            ece(np.array([0.5, 0.5]), np.array([True]))
        with pytest.raises(ValueError):
            ece(np.array([1.2]), np.array([True]))
        with pytest.raises(ValueError):
            ece(np.array([-0.1]), np.array([True]))
        with pytest.raises(ValueError):
            ece(np.array([0.5]), np.array([True]), bins=0)

    def test_nan_confidence_rejected_with_range_message(self):
        with pytest.raises(ValueError, match=r"confidences must lie in \[0, 1\]"):
            ece(np.array([0.5, np.nan]), np.array([True, False]))


def one_view_ece(conf, correct, bins=15):
    """``ece`` as it binned one view on its own, before ``ece_rows``."""
    idx = np.minimum((conf * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    acc_sum = np.bincount(idx, weights=correct.astype(np.float64),
                          minlength=bins)
    nonempty = counts > 0
    mean_conf, accuracy = np.zeros(bins), np.zeros(bins)
    mean_conf[nonempty] = conf_sum[nonempty] / counts[nonempty]
    accuracy[nonempty] = acc_sum[nonempty] / counts[nonempty]
    score = float(np.sum(counts[nonempty] / conf.size
                         * np.abs(accuracy[nonempty] - mean_conf[nonempty])))
    return CalibrationReport(
        bin_edges=np.linspace(0.0, 1.0, bins + 1), counts=counts,
        mean_confidence=mean_conf, accuracy=accuracy, ece=score, n=conf.size)


class TestEceRows:
    """``ece_rows`` bins every row of a [V, n] table in one pass; each
    row's report must be ``ece``'s on that row alone, field by field, and
    both the one-view binning ``ece`` did before."""

    @staticmethod
    def _assert_rows_are_ece(conf, correct):
        reports = ece_rows(conf, correct)
        assert len(reports) == len(conf)
        for report, c, k in zip(reports, conf, correct):
            for want in (ece(c, k), one_view_ece(c, k)):
                for field in dataclasses.fields(CalibrationReport):
                    assert np.array_equal(getattr(report, field.name),
                                          getattr(want, field.name)), field

    def test_each_row_is_its_own_ece(self):
        rng = np.random.default_rng(41)
        conf = rng.random((21, 300))
        conf[0, :5] = 0.0
        conf[1, :5] = 1.0  # the last bin is closed at 1
        conf[2] = rng.uniform(7 / 15, 8 / 15, size=300)  # one bin only
        conf[3] = conf[3].round(1)  # rows on the bin edges
        correct = rng.random(conf.shape) < conf
        correct[4] = False
        correct[5] = True
        self._assert_rows_are_ece(conf, correct)

    def test_rows_with_empty_bins(self):
        # each score sums its own nonempty bins: NumPy's sum rounds by the
        # number of terms, so a sum over all 15 bins, zeros included, would
        # differ in the last bits
        rng = np.random.default_rng(43)
        bins = np.array([rng.choice(15, size=rng.integers(2, 15),
                                    replace=False) for _ in range(200)],
                        dtype=object)
        conf = np.array([(rng.choice(b, size=60) + rng.random(60)) / 15
                         for b in bins])
        self._assert_rows_are_ece(conf, rng.random(conf.shape) < conf)

    def test_one_row_views(self):
        rng = np.random.default_rng(42)
        conf = np.concatenate([[[0.0], [1.0]], rng.random((6, 1))])
        self._assert_rows_are_ece(conf, rng.random(conf.shape) < 0.5)

    def test_no_views_and_no_rows(self):
        assert ece_rows(np.zeros((0, 4)), np.zeros((0, 4), dtype=bool)) == []
        with pytest.raises(ValueError, match="at least one prediction"):
            ece_rows(np.zeros((3, 0)), np.zeros((3, 0), dtype=bool))


class TestConfidenceCorrect:
    def test_single_label_is_the_forward_confidence(self):
        rng = np.random.default_rng(4)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=5, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 40, cfg.dims, cfg.classes)
        out = forward(model, batch)
        conf, correct = confidence_correct(out.logits.data, batch.labels)
        assert np.array_equal(conf, out.confidence.data)
        assert np.array_equal(
            correct, out.logits.data.argmax(axis=1) == batch.labels)

    def test_multilabel_uses_the_two_branch_sigmoid(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(scale=3.0, size=(50, 4))
        labels = (rng.random((50, 4)) < 0.4).astype(np.float64)
        conf, correct = confidence_correct(logits, labels)
        e = np.exp(-np.abs(logits))
        probs = np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(conf, probs.max(axis=1))
        top = probs.argmax(axis=1)
        assert np.array_equal(correct, labels[np.arange(50), top] == 1.0)

    def test_near_tie_goes_to_the_logit_argmax(self):
        # the tempered probabilities of 0 and 1e-17 round equal, so their
        # argmax would pick index 0; the logits' argmax picks the larger one
        logits = np.array([[0.0, 1e-17], [1e-17, 0.0], [0.0, 0.0]])
        labels = np.array([1, 0, 1])
        for t in (1.0, 2.5):
            conf, correct = confidence_correct(logits, labels, t)
            assert np.array_equal(conf, [0.5, 0.5, 0.5])
            assert correct.tolist() == [True, True, False]
            assert correct.mean() == top1_accuracy(logits, labels)
            _, correct = confidence_correct(logits, np.eye(2)[labels], t)
            assert correct.tolist() == [True, True, False]

    def test_temperature_divides_the_logits(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(scale=2.0, size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        for multilabel in (False, True):
            if multilabel:
                labels = (rng.random((20, 3)) < 0.5).astype(np.float64)
            hot = confidence_correct(logits, labels, 2.5)
            plain = confidence_correct(logits / 2.5, labels)
            assert all(np.array_equal(a, b) for a, b in zip(hot, plain))


class TestMapAt1:
    def test_perfect_predictor_scores_one(self):
        labels = np.eye(3)[[0, 1, 2, 0]]
        logits = labels * 10.0
        assert map_at_1(logits, labels) == 1.0

    def test_matches_enumeration_oracle(self):
        # top-1 picks per sample: [0, 0, 1, 2, 2, 0]
        logits = np.array([
            [3.0, 1.0, 0.0],
            [2.0, 1.0, 1.0],
            [0.0, 4.0, 1.0],
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 5.0],
            [9.0, 2.0, 3.0],
        ])
        labels = np.array([
            [1, 0, 0],
            [0, 1, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 1],
            [0, 1, 0],
        ], dtype=np.float64)
        # class 0 predicted 3x with hits [1, 0, 0]; class 1 once, hit;
        # class 2 twice with hits [1, 1]
        expected = np.mean([1.0 / 3.0, 1.0, 1.0])
        np.testing.assert_allclose(map_at_1(logits, labels), expected,
                                   rtol=0, atol=1e-15)

    def test_never_predicted_class_is_excluded(self):
        logits = np.array([[5.0, 0.0, 0.0], [4.0, 1.0, 0.0]])
        labels = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.float64)
        assert map_at_1(logits, labels) == 0.5  # only class 0 enters

    def test_per_row_shift_leaves_score_unchanged(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(20, 4))
        labels = (rng.random((20, 4)) < 0.4).astype(np.float64)
        shifted = logits + rng.normal(size=(20, 1))
        assert map_at_1(logits, labels) == map_at_1(shifted, labels)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            map_at_1(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            map_at_1(np.zeros((0, 3)), np.zeros((0, 3)))


class TestTop1Accuracy:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(40, 5))
        labels = rng.integers(0, 5, size=40)
        hits = sum(int(np.argmax(logits[i]) == labels[i]) for i in range(40))
        assert top1_accuracy(logits, labels) == hits / 40

    def test_ties_resolve_to_lowest_index(self):
        logits = np.zeros((3, 4))
        assert top1_accuracy(logits, np.array([0, 0, 0])) == 1.0
        assert top1_accuracy(logits, np.array([1, 2, 3])) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros((0, 3)), np.zeros(0))


class TestInversionAudit:
    def test_constant_confidence_has_no_inversions(self):
        # zero projections make every subset prediction identical
        rng = np.random.default_rng(7)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        for w in model.proj:
            w[...] = 0.0
        batch = random_batch(rng, 12, cfg.dims, cfg.classes)
        audit = inversion_audit(model, batch)
        assert audit.total_count == 0
        assert audit.rate == 0.0
        assert (audit.mean_violation == 0.0).all()

    def test_counts_match_brute_force_recomputation(self):
        rng = np.random.default_rng(8)
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 16, cfg.dims, cfg.classes)
        audit = inversion_audit(model, batch)
        lattice = subset_lattice(3)
        assert np.array_equal(audit.subsets, lattice.subsets)
        assert np.array_equal(audit.pairs, lattice.pairs)
        for i, (small, big) in enumerate(lattice.pairs):
            cs, cb = (predict_subset(model, batch, audit.subsets[k])
                      .confidence.data for k in (small, big))
            assert audit.counts[i] == int((cs > cb).sum())
            np.testing.assert_allclose(audit.mean_violation[i],
                                       np.maximum(cs - cb, 0.0).mean(),
                                       rtol=0, atol=1e-15)
        assert audit.n == 16

    @pytest.mark.parametrize("m", [2, 3, 5, 6])
    def test_zero_audit_count_iff_zero_consistency_loss(self, m):
        # the hinge loss and the audit agree on "no violations", over the
        # full lattice up to 4 modalities and a sampled one beyond
        def audit_and_cec(model, batch):
            conf = subset_confidences(model, batch, lattice)
            return (audit_confidences(conf, lattice),
                    cec_loss(conf, lattice.pairs)[0])

        rng = np.random.default_rng(9)
        cfg = FusionConfig(modalities=m, dims=(4, 3, 4, 2, 3, 4)[:m],
                           classes=3, fused_dim=4)
        lattice = cec_pairs(m, stream(m, "pairs"), 8)
        zero_model = random_model(rng, cfg)
        for w in zero_model.proj:
            w[...] = 0.0
        batch = random_batch(rng, 10, cfg.dims, cfg.classes)
        audit, loss = audit_and_cec(zero_model, batch)
        assert loss == 0.0 and audit.total_count == 0
        if m <= 4:
            assert inversion_audit(zero_model, batch).total_count == 0

        live_model = random_model(np.random.default_rng(10), cfg)
        audit, loss = audit_and_cec(live_model, batch)
        assert (loss > 0.0) == (audit.total_count > 0)
        assert audit.total_count > 0  # random weights do violate somewhere
        if m <= 4:
            assert np.array_equal(inversion_audit(live_model, batch).counts,
                                  audit.counts)

    def test_rate_normalizes_by_samples_and_pairs(self):
        rng = np.random.default_rng(11)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 10, cfg.dims, cfg.classes)
        audit = inversion_audit(model, batch)
        assert audit.rate == audit.total_count / (10 * 2)

    def test_more_than_four_modalities_rejected(self):
        rng = np.random.default_rng(12)
        cfg = FusionConfig(modalities=5, dims=(2,) * 5, classes=2, fused_dim=3)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        with pytest.raises(ValueError):
            inversion_audit(model, batch)


def per_row_audit(model, batch, lattice):
    """Inversion counts, mean violations and counted rows per pair, one row
    at a time: row i counts for pair (A, B) when A meets its presence, and
    each confidence is a ``forward`` of that row alone through its view."""
    counts = np.zeros(len(lattice.pairs), dtype=np.int64)
    rows = np.zeros(len(lattice.pairs), dtype=np.int64)
    violation = np.zeros(len(lattice.pairs))
    for i in range(batch.n):
        row = batch.take(np.array([i]))
        conf = [forward(model, row, (s & row.presence)[None])
                .confidence.data[0] if (s & row.presence).any() else None
                for s in lattice.subsets]
        for k, (small, big) in enumerate(lattice.pairs):
            if conf[small] is not None:
                gap = conf[small] - conf[big]
                rows[k] += 1
                counts[k] += gap > 0.0
                violation[k] += max(gap, 0.0)
    return counts, violation / np.maximum(rows, 1), rows


class TestPartialPresenceAudit:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_per_row_reference(self, m):
        # rows missing modalities: a pair counts only where its small
        # subset meets the row's presence, and views never empty a row
        for k in range(3):
            rng = np.random.default_rng([70, m, k])
            cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5)[:m],
                               classes=4, fused_dim=5)
            model = random_model(rng, cfg)
            presence = random_presence(rng, 25, m)
            batch = random_batch(rng, 25, cfg.dims, cfg.classes, presence)
            audit = inversion_audit(model, batch)
            counts, violation, rows = per_row_audit(model, batch,
                                                    subset_lattice(m))
            assert (rows < batch.n).any() and (rows > 0).all()
            assert np.array_equal(audit.rows, rows)
            assert np.array_equal(audit.counts, counts)
            np.testing.assert_allclose(audit.mean_violation, violation,
                                       rtol=0, atol=1e-12)
            assert audit.rate == audit.total_count / rows.sum()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_full_presence_counts_every_row_as_before(self, m):
        rng = np.random.default_rng(80 + m)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5)[:m], classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 30, cfg.dims, cfg.classes)
        lattice = subset_lattice(m)
        passes, index = forward_views(model, batch, keep_observed(
            batch.presence, lattice.subsets[:, None])[0])
        conf = passes.confidence.data[index]
        audit = inversion_audit(model, batch)
        plain = audit_confidences(conf, lattice)
        assert (audit.rows == batch.n).all()
        assert np.array_equal(audit.counts, plain.counts)
        assert np.array_equal(audit.mean_violation, plain.mean_violation)
        assert audit.rate == plain.rate == (
            plain.total_count / (batch.n * len(lattice.pairs)))

    def test_pair_no_row_meets_counts_nothing(self):
        # every row observes only modality 1: the pair ({0}, {0,1}) has no
        # row to count on
        lattice = TestAuditConfidences.M2
        conf = np.array([[0.9, 0.2], [0.1, 0.3], [0.5, 0.1]])
        presence = np.array([[False, True], [False, True]])
        audit = audit_confidences(conf, lattice, presence)
        assert audit.rows.tolist() == [0, 2]
        assert audit.counts.tolist() == [0, 1]
        np.testing.assert_allclose(audit.mean_violation, [0.0, 0.1],
                                   rtol=0, atol=1e-15)
        assert audit.rate == 0.5


def per_pair_audit(conf, pairs):
    """Inversion counts and mean violations one pair at a time, as the
    audit computed them over confidences keyed by subset."""
    counts = np.zeros(len(pairs), dtype=np.int64)
    violation = np.zeros(len(pairs))
    for i, (small, big) in enumerate(pairs):
        gap = conf[small] - conf[big]
        counts[i] = int((gap > 0.0).sum())
        violation[i] = float(np.maximum(gap, 0.0).mean())
    return counts, violation


class TestAuditConfidences:
    def test_matches_model_audit(self):
        rng = np.random.default_rng(30)
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 14, cfg.dims, cfg.classes)
        lattice = subset_lattice(3)
        passes, index = forward_views(model, batch, keep_observed(
            batch.presence, lattice.subsets[:, None])[0])
        direct = audit_confidences(passes.confidence.data[index], lattice)
        via_model = inversion_audit(model, batch)
        assert np.array_equal(direct.pairs, via_model.pairs)
        assert (direct.counts == via_model.counts).all()
        np.testing.assert_allclose(direct.mean_violation,
                                   via_model.mean_violation, rtol=0, atol=0)
        assert direct.n == via_model.n == 14

    # subsets {0}, {1}, {0,1} and the pairs ({0},{0,1}), ({1},{0,1})
    M2 = SubsetLattice([[True, False], [False, True], [True, True]],
                       [[0, 2], [1, 2]])

    def test_counts_constructed_lattice(self):
        conf = np.array([[0.9, 0.2, 0.5],   # {0}
                         [0.1, 0.1, 0.5],   # {1}
                         [0.5, 0.3, 0.5]])  # {0,1}
        audit = audit_confidences(conf, self.M2)
        # pair ({0},{0,1}) violated once; ties never count
        assert audit.counts.tolist() == [1, 0]
        assert audit.total_count == 1
        assert audit.n == 3
        np.testing.assert_allclose(audit.mean_violation, [0.4 / 3, 0.0],
                                   rtol=0, atol=1e-15)

    def test_missing_subset_rejected(self):
        with pytest.raises(ValueError, match=r"need \[3, n\]"):
            audit_confidences(np.zeros((2, 3)), self.M2)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SubsetLattice(self.M2.subsets, np.zeros((0, 2), dtype=np.int64))

    def test_one_confidence_vector_or_no_sample_rejected(self):
        for conf in (np.zeros(3), np.zeros((3, 0))):
            with pytest.raises(ValueError, match=r"need \[3, n\]"):
                audit_confidences(conf, self.M2)

    @pytest.mark.parametrize("m,n", [(2, 9), (3, 7), (4, 300), (5, 1000),
                                     (6, 129)])
    def test_matches_per_pair_loop_bit_for_bit(self, m, n):
        # ties and all-zero gaps included: some columns hold one value on
        # every subset, some rows repeat another row, and the free values
        # spread over decades so the summation order shows in the last bits
        rng = np.random.default_rng([60, m, n])
        lattice = cec_pairs(m, stream(m, "pairs"), 8)
        s = len(lattice.subsets)
        conf = (rng.uniform(0.3, 1.0, size=(s, n))
                * 10.0 ** rng.integers(-3, 1, size=(s, n)))
        conf[:, rng.random(n) < 0.3] = 0.5
        conf[lattice.pairs[0, 1]] = conf[lattice.pairs[0, 0]]
        counts, violation = per_pair_audit(conf, lattice.pairs)
        gaps = conf[lattice.pairs[:, 0]] - conf[lattice.pairs[:, 1]]
        assert (gaps == 0.0).all(axis=1).any() and (gaps > 0.0).any()
        audit = audit_confidences(conf, lattice)
        assert np.array_equal(audit.counts, counts)
        assert np.array_equal(audit.mean_violation, violation)
        assert audit.counts.dtype == counts.dtype


class TestEntropyConfidenceExport:
    def test_columns_are_forward_outputs(self):
        rng = np.random.default_rng(13)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 9, cfg.dims, cfg.classes)
        out = forward(model, batch)
        rows = entropy_confidence_export(out)
        assert rows.shape == (9, 2)
        assert (rows[:, 0] == out.gate_entropy).all()
        assert (rows[:, 1] == out.confidence.data).all()

    def test_single_observed_modality_exports_zero_entropy(self):
        rng = np.random.default_rng(14)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        presence = np.tile([True, False], (6, 1))
        batch = random_batch(rng, 6, cfg.dims, cfg.classes, presence)
        rows = entropy_confidence_export(forward(model, batch))
        assert (rows[:, 0] == 0.0).all()


class TestCsvFormatting:
    def test_float_cells_round_trip(self):
        rng = np.random.default_rng(15)
        for x in rng.normal(size=20) * 10.0 ** rng.integers(-8, 8, size=20):
            assert float(format_value(float(x))) == float(x)

    def test_value_kinds(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(np.int64(7)) == "7"
        assert format_value(0.5) == "0.5"
        assert format_value("tag") == "tag"

    def test_write_csv_bytes_are_deterministic(self, tmp_path):
        header = ["epoch", "loss"]
        rows = [[1, 0.25], [2, 1.0 / 3.0]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, header, rows)
        write_csv(b, header, rows)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text().splitlines()
        assert text[0] == "epoch,loss"
        assert text[1] == "1,0.25"
        assert float(text[2].split(",")[1]) == 1.0 / 3.0

    def test_write_csv_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.csv"
        write_csv(path, ["x"], [[1.5]])
        assert path.read_text() == "x\n1.5\n"
