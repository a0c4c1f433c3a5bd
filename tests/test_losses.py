"""Composite objective: task term, entropy penalty, consistency hinge, and
their hand-derived gradients against the op chain they replaced."""

from itertools import combinations

import numpy as np
import pytest

import entrofuse.data as data_module
import entrofuse.losses as losses_module
import entrofuse.tensor as T
from entrofuse.data import bernoulli_mask, keep_observed
from entrofuse.losses import (cec_loss, cec_pairs, composite_loss, step_loss,
                              subset_confidences)
from entrofuse.metrics import audit_confidences
from entrofuse.model import (FusionConfig, class_probs, forward,
                             forward_pullback)
from entrofuse.rng import stream
from entrofuse.subsets import SubsetLattice, subset_lattice
from entrofuse.trainer import train

import reference_chain as R
from test_model import (frozen_gate_model, random_batch, random_model,
                        random_presence)
from test_trainer import small_cfg, small_data
from test_views import reference_forward


def composed(bd):
    """The breakdown's invariant: task + lam * ent + gamma * cec."""
    return bd.task + bd.lam * bd.ent + bd.gamma * bd.cec


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def terms(logits, labels, p=None, lam=0.0):
    """Breakdown of the objective with the consistency term off; the gate
    weights default to uniform rows over 3 modalities."""
    if p is None:
        p = np.full((len(logits), 3), 1.0 / 3.0)
    return composite_loss(logits, p, labels, lam=lam, gamma=0.0)[0]


def loss_node(logits, p, labels, **kw):
    """``composite_loss`` of the tensors ``logits`` and ``p`` as one tape
    node with its gradients, for ``grad_check``."""
    bd, g_logits, g_p = composite_loss(logits.data, p.data, labels, **kw)
    return R.scalar_node(bd.total, (logits, p), (g_logits, g_p))


class TestTaskLoss:
    def test_confident_correct_prediction_costs_almost_nothing(self):
        # margin of 100 logits on the true class
        logits = np.zeros((4, 5))
        labels = np.array([0, 2, 4, 1])
        logits[np.arange(4), labels] = 100.0
        assert terms(logits, labels).task < 1e-6

    def test_uniform_logits_cost_log_num_classes(self):
        labels = np.arange(7) % 10
        np.testing.assert_allclose(terms(np.zeros((7, 10)), labels).task,
                                   np.log(10.0), rtol=0, atol=1e-12)

    def test_matches_scalar_recomputation(self):
        for k in range(5):
            rng = np.random.default_rng(k)
            logits = rng.normal(size=(4, 3)) * 3.0
            labels = rng.integers(0, 3, size=4)
            probs = softmax_rows(logits)
            expected = -np.mean([np.log(probs[i, labels[i]]) for i in range(4)])
            np.testing.assert_allclose(terms(logits, labels).task, expected,
                                       rtol=0, atol=1e-12)

    def test_multilabel_matches_elementwise_bce(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 4)) * 2.0
        targets = (rng.random((6, 4)) < 0.4).astype(np.float64)
        z, y = logits, targets
        expected = np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))))
        np.testing.assert_allclose(
            terms(logits, targets).task, expected, rtol=0,
            atol=1e-12)

    def test_label_out_of_range_rejected(self):
        for labels in ([0, 3], [0, -1], [[0, 1]]):
            with pytest.raises(ValueError):
                terms(np.zeros((2, 3)), np.array(labels))
        with pytest.raises(ValueError):
            terms(np.zeros((2, 3)), np.zeros((2, 2)))


class TestEntropyPenalty:
    def test_uniform_rows_give_negative_log_m(self):
        for m in (2, 4):
            bd = terms(np.zeros((5, 3)), np.zeros(5, dtype=int),
                       p=np.full((5, m), 1.0 / m))
            np.testing.assert_allclose(bd.ent, -np.log(m), rtol=0, atol=1e-12)

    def test_one_hot_rows_give_zero(self):
        p = np.zeros((4, 3))
        p[np.arange(4), [0, 2, 1, 0]] = 1.0
        assert terms(np.zeros((4, 3)), np.zeros(4, dtype=int), p=p).ent == 0.0

    def test_value_is_negative_mean_entropy(self):
        rng = np.random.default_rng(3)
        p = softmax_rows(rng.normal(size=(8, 3)))
        ent = -(p * np.log(p)).sum(axis=1)
        for lam in (0.0, 0.3):
            bd = terms(np.zeros((8, 3)), np.zeros(8, dtype=int), p=p, lam=lam)
            np.testing.assert_allclose(bd.ent, -ent.mean(), rtol=0, atol=1e-12)

    def test_gradient_matches_central_differences(self):
        for k in range(5):
            rng = np.random.default_rng(40 + k)
            logits = T.Tensor(rng.normal(size=(4, 3)))
            labels = rng.integers(0, 3, size=4)
            x = T.Tensor(rng.uniform(0.05, 1.0, size=(4, 3)))
            err = R.grad_check(lambda t: loss_node(
                logits, t, labels, lam=1.0, gamma=0.0), x)
            assert err < 1e-6


def nested_pairs(m):
    """The strict-inclusion pairs as tuples of member flags, by a nested
    loop over the nonempty subsets in size-then-lexicographic order (outer
    loop the small side): the enumeration the lattice's pair order keeps."""
    subsets = [tuple(i in combo for i in range(m)) for k in range(1, m + 1)
               for combo in combinations(range(m), k)]
    return [(a, b) for a in subsets for b in subsets
            if a != b and all(y or not x for x, y in zip(a, b))]


def first_mention(pairs):
    """[S, M] subset rows in order of first mention by ``pairs``, and the
    pairs as [P, 2] indices into them."""
    first = {}
    index = [[first.setdefault(s, len(first)) for s in pair] for pair in pairs]
    return np.array(list(first), dtype=bool), np.array(index)


class TestCecPairs:
    def test_small_counts_are_exhaustive(self):
        for m in (2, 3, 4):
            got, want = cec_pairs(m), subset_lattice(m)
            assert np.array_equal(got.subsets, want.subsets)
            assert np.array_equal(got.pairs, want.pairs)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_lattice_keeps_the_nested_order_and_first_mention(self, m):
        subsets, index = first_mention(nested_pairs(m))
        lattice = subset_lattice(m)
        assert np.array_equal(lattice.subsets, subsets)
        assert np.array_equal(lattice.pairs, index)

    @pytest.mark.parametrize("m", [5, 6, 7])
    @pytest.mark.parametrize("seed", [0, 1, 4, 9])
    def test_sampled_pairs_keep_the_draw_and_first_mention(self, m, seed):
        # the same rng.choice draw over the nested order, sorted, with the
        # subsets the sample mentions renumbered in first-mention order
        pairs = nested_pairs(m)
        chosen = stream(seed, "pairs").choice(len(pairs), size=8,
                                              replace=False)
        subsets, index = first_mention([pairs[i] for i in sorted(chosen)])
        lattice = cec_pairs(m, stream(seed, "pairs"), 8)
        assert np.array_equal(lattice.subsets, subsets)
        assert np.array_equal(lattice.pairs, index)

    def test_large_modality_counts_are_sampled(self):
        rng = np.random.default_rng(0)
        lattice = cec_pairs(5, rng=rng, limit=8)
        assert len(lattice.pairs) == 8
        got = {tuple(tuple(map(bool, lattice.subsets[i])) for i in pair)
               for pair in lattice.pairs}
        assert got <= set(nested_pairs(5))

    def test_sampling_requires_rng(self):
        with pytest.raises(ValueError):
            cec_pairs(5)

    def test_sampled_pairs_are_deterministic_per_stream(self):
        a = cec_pairs(6, rng=np.random.default_rng(1), limit=8)
        b = cec_pairs(6, rng=np.random.default_rng(1), limit=8)
        assert np.array_equal(a.subsets, b.subsets)
        assert np.array_equal(a.pairs, b.pairs)


class TestCecLoss:
    def test_well_ordered_confidences_cost_zero(self):
        # subset less confident than superset: no violation
        value, grad = cec_loss(np.array([[0.7], [0.9]]), [(0, 1)])
        assert value == 0.0
        assert not grad.any()

    def test_inverted_confidences_cost_squared_gap(self):
        value, grad = cec_loss(np.array([[0.9], [0.7]]), [(0, 1)])
        np.testing.assert_allclose(value, 0.04, rtol=0, atol=1e-15)
        np.testing.assert_allclose(grad, [[0.4], [-0.4]], rtol=0, atol=1e-15)

    def test_matches_brute_force_over_samples_and_pairs(self):
        rng = np.random.default_rng(5)
        conf = rng.uniform(0.3, 1.0, size=(3, 4))
        pairs = [(0, 2), (1, 2)]
        acc = sum(np.mean(np.maximum(conf[a] - conf[b], 0.0) ** 2)
                  for a, b in pairs)
        np.testing.assert_allclose(cec_loss(conf, pairs)[0], acc / 2, rtol=0,
                                   atol=1e-12)

    def test_gradient_scales_with_the_weight(self):
        rng = np.random.default_rng(8)
        conf = rng.uniform(0.3, 1.0, size=(3, 6))
        value, grad = cec_loss(conf, [(0, 2), (1, 2)], weight=4.0)
        assert value == cec_loss(conf, [(0, 2), (1, 2)])[0]
        np.testing.assert_allclose(
            grad, 4.0 * cec_loss(conf, [(0, 2), (1, 2)])[1], rtol=1e-15,
            atol=0)

    def test_non_strict_pair_rejected(self):
        # strictness is a property of the subsets, checked once where a
        # lattice is built, so no step sees a loose pair
        rows = np.array([[True, False], [False, True], [True, True]])
        for bad in ([(0, 0)], [(1, 0)], [(0, 2), (2, 1)]):
            with pytest.raises(ValueError, match="is not strict inclusion"):
                SubsetLattice(rows, bad)

    def test_lattice_of_another_width_rejected(self):
        rng = np.random.default_rng(12)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        lattice = subset_lattice(3)
        with pytest.raises(ValueError, match="modality count"):
            subset_confidences(model, batch, lattice)
        with pytest.raises(ValueError, match="modality count"):
            step_loss(model, batch, batch.presence, lattice, lam=0.05,
                      gamma=2.0)

    def test_pair_index_out_of_range_rejected(self):
        conf = np.full((2, 3), 0.5)
        for pairs in ([(0, 2)], [(-1, 0)]):
            with pytest.raises(ValueError, match="out of range"):
                cec_loss(conf, pairs)

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ValueError):
            cec_loss(np.full((2, 3), 0.5), [])

    def test_model_confidences_computed_once_per_subset(self):
        rng = np.random.default_rng(6)
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        lattice = subset_lattice(3)
        conf = subset_confidences(model, batch, lattice)
        assert conf.shape == (7, 6)
        for s, c in zip(lattice.subsets, conf):
            np.testing.assert_allclose(
                c, forward(model, batch, [batch.presence & s])
                .confidence.data, rtol=0, atol=1e-12)


def composed_cec_loss(conf, pairs):
    """``cec_loss`` as it was composed from tape primitives, about five
    nodes per pair, before it became one node."""
    total = None
    for small, big in pairs:
        gap = R.relu(R.sub(conf[small], conf[big]))
        term = R.mean_all(R.mul(gap, gap))
        total = term if total is None else R.add(total, term)
    return R.mul_scalar(total, 1.0 / len(pairs))


def per_pair_cec_grad(conf, index, weight):
    """``cec_loss``'s gradient accumulated one pair at a time, in reverse
    pair order, two in-place row updates per pair."""
    small, big = index[:, 0], index[:, 1]
    n = conf.shape[1]
    diff = conf[small] - conf[big]
    g = float(weight * (1.0 / len(index))) / n * np.maximum(diff, 0.0)
    g += g
    g *= diff > 0.0
    grad = np.zeros_like(conf)
    for k in reversed(range(len(index))):
        grad[small[k]] += g[k]
        grad[big[k]] -= g[k]
    return grad


class TestFusedCecLoss:
    """The plain hinge against the composed chain and the one-node
    ``hinge_pairs`` it replaced: value and gradient equal bit for bit, with
    exact ties (gap 0) and inversions in every case."""

    CASES = [(2, None), (3, None), (4, None), (5, 8)]

    @staticmethod
    def _confidences(rng, lattice, n=12):
        """[S, n] confidences for the lattice's subsets and its pairs as a
        list of index pairs."""
        s = len(lattice.subsets)
        tied = rng.choice([0.25, 0.5, 0.75, 1.0], size=(s, n // 2))
        # free values spread over decades, so the pair terms do too and
        # the order they are summed in shows in the last bits
        free = (rng.uniform(0.3, 1.0, size=(s, n - n // 2))
                * 10.0 ** rng.integers(-3, 1, size=(s, 1)))
        return lattice.pairs.tolist(), np.concatenate([tied, free], axis=1)

    @staticmethod
    def _chain(loss_fn, values):
        leaves = [T.Tensor(v.copy(), requires_grad=True) for v in values]
        with T.Tape() as tape:
            cec = loss_fn(leaves)
            tape.backward(R.mul_scalar(cec, 20.0))
        return cec.data, np.array([leaf.grad for leaf in leaves])

    @pytest.mark.parametrize("m,limit", CASES)
    @pytest.mark.parametrize("seed", range(4))
    def test_value_and_gradients_match_composed_chain(self, m, limit, seed):
        rng = np.random.default_rng([40 + m, seed])
        lattice = cec_pairs(m, rng, limit=limit) if limit else cec_pairs(m)
        index, values = self._confidences(rng, lattice)
        diffs = np.array([values[a] - values[b] for a, b in index])
        assert (diffs == 0.0).any() and (diffs > 0.0).any()
        got, got_grad = cec_loss(values, index, weight=20.0)
        assert got > 0.0
        for chain in (lambda conf: composed_cec_loss(conf, index),
                      lambda conf: R.hinge_pairs(conf, index)):
            want, want_grad = self._chain(chain, values)
            assert np.array_equal(got, want)
            assert np.array_equal(got_grad, want_grad)

    @pytest.mark.parametrize("m,limit", CASES)
    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_per_pair_loop(self, m, limit, seed):
        rng = np.random.default_rng([50 + m, seed])
        lattice = cec_pairs(m, rng, limit=limit) if limit else cec_pairs(m)
        index, values = self._confidences(rng, lattice)
        index = np.array(index)
        # from 3 modalities on, some view is the small side of one pair and
        # the big side of another
        assert (m < 3) == (np.intersect1d(index[:, 0], index[:, 1]).size == 0)
        _, got = cec_loss(values, index, weight=20.0)
        assert np.array_equal(got, per_pair_cec_grad(values, index, 20.0))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(45)
        lattice = cec_pairs(4)
        index, _ = self._confidences(rng, lattice)
        shape = (len(lattice.subsets), 5)

        def loss(x):
            value, grad = cec_loss(x.data.reshape(shape), index)
            return R.scalar_node(value, (x,), (grad.ravel(),))

        x = T.Tensor(rng.uniform(0.3, 1.0, size=shape[0] * shape[1]))
        assert R.grad_check(loss, x) < 1e-6

    def test_confidences_not_a_view_matrix_rejected(self):
        for conf in (np.array([0.9, 0.1]), np.zeros((2, 0))):
            with pytest.raises(ValueError):
                cec_loss(conf, [(0, 1)])


class TestCompositeLoss:
    def _parts(self, seed, n=6, classes=4, m=3, views=2):
        """Logits and gate weights of ``views`` views of n rows; the task
        reads view 0 and the one pair penalizes view 0 against view 1."""
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(views * n, classes)) * 2.0
        p = softmax_rows(rng.normal(size=(views * n, m)))
        labels = rng.integers(0, classes, size=n)
        return logits, p, labels, dict(rows=np.arange(n), pairs=[(0, 1)])

    def test_breakdown_recomposes_total(self):
        for seed in range(5):
            logits, p, labels, kw = self._parts(seed)
            bd = composite_loss(logits, p, labels, lam=0.05, gamma=0.2,
                                **kw)[0]
            assert bd.cec > 0.0
            np.testing.assert_allclose(bd.total, composed(bd), rtol=0,
                                       atol=1e-12)

    def test_component_values_match_independent_terms(self):
        logits, p, labels, kw = self._parts(11)
        bd = composite_loss(logits, p, labels, lam=0.1, gamma=0.3, **kw)[0]
        rows = T.Tensor(logits[:6]), T.Tensor(p[:6])
        np.testing.assert_allclose(bd.task, R.task_loss(rows[0], labels).item(),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(bd.ent, R.entropy_penalty(rows[1]).item(),
                                   rtol=0, atol=1e-12)
        conf = softmax_rows(logits).max(axis=1).reshape(2, 6)
        np.testing.assert_allclose(
            bd.cec, np.mean(np.maximum(conf[0] - conf[1], 0.0) ** 2), rtol=0,
            atol=1e-15)

    def test_total_is_linear_in_each_coefficient(self):
        logits, p, labels, kw = self._parts(13)

        def total(lam, gamma):
            return composite_loss(logits, p, labels, lam=lam, gamma=gamma,
                                  **kw)[0].total

        t00, t10, t01 = total(0.0, 0.0), total(1.0, 0.0), total(0.0, 1.0)
        lam, gam = 0.37, 0.83
        expected = t00 + lam * (t10 - t00) + gam * (t01 - t00)
        np.testing.assert_allclose(total(lam, gam), expected, rtol=0,
                                   atol=1e-12)

    def test_total_never_increases_with_lambda(self):
        # entropy term is nonpositive, so a larger weight can only lower total
        logits, p, labels, _ = self._parts(14, views=1)
        lams = [0.0, 0.01, 0.1, 0.5, 2.0]
        totals = [composite_loss(logits, p, labels, lam=l, gamma=0.0)[0].total
                  for l in lams]
        assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_gamma_requires_pairs(self):
        logits, p, labels, kw = self._parts(15)
        with pytest.raises(ValueError, match="needs subset pairs"):
            composite_loss(logits, p, labels, lam=0.1, gamma=0.5,
                           rows=kw["rows"])

    def test_bad_rows_rejected(self):
        logits, p, labels, _ = self._parts(17)
        for rows in ([0, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 12], [-1, 1, 2, 3, 4, 5],
                     np.zeros((6, 1), dtype=int)):
            with pytest.raises(ValueError, match="rows"):
                composite_loss(logits, p, labels, lam=0.1, gamma=0.0,
                               rows=np.array(rows))
        with pytest.raises(ValueError, match="one row each"):
            composite_loss(logits, p[:6], labels, lam=0.1, gamma=0.0,
                           rows=np.arange(6))

    def test_negative_scalar_lambda_rejected(self):
        logits, p, labels, _ = self._parts(16, views=1)
        with pytest.raises(ValueError, match="negative"):
            composite_loss(logits, p, labels, lam=-0.01, gamma=0.0)
        bd = composite_loss(logits, p, labels, lam=0.0, gamma=0.0)[0]
        assert bd.total == bd.task

    def test_vector_lambda_recomposes_and_reports_mean(self):
        for seed in range(3):
            logits, p, labels, _ = self._parts(20 + seed, views=1)
            rng = np.random.default_rng(100 + seed)
            lam = rng.uniform(0.01, 0.2, size=6)
            bd = composite_loss(logits, p, labels, lam=lam, gamma=0.0)[0]
            np.testing.assert_allclose(bd.lam, lam.mean(), rtol=0, atol=1e-15)
            np.testing.assert_allclose(bd.total, composed(bd), rtol=0,
                                       atol=1e-12)
            # per-sample weighting oracle
            ent_rows = -(p * np.log(np.maximum(p, 1e-300))).sum(axis=1)
            expected = (R.task_loss(T.Tensor(logits), labels).item()
                        - np.mean(lam * ent_rows))
            np.testing.assert_allclose(bd.total, expected, rtol=0, atol=1e-12)

    def test_negative_vector_lambda_entry_rejected(self):
        logits, p, labels, _ = self._parts(24, views=1)
        lam = np.full(6, 0.05)
        lam[3] = -0.001
        with pytest.raises(ValueError, match="negative"):
            composite_loss(logits, p, labels, lam=lam, gamma=0.0)

    def test_vector_lambda_wrong_length_rejected(self):
        logits, p, labels, _ = self._parts(25, views=1)
        with pytest.raises(ValueError):
            composite_loss(logits, p, labels, lam=np.full(3, 0.1), gamma=0.0)

    def test_gradients_wrt_logits_and_gate_weights_match_central_differences(
            self):
        for multilabel in (False, True):
            logits, p, labels, kw = self._parts(26)
            if multilabel:
                labels = (np.random.default_rng(27).random((6, 4)) < 0.4
                          ).astype(float)
            lam = np.linspace(0.05, 0.3, 6)
            for name, x in (("logits", logits), ("p", p)):
                def loss(t, name=name):
                    inputs = {"logits": T.Tensor(logits), "p": T.Tensor(p),
                              name: t}
                    return loss_node(inputs["logits"], inputs["p"], labels,
                                     lam=lam, gamma=2.0, **kw)

                assert R.grad_check(loss, T.Tensor(x)) < 1e-6

    def test_gradient_through_model_matches_central_differences(self):
        rng = np.random.default_rng(30)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        lattice = subset_lattice(2)

        def total_value():
            # each call also adds its gradients into the model's buffers
            return step_loss(model, batch, batch.presence, lattice, lam=0.05,
                             gamma=0.2).total

        total_value()
        grads = [grad.copy() for grad in model.grad.values()]
        eps = 1e-5
        checked = 0
        for (_, param), grad in zip(model.parameters(), grads):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                keep = flat[idx]
                flat[idx] = keep + eps
                up = total_value()
                flat[idx] = keep - eps
                down = total_value()
                flat[idx] = keep
                numeric = (up - down) / (2 * eps)
                err = abs(gflat[idx] - numeric) / (abs(gflat[idx]) + abs(numeric) + 1e-12)
                assert err < 1e-4
                checked += 1
        assert checked >= 10

    def test_breakdown_is_plain_floats(self):
        for views, gamma in ((1, 0.0), (2, 0.5)):
            logits, p, labels, kw = self._parts(31, views=views)
            if views == 1:
                kw = {}
            bd = composite_loss(logits, p, labels, lam=0.1, gamma=gamma,
                                **kw)[0]
            for field in ("total", "task", "ent", "cec", "lam", "gamma"):
                assert type(getattr(bd, field)) is float

    def test_returns_a_gradient_of_each_input_shape(self):
        # the task and entropy terms read view 0 only, the hinge both views
        logits, p, labels, kw = self._parts(32)
        _, g_logits, g_p = composite_loss(logits, p, labels, lam=0.1,
                                          gamma=0.5, **kw)
        assert g_logits.shape == logits.shape and g_p.shape == p.shape
        assert g_logits[6:].any() and not g_p[6:].any()


class TestNodeMatchesChain:
    """``composite_loss`` against ``reference_chain.composite_loss``, the
    chain of tape ops it replaced, run on the tape: the value, the breakdown
    and the gradients with respect to the logits and the gate weights are
    equal bit for bit. Inputs are laid out as a training step lays them out: the
    views of the pairs' subsets (plus the extra ``keep`` view where a masked
    row has no subset view), each view row's logits and gate weights a
    function of its presence pattern. Some rows get the same logits in
    every view, so their confidences tie exactly and the hinge sits at its
    kink. With ``partial`` presence some subset view rows are fillers, which
    the chain's hinge masks out."""

    CASES = [(m, lam, multilabel, with_pairs)
             for m in (2, 3, 4, 5) for lam in ("scalar", "rows")
             for multilabel in (False, True) for with_pairs in (True, False)]

    @staticmethod
    def _inputs(seed, m, lam_kind, multilabel, with_pairs, n=9, classes=4,
                partial=False):
        rng = np.random.default_rng(seed)
        presence = np.ones((n, m), dtype=bool)
        keep = bernoulli_mask(n, m, 0.4, rng)
        if partial:
            presence = random_presence(rng, n, m)
            keep = keep_observed(presence, keep)[0]
        rows, index, live, views = None, None, None, keep[None]
        if with_pairs:
            lattice = cec_pairs(m, rng, limit=8)
            views, live = keep_observed(presence, lattice.subsets[:, None])
            index = lattice.pairs
            held = (views == keep).all(axis=2)
            if not held.any(axis=0).all():
                views = np.concatenate([views, keep[None]])
                held = np.concatenate([held, np.ones((1, n), dtype=bool)])
            rows = held.argmax(axis=0) * n + np.arange(n)
        codes = views @ (1 << np.arange(m))  # [V, n] presence patterns
        table_z = rng.normal(size=(n, 1 << m, classes)) * 3.0
        tied = rng.random(n) < 0.3
        table_z[tied] = table_z[tied, :1]
        table_g = rng.normal(size=(n, 1 << m, m))
        logits = table_z[np.arange(n), codes].reshape(-1, classes)
        keep_rows = views.reshape(-1, m)
        gate = np.where(keep_rows, table_g[np.arange(n), codes].reshape(-1, m),
                        -np.inf)
        p = np.exp(gate - gate.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        labels = ((rng.random((n, classes)) < 0.4).astype(float) if multilabel
                  else rng.integers(0, classes, size=n))
        lam = 0.05 if lam_kind == "scalar" else rng.uniform(0.01, 0.5, size=n)
        return (logits, p, labels, lam,
                dict(rows=rows, pairs=index, live=live), len(views))

    @staticmethod
    def _run(loss_fn, logits, p, labels, lam, gamma, kw):
        """The total, the breakdown and the two gradients: ``composite_loss``
        returns them, and the chain runs on the tape (``R.objective``)."""
        bd, *grads = loss_fn(logits.copy(), p.copy(), labels, lam=lam,
                             gamma=gamma, **kw)
        return bd.total, bd, grads

    @pytest.mark.parametrize("m,lam,multilabel,with_pairs", CASES)
    def test_value_breakdown_and_gradients_equal_the_chain(
            self, m, lam, multilabel, with_pairs):
        seed = [m, lam == "rows", multilabel, with_pairs]
        logits, p, labels, lam, kw, _ = self._inputs(seed, m, lam, multilabel,
                                                     with_pairs)
        gamma = 20.0 if with_pairs else 0.0
        got, got_bd, got_grads = self._run(composite_loss, logits, p, labels,
                                           lam, gamma, kw)
        want, want_bd, want_grads = self._run(R.objective, logits, p,
                                              labels, lam, gamma, kw)
        assert np.array_equal(got, want)
        assert got_bd == want_bd
        for g, w in zip(got_grads, want_grads):
            assert g.any() and np.array_equal(g, w)
        if with_pairs:
            assert got_bd.cec > 0.0

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("multilabel", [False, True])
    def test_filler_rows_equal_the_chain(self, m, multilabel):
        logits, p, labels, lam, kw, _ = self._inputs(
            [m, multilabel, 7], m, "rows", multilabel, True, partial=True)
        assert not kw["live"].all()
        got, got_bd, got_grads = self._run(composite_loss, logits, p, labels,
                                           lam, 20.0, kw)
        want, want_bd, want_grads = self._run(R.objective, logits, p,
                                              labels, lam, 20.0, kw)
        assert np.array_equal(got, want)
        assert got_bd == want_bd
        for g, w in zip(got_grads, want_grads):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("multilabel", [False, True])
    @pytest.mark.parametrize("partial", [False, True])
    def test_consistency_gradient_equals_the_dense_formula(self, m,
                                                           multilabel,
                                                           partial):
        # composite_loss takes the gradient through each row's top
        # probability without the dense one-hot g this formula builds, and
        # adds the task rows' gradient into it: the same bits
        hinged = 0
        for seed in range(3):
            logits, p, labels, lam, kw, _ = self._inputs(
                [m, multilabel, partial, seed, 11], m, "rows", multilabel,
                True, partial=partial)
            _, g_logits, g_p = composite_loss(logits, p, labels, lam=lam,
                                              gamma=20.0, **kw)
            _, g_task, g_w = composite_loss(logits, p, labels, lam=lam,
                                            gamma=0.0, rows=kw["rows"])
            probs = class_probs(logits, multilabel)
            top = (np.arange(len(probs)), probs.argmax(axis=1))
            _, g_conf = cec_loss(probs[top].reshape(-1, len(labels)),
                                 kw["pairs"], 20.0, kw["live"])
            g = np.zeros_like(probs)
            g[top] = g_conf.ravel()
            dense = (g * probs * (1.0 - probs) if multilabel else
                     probs * (g - (g * probs).sum(axis=1, keepdims=True)))
            hinged += g_conf.any()
            assert np.array_equal(g_logits, g_task + dense)
            assert np.array_equal(g_p, g_w)
        assert hinged

    def test_cases_include_rows_that_need_the_extra_keep_view(self):
        extra = 0
        for m, lam, multilabel, with_pairs in self.CASES:
            if with_pairs:
                seed = [m, lam == "rows", multilabel, with_pairs]
                *_, kw, views = self._inputs(seed, m, lam, multilabel, True)
                extra += views > kw["pairs"].max() + 1
        assert extra > 0

    @pytest.mark.parametrize("gamma,lam_mode", [(2.0, "scheduled"),
                                                (0.0, "instance"),
                                                (2.0, "instance")])
    def test_training_is_unchanged_bit_for_bit(self, monkeypatch, gamma,
                                               lam_mode):
        cfg = small_cfg(gamma=gamma, lam_mode=lam_mode, epochs=2)
        got = train(cfg, small_data())
        monkeypatch.setattr(losses_module, "composite_loss", R.objective)
        want = train(cfg, small_data())
        assert got.history == want.history
        for (name, a), (_, b) in zip(got.model.parameters(),
                                     want.model.parameters()):
            assert np.array_equal(a, b), name


class TestStackedStep:
    """The training step against its reference: the masked-copy pass of
    ``test_views.reference_forward`` on the masked rows plus one per lattice
    subset, with the gate trained or frozen as the no_gate ablation freezes
    it, and without pairs as gamma=0 trains. Beyond 4 modalities the pairs
    are sampled, so some masked rows have a presence pattern no subset view
    holds."""

    CASES = [(m, frozen) for m in (2, 3, 4, 5) for frozen in (False, True)]

    def _setup(self, seed, m, frozen=False, multilabel=False, partial=False):
        rng = np.random.default_rng(seed)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5, 3)[:m], classes=4,
                           fused_dim=5, multilabel=multilabel)
        model = (frozen_gate_model if frozen else random_model)(rng, cfg)
        batch = random_batch(rng, 7, cfg.dims, cfg.classes)
        if multilabel:
            batch.labels = (rng.random((7, cfg.classes)) < 0.4).astype(float)
        keep = bernoulli_mask(batch.n, m, 0.4, rng)
        if partial:  # rows lacking modalities, so some subset views fill
            batch = random_batch(rng, 7, cfg.dims, cfg.classes,
                                 random_presence(rng, 7, m))
            keep = keep_observed(batch.presence, keep)[0]
        return model, batch, keep, cec_pairs(m, rng, limit=8)

    def _reference_loss(self, model, batch, keep, lattice, multilabel=False):
        out = reference_forward(model, batch, keep)
        total = R.composite_loss(out.logits, out.p, batch.labels, lam=0.05,
                                 gamma=0.0, multilabel=multilabel)[0]
        if lattice is None:
            return total
        views, live = keep_observed(batch.presence, lattice.subsets[:, None])
        conf = [R.confidence(reference_forward(model, batch, view).logits,
                             multilabel) for view in views]
        return R.add(total, R.mul_scalar(
            R.hinge_pairs(conf, lattice.pairs.tolist(), live), 2.0))

    @staticmethod
    def _grads(model):
        return {name: grad.copy() for name, grad in model.grad.items()}

    def _assert_step_matches(self, model, batch, keep, lattice, frozen=False):
        model.zero_grad()
        got_loss = step_loss(model, batch, keep, lattice, lam=0.05,
                             gamma=2.0).total
        got = self._grads(model)
        model.zero_grad()
        with T.Tape() as tape:
            want_loss = self._reference_loss(model, batch, keep, lattice,
                                             batch.multilabel)
            tape.backward(want_loss)
        want_loss, want = want_loss.item(), self._grads(model)
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        for name, g in want.items():
            scale = np.abs(g).max()
            if scale == 0.0:  # a frozen gate's buffer stays zero
                assert frozen and name.startswith("gate_"), name
                assert not got[name].any(), name
                continue
            np.testing.assert_allclose(got[name], g, rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("m,frozen", CASES)
    def test_every_view_matches_its_reference_forward(self, m, frozen):
        model, batch, keep, lattice = self._setup(70 + m, m, frozen)
        views = np.concatenate([keep_observed(
            batch.presence, lattice.subsets[:, None])[0], keep[None]])
        out = forward(model, batch, views)
        assert out.logits.shape[0] == len(views) * batch.n
        for v, view in enumerate(views):
            ref = reference_forward(model, batch, view)
            rows = slice(v * batch.n, (v + 1) * batch.n)
            for field in ("logits", "confidence", "p"):
                np.testing.assert_allclose(getattr(out, field).data[rows],
                                           getattr(ref, field).data,
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.gate_entropy[rows],
                                       ref.gate_entropy, rtol=0, atol=1e-12)
            assert (out.p.data[rows][~view] == 0.0).all()

    @pytest.mark.parametrize("m,frozen", CASES)
    @pytest.mark.parametrize("with_pairs", [True, False])
    def test_step_loss_and_gradients_match_reference(self, m, frozen,
                                                     with_pairs):
        model, batch, keep, lattice = self._setup(80 + m, m, frozen)
        self._assert_step_matches(model, batch, keep,
                                  lattice if with_pairs else None, frozen)

    @pytest.mark.parametrize("m,frozen", CASES)
    def test_partial_presence_step_matches_reference(self, m, frozen):
        model, batch, keep, lattice = self._setup(60 + m, m, frozen,
                                                  partial=True)
        live = keep_observed(batch.presence, lattice.subsets[:, None])[1]
        assert not live.all()
        self._assert_step_matches(model, batch, keep, lattice, frozen)

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_multilabel_step_matches_reference(self, m):
        model, batch, keep, lattice = self._setup(85 + m, m, multilabel=True)
        self._assert_step_matches(model, batch, keep, lattice)

    def test_masked_rows_outside_every_view_get_one_extra_view(
            self, monkeypatch):
        model, batch, keep, lattice = self._setup(85, 5)
        held = keep_observed(batch.presence, lattice.subsets[:, None])[0]
        outside = [not any((v[i] == keep[i]).all() for v in held)
                   for i in range(batch.n)]
        assert any(outside) and not all(outside)
        seen = []

        def spy(model, batch, views):
            seen.append(views.shape[0])
            return forward_pullback(model, batch, views)

        monkeypatch.setattr(losses_module, "forward_pullback", spy)
        step_loss(model, batch, keep, lattice, lam=0.05, gamma=2.0)
        assert seen == [len(lattice.subsets) + 1]
        seen.clear()
        # up to 4 modalities every masked pattern is a subset view
        model, batch, keep, lattice = self._setup(84, 4)
        step_loss(model, batch, keep, lattice, lam=0.05, gamma=2.0)
        assert seen == [len(lattice.subsets)]

    def test_without_pairs_is_the_plain_composite_loss(self):
        model, batch, keep, _ = self._setup(90, 3)
        out = forward(model, batch, [keep])
        want = composite_loss(out.logits.data, out.p.data, batch.labels,
                              lam=0.05, gamma=0.0)[0]
        got = step_loss(model, batch, keep, None, lam=0.05, gamma=2.0)
        assert got == want
        assert got.cec == 0.0

    def test_view_with_no_observed_modality_rejected(self, monkeypatch):
        rng = np.random.default_rng(91)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        presence = np.array([[True, True], [True, False], [True, True]])
        batch = random_batch(rng, 3, cfg.dims, cfg.classes, presence=presence)
        lattice = subset_lattice(2)  # subsets {0}, {0,1}, {1}
        # the {1} view would leave row 1, which observes only modality 0,
        # empty: it reads the row's presence there, a filler that carries no
        # consistency weight
        live = keep_observed(batch.presence, lattice.subsets[:, None])[1]
        assert live.tolist() == [[True] * 3, [True] * 3, [True, False, True]]
        conf = subset_confidences(model, batch, lattice)
        conf[2, 1] = 1.0  # an inversion at the filler, were it counted
        value, grad = cec_loss(conf, lattice.pairs, live=live)
        assert grad[2, 1] == 0.0
        kept = cec_loss(conf[:, [0, 2]], lattice.pairs)[0] * 2 / 3
        assert value == pytest.approx(kept, rel=1e-15, abs=0)
        seen = []

        def spy(conf, pairs, weight, live):
            seen.append(cec_loss(conf, pairs, weight, live))
            assert not live[2, 1]
            return seen[-1]

        monkeypatch.setattr(losses_module, "cec_loss", spy)
        bd = step_loss(model, batch, batch.presence, lattice, lam=0.05,
                       gamma=2.0)
        assert bd.cec == seen[0][0] and seen[0][1][2, 1] == 0.0
        with pytest.raises(ValueError, match="does not observe"):
            step_loss(model, batch, np.ones((3, 2), dtype=bool), None,
                      lam=0.05, gamma=2.0)

    def test_no_view_is_a_masked_copy_of_the_batch(self, monkeypatch):
        model, batch, keep, lattice = self._setup(92, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("a view was built as a masked batch copy")

        monkeypatch.setattr(data_module, "apply_mask", refuse)
        monkeypatch.setattr(data_module.MultimodalBatch, "__init__", refuse)
        monkeypatch.setattr(data_module.MultimodalBatch, "take", refuse)
        bd = step_loss(model, batch, keep, lattice, lam=0.05, gamma=2.0)
        step_loss(model, batch, keep, None, lam=0.05, gamma=2.0)
        assert bd.cec > 0.0


class TestPartialPresenceProperties:
    """Invariants over random presence, each row observing at least one of
    M = 2-5 modalities: the consistency term and the inversion audit count
    the same live rows, a filler row takes no consistency gradient, and a
    step's gate weights lie on the simplex of each view row."""

    @staticmethod
    def _draws(m, trials=30):
        rng = np.random.default_rng(200 + m)
        lattice = cec_pairs(m, rng, limit=8)
        for _ in range(trials):
            presence = random_presence(rng, int(rng.integers(1, 12)), m)
            live = keep_observed(presence, lattice.subsets[:, None])[1]
            conf = rng.random(live.shape).round(1)
            yield lattice, presence, live, conf

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_zero_consistency_iff_clean_audit(self, m):
        seen = set()
        for i, (lattice, presence, live, conf) in enumerate(self._draws(m)):
            sizes = lattice.subsets.sum(axis=1)[:, None] / m
            if i % 2:  # monotone on live rows, arbitrary on the fillers
                conf = np.where(live, sizes, conf)
            value = cec_loss(conf, lattice.pairs, live=live)[0]
            audit = audit_confidences(conf, lattice, presence)
            clean = audit.total_count == 0
            assert (value == 0.0) == clean
            # one [P, n] mask: the rows the term counts are the audit's
            assert np.array_equal(audit.rows,
                                  live[lattice.pairs[:, 0]].sum(axis=1))
            seen.add(clean)
        assert seen == {False, True}

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_filler_rows_get_zero_gradient(self, m):
        fillers = 0
        for lattice, _, live, conf in self._draws(m):
            grad = cec_loss(conf, lattice.pairs, weight=3.0, live=live)[1]
            assert (grad[~live] == 0.0).all()
            fillers += int((~live).sum())
        assert fillers > 0

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_step_gate_weights_on_the_masked_simplex(self, m, monkeypatch):
        seen = []

        def spy(model, batch, views):
            out, pullback = forward_pullback(model, batch, views)
            seen.append((batch.presence, views, out))
            return out, pullback

        monkeypatch.setattr(losses_module, "forward_pullback", spy)
        rng = np.random.default_rng(300 + m)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5, 3)[:m], classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        for lattice in (cec_pairs(m, rng, limit=8), None):
            batch = random_batch(rng, 16, cfg.dims, cfg.classes,
                                 random_presence(rng, 16, m))
            keep = keep_observed(batch.presence,
                                 bernoulli_mask(16, m, 0.4, rng))[0]
            bd = step_loss(model, batch, keep, lattice, lam=0.05, gamma=20.0)
            assert np.isfinite(bd.total)
        assert len(seen) == 2
        for presence, views, out in seen:
            assert not (views > presence).any() and views.any(axis=2).all()
            p = out.p.data
            assert (p >= 0.0).all() and (p[~views.reshape(-1, m)] == 0.0).all()
            np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0,
                                       atol=1e-12)
