"""Composite objective: task term, entropy penalty, consistency hinge."""

import numpy as np
import pytest

import entrofuse.tensor as T
from entrofuse.data import MultimodalBatch, apply_mask, bernoulli_mask
from entrofuse.losses import (LossBreakdown, cec_loss, cec_pairs,
                              composite_loss, entropy_penalty, step_loss,
                              subset_confidences, task_loss)
from entrofuse.model import (FusionConfig, FusionModel, forward,
                             lattice_forward, predict_subset)
from entrofuse.subsets import SubsetMask, subset_lattice

from test_model import random_batch, random_model


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestTaskLoss:
    def test_confident_correct_prediction_costs_almost_nothing(self):
        # margin of 100 logits on the true class
        logits = np.zeros((4, 5))
        labels = np.array([0, 2, 4, 1])
        logits[np.arange(4), labels] = 100.0
        loss = task_loss(T.Tensor(logits), labels)
        assert loss.item() < 1e-6

    def test_uniform_logits_cost_log_num_classes(self):
        logits = T.Tensor(np.zeros((7, 10)))
        labels = np.arange(7) % 10
        loss = task_loss(logits, labels)
        np.testing.assert_allclose(loss.item(), np.log(10.0), rtol=0, atol=1e-12)

    def test_matches_scalar_recomputation(self):
        for k in range(5):
            rng = np.random.default_rng(k)
            logits = rng.normal(size=(4, 3)) * 3.0
            labels = rng.integers(0, 3, size=4)
            loss = task_loss(T.Tensor(logits), labels)
            probs = softmax_rows(logits)
            expected = -np.mean([np.log(probs[i, labels[i]]) for i in range(4)])
            np.testing.assert_allclose(loss.item(), expected, rtol=0, atol=1e-12)

    def test_multilabel_matches_elementwise_bce(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 4)) * 2.0
        targets = (rng.random((6, 4)) < 0.4).astype(np.float64)
        loss = task_loss(T.Tensor(logits), targets, multilabel=True)
        z, y = logits, targets
        expected = np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))))
        np.testing.assert_allclose(loss.item(), expected, rtol=0, atol=1e-12)

    def test_label_out_of_range_rejected(self):
        logits = T.Tensor(np.zeros((2, 3)))
        with pytest.raises((ValueError, IndexError)):
            task_loss(logits, np.array([0, 3]))
        with pytest.raises((ValueError, IndexError)):
            task_loss(logits, np.array([0, -1]))


class TestEntropyPenalty:
    def test_uniform_rows_give_negative_log_m(self):
        p = T.Tensor(np.full((5, 2), 0.5))
        np.testing.assert_allclose(entropy_penalty(p).item(), -np.log(2.0),
                                   rtol=0, atol=1e-12)
        p = T.Tensor(np.full((5, 4), 0.25))
        np.testing.assert_allclose(entropy_penalty(p).item(), -np.log(4.0),
                                   rtol=0, atol=1e-12)

    def test_one_hot_rows_give_zero(self):
        p = np.zeros((4, 3))
        p[np.arange(4), [0, 2, 1, 0]] = 1.0
        assert entropy_penalty(T.Tensor(p)).item() == 0.0

    def test_value_is_negative_mean_entropy(self):
        rng = np.random.default_rng(3)
        p = softmax_rows(rng.normal(size=(8, 3)))
        got = entropy_penalty(T.Tensor(p)).item()
        ent = -(p * np.log(p)).sum(axis=1)
        np.testing.assert_allclose(got, -ent.mean(), rtol=0, atol=1e-12)

    def test_off_simplex_rows_rejected(self):
        with pytest.raises(ValueError):
            entropy_penalty(T.Tensor(np.full((3, 2), 0.7)))
        with pytest.raises(ValueError):
            entropy_penalty(T.Tensor(np.array([[1.5, -0.5]])))

    def test_gradient_matches_central_differences(self):
        for k in range(5):
            rng = np.random.default_rng(40 + k)
            x = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            err = T.grad_check(lambda t: entropy_penalty(T.softmax(t)), x)
            assert err < 1e-6


class TestCecPairs:
    def test_small_counts_are_exhaustive(self):
        assert cec_pairs(2) == subset_lattice(2)
        assert cec_pairs(3) == subset_lattice(3)
        assert cec_pairs(4) == subset_lattice(4)

    def test_large_modality_counts_are_sampled(self):
        rng = np.random.default_rng(0)
        pairs = cec_pairs(5, rng=rng, limit=8)
        assert len(pairs) == 8
        lattice = set(subset_lattice(5))
        assert all(p in lattice for p in pairs)

    def test_sampling_requires_rng(self):
        with pytest.raises(ValueError):
            cec_pairs(5)

    def test_sampled_pairs_are_deterministic_per_stream(self):
        a = cec_pairs(6, rng=np.random.default_rng(1), limit=8)
        b = cec_pairs(6, rng=np.random.default_rng(1), limit=8)
        assert a == b


class TestCecLoss:
    def _pair(self):
        small = SubsetMask.from_indices(2, [0])
        big = SubsetMask.full(2)
        return small, big

    def test_well_ordered_confidences_cost_zero(self):
        # subset less confident than superset: no violation
        small, big = self._pair()
        conf = {small: T.Tensor(np.array([0.7])), big: T.Tensor(np.array([0.9]))}
        assert cec_loss(conf, [(small, big)]).item() == 0.0

    def test_inverted_confidences_cost_squared_gap(self):
        small, big = self._pair()
        conf = {small: T.Tensor(np.array([0.9])), big: T.Tensor(np.array([0.7]))}
        np.testing.assert_allclose(cec_loss(conf, [(small, big)]).item(), 0.04,
                                   rtol=0, atol=1e-15)

    def test_matches_brute_force_over_samples_and_pairs(self):
        rng = np.random.default_rng(5)
        pairs = subset_lattice(2)
        assert len(pairs) == 2
        conf = {}
        for s in {x for pair in pairs for x in pair}:
            conf[s] = T.Tensor(rng.uniform(0.3, 1.0, size=4))
        got = cec_loss(conf, pairs).item()
        acc = 0.0
        for small, big in pairs:
            gap = np.maximum(conf[small].data - conf[big].data, 0.0)
            acc += np.mean(gap ** 2)
        np.testing.assert_allclose(got, acc / len(pairs), rtol=0, atol=1e-12)

    def test_non_strict_pair_rejected(self):
        s = SubsetMask.from_indices(2, [0])
        conf = {s: T.Tensor(np.array([0.5]))}
        with pytest.raises(ValueError):
            cec_loss(conf, [(s, s)])
        t = SubsetMask.from_indices(2, [1])
        conf[t] = T.Tensor(np.array([0.5]))
        with pytest.raises(ValueError):
            cec_loss(conf, [(t, s)])

    def test_missing_subset_entry_rejected(self):
        small, big = self._pair()
        with pytest.raises(ValueError):
            cec_loss({small: T.Tensor(np.array([0.5]))}, [(small, big)])

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ValueError):
            cec_loss({}, [])

    def test_model_confidences_computed_once_per_subset(self):
        rng = np.random.default_rng(6)
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        pairs = subset_lattice(3)
        conf = subset_confidences(model, batch, pairs)
        assert set(conf) == {s for pair in pairs for s in pair}
        for s, c in conf.items():
            assert c.data.shape == (6,)

    def test_gradient_through_model_matches_central_differences(self):
        rng = np.random.default_rng(7)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 5, cfg.dims, cfg.classes)
        pairs = subset_lattice(2)

        def value():
            return cec_loss(subset_confidences(model, batch, pairs), pairs).item()

        with T.Tape() as tape:
            loss = cec_loss(subset_confidences(model, batch, pairs), pairs)
            tape.backward(loss)
        assert loss.item() > 0.0  # random weights produce some violation
        eps = 1e-5
        checked = 0
        for _, param in model.parameters():
            if param.grad is None:
                continue
            flat = param.data.reshape(-1)
            gflat = param.grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                keep = flat[idx]
                flat[idx] = keep + eps
                up = value()
                flat[idx] = keep - eps
                down = value()
                flat[idx] = keep
                numeric = (up - down) / (2 * eps)
                err = abs(gflat[idx] - numeric) / (abs(gflat[idx]) + abs(numeric) + 1e-12)
                assert err < 1e-5
                checked += 1
        assert checked >= 10


class TestCompositeLoss:
    def _parts(self, seed, n=6, classes=4, m=3):
        rng = np.random.default_rng(seed)
        logits = T.Tensor(rng.normal(size=(n, classes)) * 2.0)
        p = T.Tensor(softmax_rows(rng.normal(size=(n, m))))
        labels = rng.integers(0, classes, size=n)
        return logits, p, labels

    def test_breakdown_recomposes_total(self):
        for seed in range(5):
            logits, p, labels = self._parts(seed)
            cec = T.Tensor(np.array(0.03))
            total, bd = composite_loss(logits, p, labels, lam=0.05, gamma=0.2,
                                       beta=0.7, cec=cec)
            np.testing.assert_allclose(total.item(), bd.composed(), rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(
                bd.total, bd.task + bd.lam * bd.ent + bd.gamma * bd.cec
                + bd.beta * bd.mask, rtol=0, atol=1e-12)

    def test_component_values_match_independent_terms(self):
        logits, p, labels = self._parts(11)
        cec = T.Tensor(np.array(0.5))
        total, bd = composite_loss(logits, p, labels, lam=0.1, gamma=0.3, cec=cec)
        np.testing.assert_allclose(bd.task, task_loss(logits, labels).item(),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(bd.ent, entropy_penalty(p).item(),
                                   rtol=0, atol=1e-12)
        assert bd.cec == 0.5
        assert bd.mask == 0.0

    def test_mask_slot_is_identically_zero(self):
        logits, p, labels = self._parts(12)
        total_a, bd_a = composite_loss(logits, p, labels, lam=0.1, gamma=0.0,
                                       beta=0.0)
        total_b, bd_b = composite_loss(logits, p, labels, lam=0.1, gamma=0.0,
                                       beta=123.0)
        assert bd_a.mask == 0.0 and bd_b.mask == 0.0
        np.testing.assert_allclose(total_a.item(), total_b.item(), rtol=0, atol=0)

    def test_total_is_linear_in_each_coefficient(self):
        logits, p, labels = self._parts(13)
        cec = T.Tensor(np.array(0.25))
        t00, bd = composite_loss(logits, p, labels, lam=0.0, gamma=0.0, cec=cec)
        t10, _ = composite_loss(logits, p, labels, lam=1.0, gamma=0.0, cec=cec)
        t01, _ = composite_loss(logits, p, labels, lam=0.0, gamma=1.0, cec=cec)
        lam, gam = 0.37, 0.83
        tmix, _ = composite_loss(logits, p, labels, lam=lam, gamma=gam, cec=cec)
        expected = (t00.item() + lam * (t10.item() - t00.item())
                    + gam * (t01.item() - t00.item()))
        np.testing.assert_allclose(tmix.item(), expected, rtol=0, atol=1e-12)

    def test_total_never_increases_with_lambda(self):
        # entropy term is nonpositive, so a larger weight can only lower total
        logits, p, labels = self._parts(14)
        lams = [0.0, 0.01, 0.1, 0.5, 2.0]
        totals = [composite_loss(logits, p, labels, lam=l, gamma=0.0)[0].item()
                  for l in lams]
        assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_gamma_requires_cec_value(self):
        logits, p, labels = self._parts(15)
        with pytest.raises(ValueError):
            composite_loss(logits, p, labels, lam=0.1, gamma=0.5, cec=None)

    def test_scalar_lambda_below_floor_rejected(self):
        logits, p, labels = self._parts(16)
        with pytest.raises(ValueError):
            composite_loss(logits, p, labels, lam=-0.01, gamma=0.0)
        with pytest.raises(ValueError):
            composite_loss(logits, p, labels, lam=0.005, gamma=0.0, lam_min=0.01)

    def test_vector_lambda_recomposes_and_reports_mean(self):
        for seed in range(3):
            logits, p, labels = self._parts(20 + seed)
            rng = np.random.default_rng(100 + seed)
            lam = rng.uniform(0.01, 0.2, size=6)
            total, bd = composite_loss(logits, p, labels, lam=lam, gamma=0.0,
                                       lam_min=0.01)
            np.testing.assert_allclose(bd.lam, lam.mean(), rtol=0, atol=1e-15)
            np.testing.assert_allclose(total.item(), bd.composed(), rtol=0,
                                       atol=1e-12)
            # per-sample weighting oracle
            ent_rows = -(p.data * np.log(np.maximum(p.data, 1e-300))).sum(axis=1)
            expected = (task_loss(logits, labels).item()
                        - np.mean(lam * ent_rows))
            np.testing.assert_allclose(total.item(), expected, rtol=0, atol=1e-12)

    def test_vector_lambda_entry_below_floor_rejected(self):
        logits, p, labels = self._parts(24)
        lam = np.full(6, 0.05)
        lam[3] = 0.001
        with pytest.raises(ValueError):
            composite_loss(logits, p, labels, lam=lam, gamma=0.0, lam_min=0.01)

    def test_vector_lambda_wrong_length_rejected(self):
        logits, p, labels = self._parts(25)
        with pytest.raises(ValueError):
            composite_loss(logits, p, labels, lam=np.full(3, 0.1), gamma=0.0)

    def test_gradient_through_model_matches_central_differences(self):
        rng = np.random.default_rng(30)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        pairs = subset_lattice(2)

        def total_value():
            out = forward(model, batch)
            cec = cec_loss(subset_confidences(model, batch, pairs), pairs)
            total, _ = composite_loss(out.logits, out.p, batch.labels,
                                      lam=0.05, gamma=0.2, cec=cec)
            return total

        with T.Tape() as tape:
            tape.backward(total_value())
        eps = 1e-5
        checked = 0
        for _, param in model.parameters():
            flat = param.data.reshape(-1)
            gflat = (param.grad if param.grad is not None
                     else np.zeros_like(param.data)).reshape(-1)
            for idx in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                keep = flat[idx]
                flat[idx] = keep + eps
                up = total_value().item()
                flat[idx] = keep - eps
                down = total_value().item()
                flat[idx] = keep
                numeric = (up - down) / (2 * eps)
                err = abs(gflat[idx] - numeric) / (abs(gflat[idx]) + abs(numeric) + 1e-12)
                assert err < 1e-4
                checked += 1
        assert checked >= 10

    def test_breakdown_is_plain_floats(self):
        logits, p, labels = self._parts(31)
        _, bd = composite_loss(logits, p, labels, lam=0.1, gamma=0.0)
        for field in ("total", "task", "ent", "cec", "mask", "lam", "gamma", "beta"):
            assert type(getattr(bd, field)) is float


class TestStackedStep:
    """The stacked pass against its reference: ``forward`` on the masked
    batch plus one ``predict_subset`` call per lattice subset."""

    CASES = [(m, uniform) for m in (2, 3, 4) for uniform in (False, True)]

    def _setup(self, seed, m):
        rng = np.random.default_rng(seed)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5)[:m], classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        clean = random_batch(rng, 7, cfg.dims, cfg.classes)
        keep = bernoulli_mask(clean.n, m, 0.4, rng)
        return model, apply_mask(clean, per_sample=keep), clean, cec_pairs(m)

    @staticmethod
    def _subsets(pairs):
        return list(dict.fromkeys(s for pair in pairs for s in pair))

    def _reference_loss(self, model, batch, clean, pairs, uniform):
        out = forward(model, batch, uniform_gate=uniform)
        conf = {s: predict_subset(model, clean, s, uniform_gate=uniform).confidence
                for s in self._subsets(pairs)}
        return composite_loss(out.logits, out.p, batch.labels, lam=0.05,
                              gamma=2.0, cec=cec_loss(conf, pairs))[0]

    @staticmethod
    def _loss_and_grads(model, loss_fn):
        for _, param in model.parameters():
            param.zero_grad()
        with T.Tape() as tape:
            loss = loss_fn()
            tape.backward(loss)
        return loss.item(), {name: None if param.grad is None
                             else param.grad.copy()
                             for name, param in model.parameters()}

    @pytest.mark.parametrize("m,uniform", CASES)
    def test_every_view_matches_its_reference_forward(self, m, uniform):
        model, batch, clean, pairs = self._setup(70 + m, m)
        out, conf = lattice_forward(model, clean, pairs, head=batch,
                                    uniform_gate=uniform)
        views = [(forward(model, batch, uniform_gate=uniform), 0)]
        for i, subset in enumerate(self._subsets(pairs)):
            sub = predict_subset(model, clean, subset, uniform_gate=uniform)
            views.append((sub, batch.n + i * clean.n))
            np.testing.assert_allclose(conf[subset].data, sub.confidence.data,
                                       rtol=0, atol=1e-12)
        assert out.logits.shape[0] == views[-1][1] + clean.n
        for ref, lo in views:
            rows = slice(lo, lo + ref.logits.shape[0])
            for field in ("logits", "confidence", "p"):
                np.testing.assert_allclose(getattr(out, field).data[rows],
                                           getattr(ref, field).data,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m,uniform", CASES)
    def test_step_loss_and_gradients_match_reference(self, m, uniform):
        model, batch, clean, pairs = self._setup(80 + m, m)
        got_loss, got = self._loss_and_grads(model, lambda: step_loss(
            model, batch, clean, pairs, lam=0.05, gamma=2.0,
            uniform_gate=uniform)[0])
        want_loss, want = self._loss_and_grads(
            model, lambda: self._reference_loss(model, batch, clean, pairs,
                                                uniform))
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        for name, g in want.items():
            if g is None:
                assert uniform and name.startswith("gate."), name
                assert got[name] is None, name
                continue
            scale = np.abs(g).max()
            assert scale > 0.0, name
            np.testing.assert_allclose(got[name], g, rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    def test_without_pairs_is_the_plain_composite_loss(self):
        model, batch, clean, _ = self._setup(90, 3)
        out = forward(model, batch)
        want, _ = composite_loss(out.logits, out.p, batch.labels, lam=0.05,
                                 gamma=0.0)
        got, bd = step_loss(model, batch, clean, None, lam=0.05, gamma=2.0)
        assert got.item() == want.item()
        assert bd.cec == 0.0

    def test_view_with_no_observed_modality_rejected(self):
        rng = np.random.default_rng(91)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        presence = np.array([[True, True], [True, False], [True, True]])
        batch = random_batch(rng, 3, cfg.dims, cfg.classes, presence=presence)
        with pytest.raises(ValueError, match="observed modality"):
            subset_confidences(model, batch, subset_lattice(2))
