"""Decoupled-weight-decay Adam against hand-computed references."""

import math

import numpy as np
import pytest

from entrofuse.model import FusionConfig, FusionModel
from entrofuse.optim import AdamW, AdamWState, adamw_step, cosine_lr
from entrofuse.tensor import Tensor


def _reference_step(p, g, m, v, step, lr, b1, b2, wd, eps):
    """Textbook update: bias-corrected moments, decay applied to the
    parameter itself (not the gradient)."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** step)
    v_hat = v / (1 - b2 ** step)
    p = p - lr * wd * p
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def _per_parameter_step(params, grads, state, lr, betas, weight_decay,
                        eps=1e-8):
    """AdamW's kernel as it ran before the flat group buffers: one pass per
    parameter with fresh temporaries. ``state`` is a dict of step, m, v."""
    if not state:
        state.update(step=0, m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])
    state["step"] += 1
    b1, b2 = betas
    bc1 = 1.0 - b1 ** state["step"]
    bc2 = 1.0 - b2 ** state["step"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if weight_decay != 0.0:
            p -= lr * weight_decay * p
        p -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)


class TestAdamWStep:
    def test_single_step_matches_hand_formula(self):
        p = np.array([1.0, -2.0, 0.5])
        g = np.array([0.5, 0.1, -0.3])
        expected, _, _ = _reference_step(p.copy(), g, np.zeros(3), np.zeros(3),
                                         1, 0.1, 0.9, 0.999, 0.0, 1e-8)
        out, state = adamw_step([p], [g], AdamWState(), lr=0.1)
        np.testing.assert_allclose(out[0], expected, atol=1e-15)
        assert state.step == 1

    def test_multi_step_matches_reference(self):
        rng = np.random.default_rng(31)
        p = rng.standard_normal(6)
        ref_p, ref_m, ref_v = p.copy(), np.zeros(6), np.zeros(6)
        state = AdamWState()
        for step in range(1, 21):
            g = rng.standard_normal(6)
            ref_p, ref_m, ref_v = _reference_step(
                ref_p, g, ref_m, ref_v, step, 0.05, 0.9, 0.999, 0.01, 1e-8)
            adamw_step([p], [g], state, lr=0.05, weight_decay=0.01)
        np.testing.assert_allclose(p, ref_p, atol=1e-12)

    def test_first_step_size_is_about_lr(self):
        # bias correction makes the first step lr * g/|g| up to eps
        for scale in (1e-4, 1.0, 1e4):
            p = np.array([0.0])
            adamw_step([p], [np.array([scale])], AdamWState(), lr=0.1)
            assert abs(abs(p[0]) - 0.1) < 1e-4

    def test_weight_decay_decoupled_from_gradient(self):
        # zero gradient: moments stay zero, only the decay term moves p
        p = np.array([2.0])
        adamw_step([p], [np.array([0.0])], AdamWState(), lr=0.1,
                   weight_decay=0.5)
        np.testing.assert_allclose(p, [2.0 * (1.0 - 0.1 * 0.5)], atol=1e-15)

    def test_updates_in_place(self):
        p = np.array([1.0])
        out, _ = adamw_step([p], [np.array([1.0])], AdamWState(), lr=0.1)
        assert out[0] is p

    def test_quadratic_convergence(self):
        rng = np.random.default_rng(32)
        target = rng.standard_normal(8)
        p = np.zeros(8)
        state = AdamWState()
        for _ in range(800):
            adamw_step([p], [p - target], state, lr=0.05)
        np.testing.assert_allclose(p, target, atol=1e-3)

    def test_validations(self):
        with pytest.raises(ValueError):
            adamw_step([np.ones(2)], [np.ones(2)], AdamWState(), lr=0.0)
        with pytest.raises(ValueError):
            adamw_step([np.ones(2)], [np.ones(3)], AdamWState(), lr=0.1)
        with pytest.raises(ValueError):
            adamw_step([np.ones(2)], [np.array([1.0, np.nan])],
                       AdamWState(), lr=0.1)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            p = np.array([1.0, 2.0])
            state = AdamWState()
            for k in range(5):
                adamw_step([p], [np.array([0.3, -0.2]) * (k + 1)], state,
                           lr=0.02, weight_decay=0.01)
            results.append(p.copy())
        np.testing.assert_array_equal(results[0], results[1])


class TestCosineLR:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
        assert cosine_lr(0.1, 10, 10) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05)

    def test_formula_at_random_points(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            t_total = int(rng.integers(1, 100))
            t = int(rng.integers(0, t_total + 1))
            lr0 = float(rng.uniform(1e-5, 1.0))
            expected = lr0 * 0.5 * (1.0 + math.cos(math.pi * t / t_total))
            assert cosine_lr(lr0, t, t_total) == pytest.approx(expected,
                                                               abs=1e-15)

    def test_monotone_nonincreasing(self):
        values = [cosine_lr(1.0, t, 50) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestAdamWGroups:
    def test_groups_use_own_lr(self):
        fast = Tensor(np.array([1.0]), requires_grad=True)
        slow = Tensor(np.array([1.0]), requires_grad=True)
        fast.grad = np.array([1.0])
        slow.grad = np.array([1.0])
        opt = AdamW(groups=[{"params": [fast], "lr": 0.1},
                            {"params": [slow], "lr": 0.01}],
                    weight_decay=0.0)
        opt.step()
        move_fast = abs(1.0 - fast.data[0])
        move_slow = abs(1.0 - slow.data[0])
        assert move_fast == pytest.approx(10.0 * move_slow, rel=1e-6)

    def test_lr_scale_factor(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        AdamW(groups=[{"params": [a], "lr": 0.1}], weight_decay=0.0).step(
            lr_scale=0.5)
        AdamW(groups=[{"params": [b], "lr": 0.05}], weight_decay=0.0).step()
        np.testing.assert_allclose(a.data, b.data, atol=1e-15)

    def test_missing_grad_treated_as_zero(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        opt = AdamW(groups=[{"params": [t], "lr": 0.1}], weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(t.data, [3.0], atol=1e-15)

    def test_zero_grad_clears_all_groups(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        t.grad = np.array([1.0])
        opt = AdamW(groups=[{"params": [t], "lr": 0.1}])
        opt.zero_grad()
        assert t.grad is None


class TestFlatGroups:
    """Each group's parameters live in one flat buffer that one
    ``adamw_step`` updates; the numbers are those of the per-parameter
    kernel, bit for bit."""

    @staticmethod
    def _model():
        # the benchmark's training shapes: 2 x 32 features, 8 classes
        cfg = FusionConfig(modalities=2, dims=(32, 32), classes=8,
                           fused_dim=32, gate_hidden=64)
        return FusionModel.init(cfg, np.random.default_rng(34))

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_per_parameter_kernel_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(35)
        model = self._model()
        groups = [model.base_parameters(), model.gate_parameters()]
        lrs = [5e-3, 5e-2]
        refs = [[t.data.copy() for t in group] for group in groups]
        states = [{} for _ in groups]
        opt = AdamW(groups=[{"params": g, "lr": lr}
                            for g, lr in zip(groups, lrs)],
                    weight_decay=weight_decay)
        for step in range(20):
            lr_scale = cosine_lr(1.0, step, 20)
            for group, ref, state, lr in zip(groups, refs, states, lrs):
                grads = []
                for t in group:
                    if t is model.gate_b2:  # never reached by a gradient
                        t.grad = None
                        grads.append(np.zeros(t.shape))
                    else:
                        scale = 10.0 ** rng.integers(-4, 2)
                        t.grad = rng.standard_normal(t.shape) * scale
                        grads.append(t.grad.copy())
                _per_parameter_step(ref, grads, state, lr * lr_scale,
                                    (0.9, 0.999), weight_decay)
            opt.step(lr_scale=lr_scale)
            opt.zero_grad()
            for group, ref in zip(groups, refs):
                for t, want in zip(group, ref):
                    assert np.array_equal(t.data, want), step
        # no gradient and a zero start: decay and moments leave it at 0
        assert np.array_equal(model.gate_b2.data, np.zeros(2))

    def test_parameters_become_views_of_one_buffer_per_group(self):
        model = self._model()
        before = [t.data.copy() for _, t in model.parameters()]
        base, gate = model.base_parameters(), model.gate_parameters()
        AdamW(groups=[{"params": base, "lr": 0.1}, {"params": gate, "lr": 0.1}])
        for (_, t), want in zip(model.parameters(), before):
            assert np.array_equal(t.data, want)
            assert t.grad is None
        for group in (base, gate):
            owner = group[0].data.base
            assert owner is not None and owner.ndim == 1
            assert all(t.data.base is owner for t in group)
        assert base[0].data.base is not gate[0].data.base

    def test_tensor_listed_twice_rejected(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="twice"):
            AdamW(groups=[{"params": [a, b, a], "lr": 0.1}])
        with pytest.raises(ValueError, match="twice"):
            AdamW(groups=[{"params": [a], "lr": 0.1},
                          {"params": [b, a], "lr": 0.01}])

    def test_empty_group_rejected(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match="no parameters"):
            AdamW(groups=[{"params": [a], "lr": 0.1}, {"params": [], "lr": 0.1}])

    def test_rebound_parameter_rejected_on_step(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW(groups=[{"params": [a, b], "lr": 0.1}])
        a.grad = np.ones(2)
        opt.step()
        b.data = b.data.copy()  # a detached copy the optimizer cannot see
        with pytest.raises(RuntimeError, match="rebound"):
            opt.step()

    def test_gradient_of_the_wrong_shape_rejected(self):
        a = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW(groups=[{"params": [a], "lr": 0.1}])
        a.grad = np.ones(())
        with pytest.raises(ValueError, match="shape"):
            opt.step()
