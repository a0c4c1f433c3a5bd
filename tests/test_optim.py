"""Decoupled-weight-decay Adam against hand-computed references."""

import math

import numpy as np
import pytest

from entrofuse.model import FusionConfig, FusionModel
from entrofuse.optim import adamw_step, cosine_lr


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
        state = {}
        adamw_step(p, g, state, lr=0.1)
        np.testing.assert_allclose(p, expected, atol=1e-15)
        assert state["step"] == 1

    def test_multi_step_matches_reference(self):
        rng = np.random.default_rng(31)
        p = rng.standard_normal(6)
        ref_p, ref_m, ref_v = p.copy(), np.zeros(6), np.zeros(6)
        state = {}
        for step in range(1, 21):
            g = rng.standard_normal(6)
            ref_p, ref_m, ref_v = _reference_step(
                ref_p, g, ref_m, ref_v, step, 0.05, 0.9, 0.999, 0.01, 1e-8)
            adamw_step(p, g, state, lr=0.05, weight_decay=0.01)
        np.testing.assert_allclose(p, ref_p, atol=1e-12)

    def test_first_step_size_is_about_lr(self):
        # bias correction makes the first step lr * g/|g| up to eps
        for scale in (1e-4, 1.0, 1e4):
            p = np.array([0.0])
            adamw_step(p, np.array([scale]), {}, lr=0.1)
            assert abs(abs(p[0]) - 0.1) < 1e-4

    def test_weight_decay_decoupled_from_gradient(self):
        # zero gradient: moments stay zero, only the decay term moves p
        p = np.array([2.0])
        adamw_step(p, np.array([0.0]), {}, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p, [2.0 * (1.0 - 0.1 * 0.5)], atol=1e-15)

    def test_state_buffers_allocated_once(self):
        p, state = np.array([1.0]), {}
        adamw_step(p, np.array([1.0]), state, lr=0.1)
        buffers = [state[key] for key in "mvst"]
        adamw_step(p, np.array([1.0]), state, lr=0.1)
        assert all(state[key] is b for key, b in zip("mvst", buffers))
        assert state["step"] == 2

    def test_each_state_keeps_its_own_lr(self):
        # two groups, two states: the first step moves each by its own lr
        fast, slow = np.array([1.0]), np.array([1.0])
        adamw_step(fast, np.array([1.0]), {}, lr=0.1)
        adamw_step(slow, np.array([1.0]), {}, lr=0.01)
        assert 1.0 - fast[0] == pytest.approx(10.0 * (1.0 - slow[0]),
                                              rel=1e-6)

    def test_quadratic_convergence(self):
        rng = np.random.default_rng(32)
        target = rng.standard_normal(8)
        p = np.zeros(8)
        state = {}
        for _ in range(800):
            adamw_step(p, p - target, state, lr=0.05)
        np.testing.assert_allclose(p, target, atol=1e-3)

    def test_validations(self):
        with pytest.raises(ValueError):
            adamw_step(np.ones(2), np.ones(2), {}, lr=0.0)
        with pytest.raises(ValueError, match="shape"):
            adamw_step(np.ones(2), np.ones(3), {}, lr=0.1)
        with pytest.raises(ValueError, match="non-finite"):
            adamw_step(np.ones(2), np.array([1.0, np.nan]), {}, lr=0.1)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            p = np.array([1.0, 2.0])
            state = {}
            for k in range(5):
                adamw_step(p, np.array([0.3, -0.2]) * (k + 1), state,
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


class TestModelGroups:
    """``adamw_step`` over a model's flat group buffers (``model.base``,
    ``model.gate``) gives the per-parameter kernel's numbers, bit for bit."""

    @staticmethod
    def _model():
        # the benchmark's training shapes: 2 x 32 features, 8 classes
        cfg = FusionConfig(modalities=2, dims=(32, 32), classes=8,
                           fused_dim=32, gate_hidden=64)
        return FusionModel(cfg, np.random.default_rng(34))

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_per_parameter_kernel_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(35)
        model = self._model()
        params = dict(model.parameters())
        gate = [name for name in params if name.startswith("gate_")]
        groups = [(model.base, [k for k in params if k not in gate], 5e-3),
                  (model.gate, gate, 5e-2)]
        refs = [[params[k].copy() for k in names] for _, names, _ in groups]
        states = [({}, {}) for _ in groups]
        for step in range(20):
            lr_scale = cosine_lr(1.0, step, 20)
            model.zero_grad()
            for (buffers, names, lr), ref, (state, ref_state) in zip(
                    groups, refs, states):
                grads = []
                for name in names:
                    grad = model.grad[name]
                    if name != "gate_b2":  # never reached by a gradient
                        scale = 10.0 ** rng.integers(-4, 2)
                        grad[...] = rng.standard_normal(grad.shape) * scale
                    grads.append(grad.copy())
                _per_parameter_step(ref, grads, ref_state, lr * lr_scale,
                                    (0.9, 0.999), weight_decay)
                adamw_step(buffers.params, buffers.grads, state,
                           lr * lr_scale, weight_decay=weight_decay)
            for (_, names, _), ref in zip(groups, refs):
                for name, want in zip(names, ref):
                    assert np.array_equal(params[name], want), step
        # no gradient and a zero start: decay and moments leave it at 0
        assert np.array_equal(model.gate_b2, np.zeros(2))

    def test_fresh_gradients_are_zero_and_leave_the_parameters(self):
        model = self._model()
        before = model.base.params.copy()
        assert not model.base.grads.any() and not model.gate.grads.any()
        adamw_step(model.base.params, model.base.grads, {}, lr=0.1)
        assert np.array_equal(model.base.params, before)
