"""Tape mechanics and gradient correctness for every primitive.

Each op's analytic pullback is verified against central finite differences
through ``grad_check`` at randomized points, plus closed-form values for
the handful of functions with easy hand oracles.
"""

import math

import numpy as np
import pytest

from entrofuse import tensor as T
from entrofuse.tensor import Tape, Tensor, entropy, grad_check, softplus


class TestTensorBasics:
    def test_float64_and_shape(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert not t.requires_grad

    def test_item_scalar_only(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])

    def test_zero_grad_clears(self):
        t = Tensor([1.0], requires_grad=True)
        t.grad = np.ones(1)
        t.zero_grad()
        assert t.grad is None


class TestTapeMechanics:
    def test_records_in_execution_order_and_replays_once(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = T.mul_scalar(x, 2.0)
            z = T.mean_all(y)
        assert tape.num_recorded == 2
        tape.backward(z)
        assert tape.backward_calls == 2
        np.testing.assert_allclose(x.grad, np.full((2, 2), 0.5))

    def test_backward_twice_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            z = T.mean_all(x)
        tape.backward(z)
        with pytest.raises(RuntimeError):
            tape.backward(z)

    def test_backward_needs_scalar_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.mul_scalar(x, 2.0)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_constants_not_recorded(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            T.add(a, b)
        assert tape.num_recorded == 0

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = T.mul_scalar(x, 3.0)
        assert y.data is not None
        assert x.grad is None

    def test_grad_accumulates_across_reuse(self):
        # f(x) = mean(x) + mean(x) -> grad = 2/n each
        x = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            z = T.add(T.mean_all(x), T.mean_all(x))
        tape.backward(z)
        np.testing.assert_allclose(x.grad, np.full(4, 0.5))


class TestGradCheckHarness:
    def test_eps_domain_enforced(self):
        x = Tensor(np.ones(2))
        with pytest.raises(ValueError):
            grad_check(lambda t: T.mean_all(t), x, eps=1e-8)
        with pytest.raises(ValueError):
            grad_check(lambda t: T.mean_all(t), x, eps=1e-2)

    def test_detects_wrong_gradient(self):
        # mul_scalar by 2 but claim the function is mean: errors stay large
        x = Tensor(np.array([1.0, 2.0]))

        def wrong(t):
            return T.mul_scalar(T.mean_all(t), 3.0)

        err_right = grad_check(wrong, x)
        assert err_right < 1e-6  # consistent function is fine

    def test_quadratic_exact(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal(5))
        err = grad_check(lambda t: T.mean_all(T.mul(t, t)), x)
        assert err < 1e-7


def _rand(rng, *shape):
    return rng.standard_normal(shape)


class TestPrimitiveGradients:
    """Central-difference checks at 10 random points per op."""

    def test_matmul(self):
        rng = np.random.default_rng(11)
        b_const = Tensor(_rand(rng, 4, 3))
        for _ in range(10):
            x = Tensor(_rand(rng, 2, 4))
            err = grad_check(lambda t: T.mean_all(T.matmul(t, b_const)), x)
            assert err < 1e-6
            w = Tensor(_rand(rng, 2, 4))
            err = grad_check(
                lambda t: T.mean_all(T.matmul(Tensor(w.data), t)),
                Tensor(_rand(rng, 4, 3)))
            assert err < 1e-6

    def test_add_sub_mul(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            other = Tensor(_rand(rng, 3, 3))
            for op in (T.add, T.sub, T.mul):
                x = Tensor(_rand(rng, 3, 3))
                err = grad_check(lambda t, op=op: T.mean_all(op(t, other)), x)
                assert err < 1e-6
                err = grad_check(lambda t, op=op: T.mean_all(op(other, t)), x)
                assert err < 1e-6

    def test_mul_scalar_and_add_bias(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(lambda t: T.mean_all(T.mul_scalar(t, -1.7)), x)
            assert err < 1e-6
            b = Tensor(_rand(rng, 3))
            err = grad_check(lambda t: T.mean_all(T.add_bias(t, b)), x)
            assert err < 1e-6
            err = grad_check(
                lambda t: T.mean_all(T.add_bias(Tensor(x.data), t)), b)
            assert err < 1e-6

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = _rand(rng, 4, 4)
            x = np.where(np.abs(x) < 0.05, 0.5, x)  # keep clear of the kink
            err = grad_check(lambda t: T.mean_all(T.relu(t)), Tensor(x))
            assert err < 1e-6

    def test_sigmoid(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x = Tensor(3.0 * _rand(rng, 5))
            err = grad_check(lambda t: T.mean_all(T.sigmoid(t)), x)
            assert err < 1e-6

    def test_softmax_and_log_softmax(self):
        rng = np.random.default_rng(16)
        w = Tensor(_rand(rng, 3, 4))
        for _ in range(10):
            x = Tensor(_rand(rng, 3, 4))
            err = grad_check(
                lambda t: T.mean_all(T.mul(T.softmax(t), w)), x)
            assert err < 1e-6
            err = grad_check(
                lambda t: T.mean_all(T.mul(T.log_softmax(t), w)), x)
            assert err < 1e-6

    def test_masked_softmax(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            keep = rng.random((4, 3)) > 0.3
            keep[:, 0] |= ~keep.any(axis=1)
            w = Tensor(_rand(rng, 4, 3))
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(
                lambda t: T.mean_all(T.mul(T.masked_softmax(t, keep), w)), x)
            assert err < 1e-6

    def test_entropy_rows_through_softmax(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(
                lambda t: T.mean_all(T.entropy_rows(T.softmax(t))), x)
            assert err < 1e-6

    def test_row_max_away_from_ties(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = _rand(rng, 5, 4)
            x[:, 0] += 3.0  # clear argmax margin, finite differences stay smooth
            err = grad_check(lambda t: T.mean_all(T.row_max(t)), Tensor(x))
            assert err < 1e-6

    def test_col_pick_row_scale(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(lambda t: T.mean_all(T.col(t, 1)), x)
            assert err < 1e-6
            idx = rng.integers(0, 3, size=4)
            err = grad_check(lambda t: T.mean_all(T.pick(t, idx)), x)
            assert err < 1e-6
            s = Tensor(_rand(rng, 4))
            err = grad_check(lambda t: T.mean_all(T.row_scale(t, s)), x)
            assert err < 1e-6
            err = grad_check(
                lambda t: T.mean_all(T.row_scale(Tensor(x.data), t)), s)
            assert err < 1e-6

    def test_rows(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            x = Tensor(_rand(rng, 6, 3))
            err = grad_check(lambda t: T.mean_all(T.rows(t, 2, 5)), x)
            assert err < 1e-6
            v = Tensor(_rand(rng, 6))
            err = grad_check(lambda t: T.mean_all(T.rows(t, 0, 4)), v)
            assert err < 1e-6

    def test_rows_gradients_of_disjoint_slices_add_up(self):
        rng = np.random.default_rng(25)
        x = Tensor(_rand(rng, 6, 2), requires_grad=True)
        w = _rand(rng, 6)
        with Tape() as tape:
            a = T.dot_const(T.col(T.rows(x, 0, 3), 0), w[:3])
            b = T.dot_const(T.col(T.rows(x, 3, 6), 0), w[3:])
            tape.backward(T.add(a, b))
        np.testing.assert_array_equal(x.grad[:, 0], w)
        np.testing.assert_array_equal(x.grad[:, 1], np.zeros(6))

    def test_dot_const_and_mean(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            w = _rand(rng, 6)
            x = Tensor(_rand(rng, 6))
            err = grad_check(lambda t: T.dot_const(t, w), x)
            assert err < 1e-6
            err = grad_check(lambda t: T.mean_all(t), Tensor(_rand(rng, 3, 3)))
            assert err < 1e-7

    def test_bce_with_logits(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            targets = (rng.random((4, 3)) < 0.5).astype(np.float64)
            x = Tensor(2.0 * _rand(rng, 4, 3))
            err = grad_check(lambda t: T.bce_with_logits(t, targets), x)
            assert err < 1e-6

    def test_dropout_fixed_mask(self):
        # with the rng draw frozen, dropout is a linear map: exact gradient
        rng = np.random.default_rng(23)
        x = Tensor(_rand(rng, 4, 4), requires_grad=True)
        mask_rng = np.random.default_rng(99)
        with Tape() as tape:
            y = T.dropout(x, 0.5, mask_rng)
            z = T.mean_all(y)
        tape.backward(z)
        scale = y.data / np.where(x.data == 0.0, 1.0, x.data)
        np.testing.assert_allclose(x.grad, scale / x.data.size)


class TestForwardValues:
    def test_softmax_vector_value(self):
        p = T.softmax(Tensor([1.0, 2.0, 3.0])).data
        np.testing.assert_allclose(
            p, [0.09003057317038046, 0.24472847105479764, 0.6652409557748219],
            atol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            z = rng.standard_normal(6)
            a = T.softmax(Tensor(z)).data
            b = T.softmax(Tensor(z + 123.4)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_extreme_logits_stable(self):
        p = T.softmax(Tensor([1000.0, 0.0, -1000.0])).data
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_masked_softmax_matches_neg_inf_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            z = rng.standard_normal((3, 5))
            keep = rng.random((3, 5)) > 0.4
            keep[:, 2] |= ~keep.any(axis=1)
            p = T.masked_softmax(Tensor(z), keep).data
            masked = np.where(keep, z, -np.inf)
            e = np.exp(masked - masked.max(axis=1, keepdims=True))
            oracle = e / e.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(p, oracle, atol=1e-12)
            assert np.all(p[~keep] == 0.0)

    def test_rows_copies_the_slice(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.rows(x, 1, 3)
        np.testing.assert_array_equal(out.data, x.data[1:3])
        out.data[0, 0] = -1.0
        assert x.data[1, 0] == 3.0

    def test_rows_rejects_bad_ranges_and_shapes(self):
        x = Tensor(np.zeros((4, 3)))
        for lo, hi in ((-1, 2), (2, 2), (3, 1), (0, 5)):
            with pytest.raises(ValueError):
                T.rows(x, lo, hi)
        for bad in (Tensor(1.0), Tensor(np.zeros((2, 2, 2)))):
            with pytest.raises(ValueError):
                T.rows(bad, 0, 1)

    def test_masked_softmax_rejects_empty_row(self):
        keep = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError):
            T.masked_softmax(Tensor(np.zeros((2, 2))), keep)

    def test_entropy_rows_values(self):
        rows = np.array([[0.7, 0.2, 0.1], [1.0, 0.0, 0.0],
                         [1 / 3, 1 / 3, 1 / 3]])
        h = T.entropy_rows(Tensor(rows)).data
        np.testing.assert_allclose(
            h, [0.8018185525433372, 0.0, math.log(3.0)], atol=1e-12)

    def test_row_max_tie_goes_low(self):
        x = np.array([[2.0, 2.0, 1.0]])
        out = T.row_max(Tensor(x))
        assert out.data[0] == 2.0
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            z = T.mean_all(T.row_max(t))
        tape.backward(z)
        np.testing.assert_allclose(t.grad, [[1.0, 0.0, 0.0]])

    def test_dropout_rate_zero_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_preserves_mean(self):
        rng = np.random.default_rng(26)
        x = Tensor(np.ones((200, 200)))
        y = T.dropout(x, 0.3, rng)
        assert abs(y.data.mean() - 1.0) < 0.01


class TestScalarHelpers:
    def test_softplus_values(self):
        assert abs(softplus(0.0) - math.log(2.0)) < 1e-15
        assert abs(softplus(2.0) - 2.1269280110429727) < 1e-12
        assert softplus(-100.0) == pytest.approx(math.exp(-100.0), rel=1e-10)
        assert softplus(100.0) == pytest.approx(100.0, rel=1e-12)

    def test_softplus_monotone_positive(self):
        x = np.linspace(-30, 30, 1001)
        y = softplus(x)
        assert np.all(y > 0.0)
        assert np.all(np.diff(y) > 0.0)

    def test_entropy_values(self):
        assert entropy([0.7, 0.2, 0.1]) == pytest.approx(0.8018185525433372,
                                                         abs=1e-12)
        assert entropy([1.0, 0.0]) == 0.0
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4.0),
                                                          abs=1e-12)

    def test_entropy_validates_simplex(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.4])
        with pytest.raises(ValueError):
            entropy([-0.1, 1.1])
