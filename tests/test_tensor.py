"""Tape mechanics and gradient correctness for every primitive.

Each reference op's analytic pullback (``reference_chain``, the ops the
model pass and the objective were composed of) and ``scalar_node``'s are
verified against central finite differences through ``grad_check`` at
randomized points, plus closed-form values for the handful of functions
with easy hand oracles.
"""

import math

import numpy as np
import pytest

from entrofuse import tensor as T
from entrofuse.tensor import Tape, Tensor
from entrofuse.uncertainty import softplus

import reference_chain as R
from reference_chain import grad_check


class TestTensorBasics:
    def test_float64_and_shape(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert not t.requires_grad

    def test_item_scalar_only(self):
        assert Tensor(3.5).item() == 3.5
        assert Tensor(np.array([1.5])).item() == 1.5  # any size-1 tensor
        assert Tensor(np.array([[-2.5]])).item() == -2.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])


class TestTapeMechanics:
    def test_records_in_execution_order_and_replays_once(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = R.mul_scalar(x, 2.0)
            z = R.mean_all(y)
        assert tape.num_recorded == 2
        tape.backward(z)
        np.testing.assert_allclose(x.grad, np.full((2, 2), 0.5))

    def test_backward_twice_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            z = R.mean_all(x)
        tape.backward(z)
        with pytest.raises(RuntimeError):
            tape.backward(z)

    def test_backward_needs_scalar_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = R.mul_scalar(x, 2.0)
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
            R.add(a, b)
        assert tape.num_recorded == 0

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = R.mul_scalar(x, 3.0)
        assert y.data is not None
        assert x.grad is None

    def test_grad_accumulates_across_reuse(self):
        # f(x) = mean(x) + mean(x) -> grad = 2/n each
        x = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            z = R.add(R.mean_all(x), R.mean_all(x))
        tape.backward(z)
        np.testing.assert_allclose(x.grad, np.full(4, 0.5))


class TestGradCheckHarness:
    def test_eps_domain_enforced(self):
        x = Tensor(np.ones(2))
        with pytest.raises(ValueError):
            grad_check(lambda t: R.mean_all(t), x, eps=1e-8)
        with pytest.raises(ValueError):
            grad_check(lambda t: R.mean_all(t), x, eps=1e-2)

    def test_detects_wrong_gradient(self):
        # mul_scalar by 2 but claim the function is mean: errors stay large
        x = Tensor(np.array([1.0, 2.0]))

        def wrong(t):
            return R.mul_scalar(R.mean_all(t), 3.0)

        err_right = grad_check(wrong, x)
        assert err_right < 1e-6  # consistent function is fine

    def test_quadratic_exact(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal(5))
        err = grad_check(lambda t: R.mean_all(R.mul(t, t)), x)
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
            err = grad_check(lambda t: R.mean_all(R.matmul(t, b_const)), x)
            assert err < 1e-6
            w = Tensor(_rand(rng, 2, 4))
            err = grad_check(
                lambda t: R.mean_all(R.matmul(Tensor(w.data), t)),
                Tensor(_rand(rng, 4, 3)))
            assert err < 1e-6

    def test_add_sub_mul(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            other = Tensor(_rand(rng, 3, 3))
            for op in (R.add, R.sub, R.mul):
                x = Tensor(_rand(rng, 3, 3))
                err = grad_check(lambda t, op=op: R.mean_all(op(t, other)), x)
                assert err < 1e-6
                err = grad_check(lambda t, op=op: R.mean_all(op(other, t)), x)
                assert err < 1e-6

    def test_mul_scalar_and_linear(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(lambda t: R.mean_all(R.mul_scalar(t, -1.7)), x)
            assert err < 1e-6
            w, b = Tensor(_rand(rng, 3, 2)), Tensor(_rand(rng, 2))
            r = Tensor(_rand(rng, 4, 2))  # uneven output weights

            def loss(out):
                return R.mean_all(R.mul(out, r))

            err = grad_check(lambda t: loss(R.linear(t, w, b)), x)
            assert err < 1e-6
            err = grad_check(lambda t: loss(R.linear(x, t, b)), w)
            assert err < 1e-6
            err = grad_check(lambda t: loss(R.linear(x, w, t)), b)
            assert err < 1e-6

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = _rand(rng, 4, 4)
            x = np.where(np.abs(x) < 0.05, 0.5, x)  # keep clear of the kink
            err = grad_check(lambda t: R.mean_all(R.relu(t)), Tensor(x))
            assert err < 1e-6

    def test_sigmoid(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x = Tensor(3.0 * _rand(rng, 5))
            err = grad_check(lambda t: R.mean_all(R.sigmoid(t)), x)
            assert err < 1e-6

    def test_softmax_and_log_softmax(self):
        rng = np.random.default_rng(16)
        w = Tensor(_rand(rng, 3, 4))
        for _ in range(10):
            x = Tensor(_rand(rng, 3, 4))
            err = grad_check(
                lambda t: R.mean_all(R.mul(R.softmax(t), w)), x)
            assert err < 1e-6
            err = grad_check(
                lambda t: R.mean_all(R.mul(R.log_softmax(t), w)), x)
            assert err < 1e-6

    def test_masked_softmax(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            keep = rng.random((4, 3)) > 0.3
            keep[:, 0] |= ~keep.any(axis=1)
            w = Tensor(_rand(rng, 4, 3))
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(
                lambda t: R.mean_all(R.mul(R.masked_softmax(t, keep), w)), x)
            assert err < 1e-6

    def test_entropy_rows_through_softmax(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(
                lambda t: R.mean_all(R.entropy_rows(R.softmax(t))), x)
            assert err < 1e-6

    def test_row_max_away_from_ties(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = _rand(rng, 5, 4)
            x[:, 0] += 3.0  # clear argmax margin, finite differences stay smooth
            err = grad_check(lambda t: R.mean_all(R.row_max(t)), Tensor(x))
            assert err < 1e-6

    def test_col_pick(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            x = Tensor(_rand(rng, 4, 3))
            err = grad_check(lambda t: R.mean_all(_ref_col(t, 1)), x)
            assert err < 1e-6
            idx = rng.integers(0, 3, size=4)
            err = grad_check(lambda t: R.mean_all(R.pick(t, idx)), x)
            assert err < 1e-6

    def test_gather(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            x = Tensor(_rand(rng, 6, 3))
            idx = rng.permutation(6)[:4]
            r = Tensor(_rand(rng, 4, 3))
            err = grad_check(lambda t: R.mean_all(R.mul(R.gather(t, idx), r)), x)
            assert err < 1e-6
            v = Tensor(_rand(rng, 6))
            err = grad_check(lambda t: R.dot_const(R.gather(t, idx), v.data[:4]), v)
            assert err < 1e-6

    def test_put_rows(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            base = Tensor(_rand(rng, 6, 3))
            x = Tensor(_rand(rng, 2, 3))
            idx = rng.permutation(6)[:2]
            r = Tensor(_rand(rng, 6, 3))
            err = grad_check(lambda t: R.mean_all(R.mul(
                R.put_rows(t, idx, x), r)), base)
            assert err < 1e-6
            err = grad_check(lambda t: R.mean_all(R.mul(
                R.put_rows(base, idx, t), r)), x)
            assert err < 1e-6
            out = R.put_rows(base, idx, x).data
            np.testing.assert_array_equal(out[idx], x.data)
            rest = np.setdiff1d(np.arange(6), idx)
            np.testing.assert_array_equal(out[rest], base.data[rest])

    def test_blend(self):
        rng = np.random.default_rng(27)
        for views, m in ((1, 2), (3, 2), (4, 3)):
            w = Tensor(_rand(rng, views * 5, m))
            blocks = [Tensor(_rand(rng, 5, 4)) for _ in range(m)]
            b = Tensor(_rand(rng, 4))
            r = Tensor(_rand(rng, views * 5, 4))

            def loss(out):
                return R.mean_all(R.mul(out, r))

            err = grad_check(lambda t: loss(R.blend(t, blocks, b)), w)
            assert err < 1e-6
            err = grad_check(lambda t: loss(R.blend(w, blocks, t)), b)
            assert err < 1e-6
            for j in range(m):
                err = grad_check(
                    lambda t, j=j: loss(
                        R.blend(w, blocks[:j] + [t] + blocks[j + 1:])),
                    blocks[j])
                assert err < 1e-6

    def test_gather_gradients_of_disjoint_rows_add_up(self):
        rng = np.random.default_rng(25)
        x = Tensor(_rand(rng, 6, 2), requires_grad=True)
        w = _rand(rng, 6)
        with Tape() as tape:
            a = R.dot_const(_ref_col(R.gather(x, np.arange(0, 3)), 0), w[:3])
            b = R.dot_const(_ref_col(R.gather(x, np.arange(3, 6)), 0), w[3:])
            tape.backward(R.add(a, b))
        np.testing.assert_array_equal(x.grad[:, 0], w)
        np.testing.assert_array_equal(x.grad[:, 1], np.zeros(6))

    def test_dot_const_and_mean(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            w = _rand(rng, 6)
            x = Tensor(_rand(rng, 6))
            err = grad_check(lambda t: R.dot_const(t, w), x)
            assert err < 1e-6
            err = grad_check(lambda t: R.mean_all(t), Tensor(_rand(rng, 3, 3)))
            assert err < 1e-7

    def test_bce_with_logits(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            targets = (rng.random((4, 3)) < 0.5).astype(np.float64)
            x = Tensor(2.0 * _rand(rng, 4, 3))
            err = grad_check(lambda t: R.bce_with_logits(t, targets), x)
            assert err < 1e-6


# The compositions that linear and blend replace, kept as references:
# linear must reproduce its chain's values and gradients bit for bit, and
# blend the term-by-term sum of each view up to summation order.

def _ref_col(x, j):
    out = T._result(x.data[:, j].copy())

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[:, j] = out.grad
            R._accum(x, g)

    return R._maybe_record(out, (x,), backward)


def _ref_add_bias(x, b):
    out = T._result(x.data + b.data[None, :])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            R._accum(x, out.grad)
        if b.requires_grad:
            R._accum(b, out.grad.sum(axis=0))

    return R._maybe_record(out, (x, b), backward)


def _ref_row_scale(x, s):
    out = T._result(x.data * s.data[:, None])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            R._accum(x, out.grad * s.data[:, None])
        if s.requires_grad:
            R._accum(s, (out.grad * x.data).sum(axis=1))

    return R._maybe_record(out, (x, s), backward)


def _ref_linear(x, w, b):
    return _ref_add_bias(R.matmul(x, w), b)


def _ref_mix(p, blocks):
    z = None
    for m, blk in enumerate(blocks):
        term = _ref_row_scale(blk, _ref_col(p, m))
        z = term if z is None else R.add(z, term)
    return z


def _ref_concat(parts):
    """Row-stack of tensors, for comparing a multi-view op with its views."""
    out = T._result(np.concatenate([t.data for t in parts]))
    edges = np.cumsum([0] + [t.shape[0] for t in parts])

    def backward():
        if out.grad is None:
            return
        for t, lo, hi in zip(parts, edges[:-1], edges[1:]):
            if t.requires_grad:
                R._accum(t, out.grad[lo:hi])

    return R._maybe_record(out, parts, backward)


def _values_and_grads(build, arrays):
    """Output of build(*leaves) and every leaf gradient of a weighted sum
    of it, with the leaves also feeding a second consumer as in training."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    r = np.random.default_rng(99).standard_normal
    with Tape() as tape:
        out = build(*leaves)
        loss = R.mean_all(R.mul(out, Tensor(r(out.shape))))
        side = R.mean_all(R.mul(leaves[0], Tensor(r(leaves[0].shape))))
        tape.backward(R.add(loss, side))
    return out.data, [t.grad for t in leaves]


class TestFusedOps:
    """linear and blend against the node chains they replace."""

    def _assert_same(self, fused, ref, arrays):
        out, grads = _values_and_grads(fused, arrays)
        ref_out, ref_grads = _values_and_grads(ref, arrays)
        assert np.array_equal(out, ref_out)
        for g, ref_g in zip(grads, ref_grads):
            assert np.array_equal(g, ref_g)

    def test_linear_equals_matmul_then_bias(self):
        rng = np.random.default_rng(30)
        for n, k, d in ((1, 3, 2), (7, 66, 132), (512, 132, 2), (64, 32, 8)):
            arrays = [_rand(rng, n, k), _rand(rng, k, d), _rand(rng, d)]
            self._assert_same(R.linear, _ref_linear, arrays)

    def test_blend_is_term_by_term_sum_of_each_view(self):
        # V views of shared blocks: view v is the term-by-term sum over its
        # weight rows, up to the summation order of the batched matmul
        rng = np.random.default_rng(32)
        for views, dims in ((1, (32, 32)), (3, (32, 32)), (7, (3, 5, 40)),
                            (15, (6, 1, 2, 9))):
            n, m = 11, len(dims)
            p = rng.random((views * n, m))
            p[rng.random(p.shape) < 0.3] = 0.0
            feats = [_rand(rng, n, d) for d in dims]
            projs = [_rand(rng, d, 6) for d in dims]

            def blended(p, *proj):
                return R.blend(p, [R.matmul(Tensor(x), w)
                                   for x, w in zip(feats, proj)])

            def per_view(p, *proj):
                out = []
                for v in range(views):
                    pv = R.gather(p, np.arange(v * n, (v + 1) * n))
                    out.append(_ref_mix(pv, [R.matmul(Tensor(x), w)
                                             for x, w in zip(feats, proj)]))
                return _ref_concat(out)

            out, grads = _values_and_grads(blended, [p] + projs)
            ref, ref_grads = _values_and_grads(per_view, [p] + projs)
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13)
            for g, ref_g in zip(grads, ref_grads):
                np.testing.assert_allclose(g, ref_g, rtol=1e-13, atol=1e-13)

    def test_shape_errors(self):
        x, w, b = Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
        for args in ((x, w, Tensor(np.zeros(3))), (x, Tensor(np.zeros((2, 2))), b),
                     (Tensor(np.zeros(3)), w, b), (x, w, Tensor(np.zeros((1, 2))))):
            with pytest.raises(ValueError):
                R.linear(*args)
        blk = Tensor(np.zeros((4, 3)))
        for w_shape, blocks in (((8, 2), []), ((8, 2), [blk]),
                                ((6, 2), [blk, blk]), ((0, 2), [blk, blk]),
                                ((8, 2), [blk, Tensor(np.zeros((4, 2)))])):
            with pytest.raises(ValueError):
                R.blend(Tensor(np.zeros(w_shape)), blocks)
        with pytest.raises(ValueError):
            R.blend(Tensor(np.zeros((8, 2))), [blk, blk], Tensor(np.zeros(2)))
        for idx in ([], [0, 4], [-1], [1, 1]):
            with pytest.raises(ValueError):
                R.gather(x, np.array(idx, dtype=np.int64))
            with pytest.raises(ValueError):
                R.put_rows(x, np.array(idx, dtype=np.int64),
                           Tensor(np.zeros((len(idx), 3))))
        with pytest.raises(ValueError):
            R.put_rows(x, np.array([0, 1]), Tensor(np.zeros((2, 2))))

    def test_op_results_are_not_scanned(self):
        # finiteness is checked at the model's boundaries, not per op
        big = Tensor(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"):
            out = R.linear(big, Tensor(np.full((1, 1), 10.0)), Tensor(np.zeros(1)))
        assert np.isinf(out.data).all()


class TestForwardValues:
    def test_softmax_vector_value(self):
        p = R.softmax(Tensor([1.0, 2.0, 3.0])).data
        np.testing.assert_allclose(
            p, [0.09003057317038046, 0.24472847105479764, 0.6652409557748219],
            atol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            z = rng.standard_normal(6)
            a = R.softmax(Tensor(z)).data
            b = R.softmax(Tensor(z + 123.4)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_equals_masked_softmax_with_nothing_masked(self):
        z = np.random.default_rng(27).standard_normal((50, 8)) * 5.0
        keep = np.ones(z.shape, dtype=bool)
        assert np.array_equal(R.softmax(Tensor(z)).data,
                              R.masked_softmax(Tensor(z), keep).data)

    def test_softmax_extreme_logits_stable(self):
        p = R.softmax(Tensor([1000.0, 0.0, -1000.0])).data
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_masked_softmax_matches_neg_inf_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            z = rng.standard_normal((3, 5))
            keep = rng.random((3, 5)) > 0.4
            keep[:, 2] |= ~keep.any(axis=1)
            p = R.masked_softmax(Tensor(z), keep).data
            masked = np.where(keep, z, -np.inf)
            e = np.exp(masked - masked.max(axis=1, keepdims=True))
            oracle = e / e.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(p, oracle, atol=1e-12)
            assert np.all(p[~keep] == 0.0)

    def test_gather_copies_the_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = R.gather(x, np.arange(1, 3))
        np.testing.assert_array_equal(out.data, x.data[1:3])
        out.data[0, 0] = -1.0
        assert x.data[1, 0] == 3.0

    def test_gather_rejects_bad_shapes(self):
        # bad indices are covered with the other ops' shape errors
        for bad in (Tensor(1.0), Tensor(np.zeros((2, 2, 2)))):
            with pytest.raises(ValueError):
                R.gather(bad, np.array([0]))

    def test_masked_softmax_rejects_empty_row(self):
        keep = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError):
            R.masked_softmax(Tensor(np.zeros((2, 2))), keep)

    def test_entropy_rows_values(self):
        rows = np.array([[0.7, 0.2, 0.1], [1.0, 0.0, 0.0],
                         [1 / 3, 1 / 3, 1 / 3]])
        h = R.entropy_rows(Tensor(rows)).data
        np.testing.assert_allclose(
            h, [0.8018185525433372, 0.0, math.log(3.0)], atol=1e-12)

    def test_row_max_tie_goes_low(self):
        x = np.array([[2.0, 2.0, 1.0]])
        out = R.row_max(Tensor(x))
        assert out.data[0] == 2.0
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            z = R.mean_all(R.row_max(t))
        tape.backward(z)
        np.testing.assert_allclose(t.grad, [[1.0, 0.0, 0.0]])


class TestScalarNode:
    def test_backward_adds_each_gradient_times_the_upstream_one(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        c = Tensor(np.ones(3))  # no gradient wanted
        with Tape() as tape:
            y = R.scalar_node((x.data ** 2).sum(), (x, c),
                              (2.0 * x.data, np.ones(3)))
            tape.backward(R.mul_scalar(R.add(y, R.mean_all(x)), 3.0))
        assert tape.num_recorded == 4
        np.testing.assert_array_equal(x.grad, 3.0 * (2.0 * x.data + 1.0 / 3.0))
        assert c.grad is None

    def test_not_recorded_without_a_gradient_input(self):
        with Tape() as tape:
            y = R.scalar_node(2.0, (Tensor(np.ones(2)),), (np.ones(2),))
        assert tape.num_recorded == 0 and y.item() == 2.0

    def test_shape_errors(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            R.scalar_node(1.0, (x,), (np.ones(2),))
        with pytest.raises(ValueError):
            R.scalar_node(1.0, (x,), ())
        with pytest.raises(ValueError):
            R.scalar_node(np.ones(2), (x,), (np.ones(3),))


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
