"""Reductions over a short trailing axis, the M modalities or the C classes,
run across rows on a ``last_axis_first`` copy. Each must equal, under
``np.array_equal``, the row-wise expression it replaced, on random inputs
with -inf masks, exact zeros (and -0.0), tied maxima and single-modality
rows, for n in {1, 3, 128, 1000}, M = 2-7 and C in {2, 8, 10}. The float
sums over M (the gate softmax's denominator, its pullback's row sum and
``entropy_rows``) add up to 7 terms in the same order either way. The
arrays the model hands on stay C-contiguous.
"""

import numpy as np
import pytest

import entrofuse.model as model_module
import entrofuse.tensor as T
from entrofuse.data import bernoulli_mask, keep_observed, last_axis_first
from entrofuse.losses import task_term
from entrofuse.metrics import audit_confidences, confidence_correct
from entrofuse.model import (ForwardOutput, FusionConfig, class_probs,
                             entropy_rows, forward, forward_pullback,
                             forward_views, gate_rows)
from entrofuse.subsets import subset_lattice

from test_model import random_batch, random_model, random_presence

ROWS = (1, 3, 128, 1000)
MODALITIES = range(2, 8)
CLASSES = (2, 8, 10)


def _presence(rng, n, m):
    """Random presence leaving no row empty: row 0 observes one modality
    and the last row every one (at n = 1 that row is both, so full)."""
    presence = random_presence(rng, n, m)
    presence[0] = np.arange(m) == rng.integers(m)
    presence[-1] = True
    return presence


def _logits(rng, n, c):
    """Normal logits with exact zeros and -0.0, a tied maximum in about a
    third of the rows, and a middle row whose entries are all equal."""
    z = rng.normal(scale=3.0, size=(n, c))
    z[rng.random((n, c)) < 0.1] = 0.0
    z[rng.random((n, c)) < 0.05] = -0.0
    tied = rng.random(n) < 0.3
    z[tied, -1] = z[tied].max(axis=1)
    z[n // 2] = z[n // 2, 0]
    return z


def _simplex(rng, n, m):
    """Row-stochastic [n, m] weights with exact zeros where the random
    presence drops a modality, so single-modality rows are one-hot."""
    keep = _presence(rng, n, m)
    w = np.where(keep, rng.random((n, m)), 0.0)
    return w / w.sum(axis=1, keepdims=True)


def _old_class_probs(z):
    probs = z - z[np.arange(len(z)), z.argmax(axis=1), None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _old_masked_softmax(s, keep):
    s = s.copy()
    s[~keep] = -np.inf
    s -= s.max(axis=1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _model_and_batch(rng, n, m, c):
    cfg = FusionConfig(modalities=m, dims=(2,) * m, classes=c, fused_dim=4,
                       gate_hidden=6)
    return (random_model(rng, cfg),
            random_batch(rng, n, cfg.dims, c, _presence(rng, n, m)))


def test_last_axis_first_is_a_c_ordered_moveaxis_copy():
    a = np.arange(24.0).reshape(2, 3, 4)
    for x in (a, a[0], a.transpose(1, 0, 2)):
        y = last_axis_first(x)
        assert np.array_equal(y, np.moveaxis(x, -1, 0))
        assert y.flags.c_contiguous and not np.shares_memory(x, y)


@pytest.mark.parametrize("n", ROWS)
class TestSameAsRowWise:
    def test_class_max_shift(self, n):
        rng = np.random.default_rng(n)
        for c in CLASSES:
            z = _logits(rng, n, c)
            old = z - z[np.arange(n), z.argmax(axis=1), None]
            assert np.array_equal(
                z - last_axis_first(z).max(axis=0)[:, None], old)
            assert np.array_equal(class_probs(z, False), _old_class_probs(z))
            labels = rng.integers(0, c, size=n)
            log_probs = old - np.log(np.exp(old).sum(axis=1, keepdims=True))
            grad = np.exp(log_probs) * (1.0 / n)
            grad[np.arange(n), labels] -= 1.0 / n
            value, got = task_term(z, labels)
            assert value == -log_probs[np.arange(n), labels].mean()
            assert np.array_equal(got, grad)

    @pytest.mark.parametrize("multilabel", [False, True])
    def test_confidence(self, n, multilabel):
        rng = np.random.default_rng(n + 1)
        for c in CLASSES:
            z = _logits(rng, n, c)
            probs = (class_probs(z, True) if multilabel
                     else _old_class_probs(z))
            out = ForwardOutput(p=T.Tensor(np.ones((n, 1))),
                                logits=T.Tensor(z), multilabel=multilabel)
            assert np.array_equal(out.confidence.data, probs.max(axis=1))
            labels = (rng.random((n, c)) < 0.5).astype(np.float64) \
                if multilabel else rng.integers(0, c, size=n)
            for t in (1.0, 0.7):
                conf, _ = confidence_correct(z, labels, multilabel, t)
                scaled = (class_probs(z / t, True) if multilabel
                          else _old_class_probs(z / t))
                assert np.array_equal(conf, scaled.max(axis=1))

    def test_masked_softmax_and_its_row_sum(self, n):
        rng = np.random.default_rng(n + 2)
        for m in MODALITIES:
            keep = _presence(rng, n, m)
            s = _logits(rng, n, m)
            new = last_axis_first(np.where(keep, s, -np.inf))
            new -= new.max(axis=0)
            np.exp(new, out=new)
            new /= new.sum(axis=0)
            p = _old_masked_softmax(s, keep)
            assert np.array_equal(last_axis_first(new), p)
            g = np.where(keep, rng.normal(size=(n, m)), 0.0)
            g[rng.random((n, m)) < 0.1] = 0.0
            assert np.array_equal(last_axis_first(g * p).sum(axis=0),
                                  (g * p).sum(axis=1))

    def test_gate_weights_and_gradients(self, n):
        # the gate's softmax and pullback in place, against the old
        # expressions on the model's own hidden layer
        rng = np.random.default_rng(n + 3)
        for m in MODALITIES:
            model, batch = _model_and_batch(rng, n, m, 8)
            w1, b1, w2, b2 = (model.gate_w1, model.gate_b1, model.gate_w2,
                              model.gate_b2)
            h = np.maximum(model.gate_input(batch) @ w1 + b1, 0.0)
            p = _old_masked_softmax(h @ w2 + b2, batch.presence)
            assert np.array_equal(gate_rows(model, batch).data, p)
            gp = rng.normal(size=(n, m))
            model.zero_grad()
            out, pullback = forward_pullback(model, batch)
            pullback(np.zeros_like(out.logits.data), gp)
            assert np.array_equal(out.p.data, p)
            g = np.where(batch.presence, gp, 0.0)
            gs = p * (g - (g * p).sum(axis=1, keepdims=True))
            assert np.array_equal(model.grad["gate_b2"], gs.sum(axis=0))
            assert np.array_equal(model.grad["gate_w2"], h.T @ gs)

    def test_entropy_rows(self, n):
        rng = np.random.default_rng(n + 4)
        for m in MODALITIES:
            p = _simplex(rng, n, m)
            old = -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=1)
            assert np.array_equal(entropy_rows(p), old)

    def test_keep_observed_and_bernoulli_mask(self, n):
        rng = np.random.default_rng(n + 5)
        for m in MODALITIES:
            presence = _presence(rng, n, m)
            # a draw, a subset, and the lattice's subsets, where row 0 (it
            # observes one modality) is not live in every subset without it
            for keep in (rng.random(m) < 0.5, rng.random((n, m)) < 0.3,
                         subset_lattice(m).subsets[:, None]):
                view = presence & keep
                live = view.any(axis=-1)
                old = np.where(live[..., None], view, presence)
                got = keep_observed(presence, keep)
                assert np.array_equal(got[0], old)
                assert np.array_equal(got[1], live)
            assert n == 1 or not live.all()
            seed = int(rng.integers(2**31))
            old_rng, new_rng = (np.random.default_rng(seed) for _ in "ab")
            old = old_rng.random((n, m)) >= 0.8
            while (~old.any(axis=1)).any():
                empty = ~old.any(axis=1)
                old[empty] = old_rng.random((int(empty.sum()), m)) >= 0.8
            assert np.array_equal(bernoulli_mask(n, m, 0.8, new_rng), old)

    def test_view_counts_held_and_meets(self, n):
        # _gate_rows' observed counts, step_loss's held rows and
        # audit_confidences' meets, over lattice views of random presence
        rng = np.random.default_rng(n + 6)
        for m in MODALITIES:
            presence = _presence(rng, n, m)
            lattice = subset_lattice(m)
            views, live = keep_observed(presence, lattice.subsets[:, None])
            observed = last_axis_first(views).sum(axis=0)
            assert np.array_equal(observed.all(), views.any(axis=2).all())
            assert np.array_equal(
                np.flatnonzero((observed > 1).any(axis=1)),
                np.flatnonzero((views.sum(axis=2) > 1).any(axis=1)))
            keep = keep_observed(presence, rng.random((n, m)) < 0.6)[0]
            assert np.array_equal(last_axis_first(views == keep).all(axis=0),
                                  (views == keep).all(axis=2))
            conf = rng.random((len(lattice.subsets), n)).round(1)
            audit = audit_confidences(conf, lattice, presence)
            small, big = lattice.pairs.T
            meets = (presence & lattice.subsets[:, None]).any(axis=2)[small]
            assert np.array_equal(live[small], meets)
            gap = np.where(meets, conf[small] - conf[big], 0.0)
            rows = meets.sum(axis=1)
            assert np.array_equal(audit.rows, rows)
            assert np.array_equal(audit.counts, (gap > 0.0).sum(axis=1))
            assert np.array_equal(audit.mean_violation,
                                  np.maximum(gap, 0.0).sum(axis=1)
                                  / np.maximum(rows, 1))


def _old_confidence_correct(logits, labels, multilabel, t):
    """``confidence_correct`` as it read the whole probability matrix."""
    scaled = logits if t == 1.0 else logits / t
    probs = (class_probs(scaled, True) if multilabel
             else _old_class_probs(scaled))
    top = (np.arange(len(probs)), logits.argmax(axis=1))
    correct = (labels[top].astype(bool) if multilabel
               else top[1] == labels.astype(np.int64))
    return probs[top], correct


@pytest.mark.parametrize("c", [1, 2, 8, 33])
@pytest.mark.parametrize("multilabel", [False, True])
def test_top_class_prob_without_the_probability_matrix(c, multilabel):
    # 1 / (row sum of exp(z - max z)) is the softmax's top entry bit for
    # bit; a multi-label row keeps its largest sigmoid
    rng = np.random.default_rng(c + 40 * multilabel)
    z = _logits(rng, 600, c)
    z[:50] = rng.integers(-2, 3, size=(50, c))  # exact ties everywhere
    z[50:100] = rng.choice([-700.0, 700.0], size=(50, c))
    z[100:150] = z[100:150] * 200.0  # entries far beyond exp's range
    labels = ((rng.random((len(z), c)) < 0.5).astype(np.float64)
              if multilabel else rng.integers(0, c, size=len(z)))
    probs = class_probs(z, True) if multilabel else _old_class_probs(z)
    out = ForwardOutput(p=T.Tensor(np.ones((len(z), 1))),
                        logits=T.Tensor(z), multilabel=multilabel)
    assert np.array_equal(out.confidence.data, probs.max(axis=1))
    assert np.array_equal(model_module.top_class_prob(z, multilabel),
                          last_axis_first(probs).max(axis=0))
    for t in (1.0, 1.7):
        got = confidence_correct(z, labels, multilabel, t)
        want = _old_confidence_correct(z, labels, multilabel, t)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[1].dtype == bool


@pytest.mark.parametrize("c", [1, 2, 8, 33])
@pytest.mark.parametrize("multilabel", [False, True])
def test_top_class_is_the_argmax(c, multilabel):
    # the lowest class holding the row max, counted across rows, is
    # argmax's class, ties and NaN rows included; confidence_correct reads
    # its probability from the same max
    rng = np.random.default_rng(70 + c + 100 * multilabel)
    z = _logits(rng, 600, c)
    z[:50] = rng.integers(-2, 3, size=(50, c))  # exact ties everywhere
    z[50:60] = z[50:60, :1]  # every class tied
    z[60:70] = rng.choice([-np.inf, np.inf, 1.0], size=(10, c))
    z[70:75, c // 2] = np.nan
    peak, top = model_module.top_class(z)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(top, z.argmax(axis=1))
        assert np.array_equal(peak, z.max(axis=1), equal_nan=True)
    z = np.delete(z, np.s_[60:75], axis=0)  # the finite rows, ties kept
    labels = ((rng.random((len(z), c)) < 0.5).astype(np.float64)
              if multilabel else rng.integers(0, c, size=len(z)))
    top = z.argmax(axis=1)
    assert np.array_equal(model_module.top_class(z)[1], top)
    for t in (1.0, 1.7):
        conf, correct = confidence_correct(z, labels, multilabel, t)
        assert np.array_equal(
            conf, model_module.top_class_prob(z / t, multilabel))
        want = (labels[np.arange(len(z)), top].astype(bool) if multilabel
                else top == labels)
        assert np.array_equal(correct, want)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_model_outputs_are_c_contiguous(m):
    # A first version of the across-rows softmax handed on F-ordered gate
    # weights, and the train-instance-m2 loss digest changed: the pullback's
    # gs.sum(axis=0) and its matrix products round differently by layout.
    # TestForwardMatchesTape caught it; this names the layout directly.
    rng = np.random.default_rng(m)
    model, batch = _model_and_batch(rng, 64, m, 8)
    batch.presence[1] = np.arange(m) == 0
    views = keep_observed(batch.presence, subset_lattice(m).subsets[:, None])[0]
    outs = [forward(model, batch), forward(model, batch, views)]
    passes, index = forward_views(model, batch, views)
    arrays = [gate_rows(model, batch).data,
              gate_rows(model, batch, views).data]
    arrays += [getattr(out, f).data for out in (*outs, passes,
                                                 passes.take(index[0]))
               for f in ("p", "logits")]
    # the fused features the pullback's head gradient reads
    stacked = model_module._per_modality(batch.n, batch.features, model.proj)
    arrays += [model_module._fuse(model, out.p.data, stacked)[1]
               for out in outs]
    assert all(a.flags.c_contiguous for a in arrays)
