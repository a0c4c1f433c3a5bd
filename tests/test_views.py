"""Presence views: the one model pass against the masked-copy pass it replaced.

``reference_forward`` keeps that pass as the oracle: ``forward`` over an
``apply_mask`` copy of the batch, with the gate input concatenated block by
block and the fusion summed term by term. Over random presence views that
give 0, 1 and several views needing the gate, for 2 to 5 modalities,
``forward`` and ``gate_rows`` must match it view by view, values and
gradients, and every view row must lie on its masked simplex. The read
paths, the gamma=0 training step and every ablation's training run must
run without a masked copy.
``forward_pullback``'s values and gradients must also equal, bit for bit,
the layer-op chain it replaced (``reference_chain.forward``) over the same
views.
"""

import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

import entrofuse.losses as losses_module
import entrofuse.model as model_module
import entrofuse.tensor as T
import entrofuse.trainer as trainer_module
from entrofuse.curriculum import acm_distribution, candidate_family
from entrofuse.data import apply_mask, bernoulli_mask, keep_observed
from entrofuse.losses import cec_pairs, step_loss
from entrofuse.metrics import audit_block, audit_confidences, inversion_audit
from entrofuse.model import (ForwardOutput, FusionConfig, forward,
                             forward_pullback, forward_views, gate_rows)
from entrofuse.rng import stream
from entrofuse.subsets import subset_lattice
from entrofuse.trainer import dropout_block, evaluate_under_dropout, train

import reference_chain as R
from test_model import (frozen_gate_model, random_batch, random_model,
                        random_presence)
from test_tensor import _ref_mix
from test_trainer import small_cfg, small_data

MODALITIES = (2, 3, 4, 5)
GATED = (0, 1, 3)  # views that need the gate: none, one kernel, the other
# (gated, single-modality) view counts: with singles, the gated views' rows
# are put beside their one-hot rows
LAYOUTS = ((0, 2), (1, 0), (1, 2), (3, 0), (3, 2))


def reference_forward(model, batch, keep=None) -> ForwardOutput:
    """The pass before presence views, on the rows of ``batch`` masked to
    ``keep`` (default: unmasked)."""
    masked = batch if keep is None else apply_mask(batch, per_sample=keep)
    presence = masked.presence
    cols = [(f - mu) / sd * presence[:, m:m + 1]
            for m, (f, mu, sd) in enumerate(zip(
                masked.features, model.norm_mean, model.norm_std))]
    x = np.concatenate(cols + [presence.astype(np.float64)], axis=1)
    leaf = R.leaves(model)
    pre = R.linear(T.Tensor(x), leaf["gate_w1"], leaf["gate_b1"])
    p = R.masked_softmax(R.linear(R.relu(pre), leaf["gate_w2"],
                                  leaf["gate_b2"]), presence)
    z = _ref_mix(p, [R.matmul(T.Tensor(f), leaf[f"proj_{m}"])
                     for m, f in enumerate(masked.features)])
    logits = R.linear(z, leaf["head_w"], leaf["head_b"])
    return ForwardOutput(p=p, logits=logits, multilabel=model.cfg.multilabel)


def assert_close(got, want, what=""):
    """Equal within 1e-12 of the reference's largest magnitude."""
    scale = max(np.abs(want).max(), 1e-300)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale,
                               err_msg=what)


def random_views(rng, presence, gated, single):
    """``gated`` views with a row observing two or more modalities and
    ``single`` views whose rows each observe one, shuffled, all inside
    ``presence``, which needs a row observing two or more."""
    n, m = presence.shape
    multi = np.flatnonzero(presence.sum(axis=1) > 1)
    views = []
    for _ in range(gated):
        view = presence & (rng.random((n, m)) < 0.6)
        empty = ~view.any(axis=1)
        view[empty] = presence[empty]
        i = rng.choice(multi)
        view[i] = presence[i]
        views.append(view)
    for _ in range(single):
        view = np.zeros((n, m), dtype=bool)
        for i in range(n):
            view[i, rng.choice(np.flatnonzero(presence[i]))] = True
        views.append(view)
    return np.array(views)[rng.permutation(len(views))]


def _setup(seed, m, gated, frozen=False, n=9, single=2, multilabel=False):
    """A scattered model, a batch with missing inputs (row 0 observes every
    modality) and random views of it: ``gated`` needing the gate, and
    ``single`` single-modality ones."""
    rng = np.random.default_rng(seed)
    cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5, 3)[:m], classes=4,
                       fused_dim=5, multilabel=multilabel)
    model = (frozen_gate_model if frozen else random_model)(rng, cfg)
    model.norm_mean = [rng.normal(size=d) for d in cfg.dims]
    model.norm_std = [rng.uniform(0.5, 2.0, size=d) for d in cfg.dims]
    presence = random_presence(rng, n, m)
    presence[0] = True
    batch = random_batch(rng, n, cfg.dims, cfg.classes, presence)
    if multilabel:
        batch.labels = (rng.random((n, cfg.classes)) < 0.4).astype(float)
    return rng, model, batch, random_views(rng, presence, gated, single)


def _grads(model):
    return {name: grad.copy() for name, grad in model.grad.items()}


def _loss_and_grads(model, build):
    """A tape-built loss and the parameter gradients its backward adds."""
    model.zero_grad()
    with T.Tape() as tape:
        loss = build()
        tape.backward(loss)
    return loss.item(), _grads(model)


def _pullback_loss_and_grads(model, batch, views, loss):
    """``forward_pullback``'s output, ``loss(logits, p)`` of it and the
    parameter gradients its pullback adds."""
    model.zero_grad()
    out, pullback = forward_pullback(model, batch, views)
    value = R.run_pullback(out, pullback, loss)
    return out, value.item(), _grads(model)


class TestAgainstReference:
    CASES = [(m, gated, frozen) for m in MODALITIES for gated in GATED
             for frozen in (False, True)]

    @pytest.mark.parametrize("m,gated,frozen", CASES)
    def test_forward_matches_reference_view_by_view(self, m, gated, frozen):
        _, model, batch, views = _setup(10 * m + gated, m, gated, frozen)
        out = forward(model, batch, views)
        n = batch.n
        assert out.logits.shape[0] == len(views) * n
        for v, view in enumerate(views):
            ref = reference_forward(model, batch, view)
            rows = slice(v * n, (v + 1) * n)
            for field in ("logits", "p", "confidence"):
                assert_close(getattr(out, field).data[rows],
                             getattr(ref, field).data, f"{field} view {v}")
        assert np.array_equal(gate_rows(model, batch, views).data, out.p.data)

    @pytest.mark.parametrize("m,gated,frozen", CASES)
    def test_gradients_match_reference(self, m, gated, frozen):
        rng, model, batch, views = _setup(20 * m + gated, m, gated, frozen)
        n = batch.n
        weights = rng.normal(size=(len(views) * n, model.cfg.classes))

        def objective(logits, w):
            # the confidence a loss derives from the logits, on the tape
            return R.add(R.mean_all(R.mul(logits, T.Tensor(w))),
                         R.mean_all(R.confidence(logits)))

        def reference():
            # the mean over all view rows is the mean of the view means
            total = None
            for v, view in enumerate(views):
                term = R.mul_scalar(objective(
                    reference_forward(model, batch, view).logits,
                    weights[v * n:(v + 1) * n]), 1.0 / len(views))
                total = term if total is None else R.add(total, term)
            return total

        _, got_loss, got = _pullback_loss_and_grads(
            model, batch, views, lambda logits, p: objective(logits, weights))
        want_loss, want = _loss_and_grads(model, reference)
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        for name, g in want.items():
            if not g.any():
                assert not got[name].any(), name
                continue
            assert_close(got[name], g, name)

    def test_default_view_is_the_batch_presence(self):
        _, model, batch, _ = _setup(3, 3, 1)
        a = forward(model, batch)
        b = forward(model, batch, [batch.presence])
        assert np.array_equal(a.logits.data, b.logits.data)
        assert_close(a.logits.data, reference_forward(model, batch).logits.data)


class TestForwardMatchesTape:
    """``forward_pullback`` against the layer-by-layer chain it replaced,
    ``reference_chain.forward`` on the tape: logits, gate weights and every
    parameter gradient equal bit for bit. The views leave no row, one gated
    view (one affine gate layer 1) or three (per-modality products summed
    by blend) needing the gate, beside two single-modality views (the
    put_rows path) or none."""

    CASES = [(m, gated, single, frozen, multilabel)
             for m in MODALITIES for gated, single in LAYOUTS
             for frozen in (False, True) for multilabel in (False, True)]

    @staticmethod
    def _assert_same_grads(got, want):
        for name, g in want.items():
            assert np.array_equal(got[name], g), name

    @pytest.mark.parametrize("m,gated,single,frozen,multilabel", CASES)
    def test_values_and_gradients(self, m, gated, single, frozen,
                                  multilabel):
        rng, model, batch, views = _setup(300 + 10 * m + gated, m, gated,
                                          frozen, single=single,
                                          multilabel=multilabel)
        rows = len(views) * batch.n
        w_logits = T.Tensor(rng.normal(size=(rows, model.cfg.classes)))
        w_p = T.Tensor(rng.normal(size=(rows, m)))

        def loss_of(logits, p):
            # upstream gradients into both outputs, the logits' through a
            # confidence too, as the objective's reach them
            return R.add(R.add(R.mean_all(R.mul(logits, w_logits)),
                               R.mean_all(R.mul(p, w_p))),
                         R.mean_all(R.confidence(logits, multilabel)))

        out, loss, grads = _pullback_loss_and_grads(model, batch, views,
                                                    loss_of)
        model.zero_grad()
        with T.Tape() as tape:
            ref = R.forward(model, batch, views)
            ref_loss = loss_of(ref.logits, ref.p)
            tape.backward(ref_loss)
        ref_grads = _grads(model)
        # the fused features show in head_w's gradient
        for field in ("p", "logits"):
            assert np.array_equal(getattr(out, field).data,
                                  getattr(ref, field).data), field
        assert loss == ref_loss.item()
        self._assert_same_grads(grads, ref_grads)
        # no gate gradient leaves the gate's buffer zero
        assert (not grads["gate_w1"].any()) == (frozen or gated == 0)

    @pytest.mark.parametrize("m", MODALITIES)
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("multilabel", [False, True])
    @pytest.mark.parametrize("with_pairs", [True, False])
    def test_step_loss(self, monkeypatch, m, frozen, multilabel, with_pairs):
        rng, model, batch, views = _setup(400 + m, m, 1, frozen,
                                          multilabel=multilabel)
        keep = views[0]
        pairs = None
        if with_pairs:
            # every subset view needs each row to observe every modality
            batch.presence[:] = True
            pairs = cec_pairs(m, rng, limit=8)
        # gamma > 0 with a scalar lambda; gamma = 0 with a per-row one
        lam = 0.05 if with_pairs else rng.uniform(0.01, 0.5, size=batch.n)

        def run():
            model.zero_grad()
            bd = step_loss(model, batch, keep, pairs, lam=lam,
                           gamma=2.0 if with_pairs else 0.0)
            return bd, _grads(model)

        bd, grads = run()
        monkeypatch.setattr(losses_module, "forward_pullback",
                            R.forward_pullback)
        ref_bd, ref_grads = run()
        assert bd == ref_bd
        self._assert_same_grads(grads, ref_grads)

    @pytest.mark.parametrize("kw", [dict(gamma=2.0),
                                    dict(gamma=0.0, lam_mode="instance"),
                                    dict(gamma=2.0, ablation="no_gate")])
    def test_training_is_unchanged_bit_for_bit(self, monkeypatch, kw):
        cfg = small_cfg(epochs=2, **kw)
        got = train(cfg, small_data())
        for module in (model_module, losses_module, trainer_module):
            monkeypatch.setattr(module, "forward", R.forward)
        monkeypatch.setattr(losses_module, "forward_pullback",
                            R.forward_pullback)
        want = train(cfg, small_data())
        assert got.history == want.history
        for (name, a), (_, b) in zip(got.model.parameters(),
                                     want.model.parameters()):
            assert np.array_equal(a, b), name


class TestRandomViews:
    @pytest.mark.parametrize("m,gated", [(m, g) for m in MODALITIES
                                         for g in GATED])
    def test_every_view_row_lies_on_its_masked_simplex(self, m, gated):
        # C02 over random presence: missing inputs in the batch rows and
        # random nonempty observed parts of them as views
        for k in range(4):
            _, model, batch, views = _setup(100 * m + 10 * gated + k, m,
                                            gated)
            p = gate_rows(model, batch, views).data
            keep = views.reshape(-1, m)
            assert (p >= 0.0).all()
            assert (p[~keep] == 0.0).all()
            np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            # a row observing one modality weighs it by exactly 1
            single = keep.sum(axis=1) == 1
            assert np.array_equal(p[single], keep[single].astype(np.float64))

    def test_gate_runs_once_per_call_and_only_for_views_that_need_it(
            self, monkeypatch):
        passes = []
        real = model_module._gate

        def counting(model, batch, keep, *rest):
            passes.append(len(keep))
            return real(model, batch, keep, *rest)

        monkeypatch.setattr(model_module, "_gate", counting)
        for gated in GATED:
            _, model, batch, views = _setup(40 + gated, 3, gated)
            passes.clear()
            gate_rows(model, batch, views)
            assert passes == ([gated * batch.n] if gated else [])

    def test_single_modality_views_skip_the_gate(self):
        # rows observing one modality pass the gate no gradient
        _, model, batch, views = _setup(93, 3, 0)
        out, pullback = forward_pullback(model, batch, views)
        R.run_pullback(out, pullback,
                       lambda logits, p: R.mean_all(R.confidence(logits)))
        np.testing.assert_array_equal(out.p.data, views.reshape(-1, 3))
        assert not model.gate.grads.any()
        assert all(g.any() for name, g in model.grad.items()
                   if not name.startswith("gate_"))

    def test_views_outside_the_batch_or_empty_rejected(self):
        _, model, batch, views = _setup(94, 3, 1)
        with pytest.raises(ValueError, match="does not observe"):
            forward(model, batch, np.ones((1, batch.n, 3), dtype=bool))
        empty = views.copy()
        empty[0, 1] = False
        with pytest.raises(ValueError, match="no observed modality"):
            gate_rows(model, batch, empty)
        with pytest.raises(ValueError, match="need"):
            forward(model, batch, views[:, :-1])


@pytest.fixture
def no_masked_copies(monkeypatch):
    """Every ``apply_mask`` the package can reach raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a masked copy of the batch was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("entrofuse") and hasattr(module, "apply_mask"):
            monkeypatch.setattr(module, "apply_mask", refuse)


class TestReadPathsTakeViews:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_inversion_audit(self, m, no_masked_copies):
        rng = np.random.default_rng(200 + m)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5)[:m], classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 20, cfg.dims, cfg.classes)
        audit = inversion_audit(model, batch)
        lattice = subset_lattice(m)
        ref = audit_confidences(np.array(
            [reference_forward(model, batch, batch.presence & s)
             .confidence.data for s in lattice.subsets]), lattice)
        assert np.array_equal(audit.counts, ref.counts)
        assert_close(audit.mean_violation, ref.mean_violation)

    def test_evaluate_under_dropout(self, no_masked_copies):
        rng = np.random.default_rng(210)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 30, cfg.dims, cfg.classes)
        table = evaluate_under_dropout(model, batch, rates=(0.0, 0.5),
                                       seeds=2)
        assert set(table) == {0.0, 0.5}
        assert all(np.isfinite(list(row.values())).all()
                   for row in table.values())

    def test_evaluate_under_dropout_with_partial_presence(
            self, monkeypatch, no_masked_copies):
        # a split with missing inputs: each draw keeps only observed
        # modalities, and a row the draw would empty keeps its observed set
        rng = np.random.default_rng(211)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        presence = bernoulli_mask(30, 3, 0.3, rng)
        batch = random_batch(rng, 30, cfg.dims, cfg.classes, presence)
        seen = []

        def spy(model, batch, views):
            seen.extend(views)
            return forward_views(model, batch, views)

        monkeypatch.setattr(trainer_module, "forward_views", spy)
        table = evaluate_under_dropout(model, batch, rates=(0.0, 0.5),
                                       seeds=2)
        assert all(np.isfinite(list(row.values())).all()
                   for row in table.values())
        assert np.array_equal(seen[0], batch.presence) and len(seen) == 3
        emptied = 0
        for s, views in enumerate(seen[1:]):
            want = presence & bernoulli_mask(30, 3, 0.5,
                                             stream(0, f"eval:1:{s}"))
            empty = ~want.any(axis=1)
            want[empty] = presence[empty]
            assert np.array_equal(views, want)
            emptied += empty.sum()
        assert emptied > 0

    def test_acm_distribution_all_subsets(self, no_masked_copies):
        rng = np.random.default_rng(220)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 24, cfg.dims, cfg.classes)
        dist = acm_distribution(model, batch, 0.5, family="all_subsets")
        assert np.array_equal(dist.support,
                              candidate_family(3, "all_subsets"))
        for drop, entropy in zip(dist.support, dist.mean_entropies):
            keep = ~drop & batch.presence
            ref = reference_forward(model, batch, keep).p
            assert_close(entropy, R.entropy_rows(ref).data.mean())

    @pytest.mark.parametrize("ablation", trainer_module.ABLATIONS)
    def test_every_ablation_trains(self, ablation, no_masked_copies):
        # the single-modality ablation restricts presence, too
        res = train(small_cfg(gamma=1.0, epochs=2, ablation=ablation),
                    small_data())
        assert all(np.isfinite(h.total) for h in res.history)

    @pytest.mark.parametrize("lam_mode", ["scheduled", "instance"])
    def test_gamma_zero_training(self, lam_mode, no_masked_copies):
        res = train(small_cfg(gamma=0.0, epochs=2, lam_mode=lam_mode),
                    small_data())
        assert all(h.cec == 0.0 and np.isfinite(h.total) for h in res.history)
        assert res.history[-1].lam > 0.0



class TestForwardViews:
    """``forward_views``, the read-only pass over views that prepares the
    split once, against one multi-view ``forward`` over the same views."""

    CASES = [(m, gated, single, multilabel) for m in MODALITIES
             for gated, single in LAYOUTS for multilabel in (False, True)]

    @pytest.mark.parametrize("m,gated,single,multilabel", CASES)
    def test_each_view_is_its_row_block_of_one_forward(self, m, gated,
                                                       single, multilabel):
        _, model, batch, views = _setup(300 + 10 * m + gated, m, gated,
                                        single=single, multilabel=multilabel)
        n = batch.n
        passes, index = forward_views(model, batch, views)
        assert index.shape == (len(views), n)
        outs = [passes.take(rows) for rows in index]
        whole = forward(model, batch, views)
        for v, out in enumerate(outs):
            rows = slice(v * n, (v + 1) * n)
            for field in ("p", "logits", "confidence"):
                # not bit for bit: BLAS may round a gemm row differently
                # with the row count (gate layer 2 and the head run on n
                # rows here, on V * n there), and with one gated view
                # forward's gate layer 1 is one affine map of the masked
                # gate input, the same terms summed in another order
                np.testing.assert_allclose(
                    getattr(out, field).data, getattr(whole, field).data[rows],
                    rtol=1e-12, atol=0, err_msg=f"{field} view {v}")

    @pytest.mark.parametrize("m", MODALITIES)
    def test_layer_one_is_the_multi_view_kernels_bit_for_bit(self, m):
        # both blend the same per-modality products: one copy of that code
        _, model, batch, views = _setup(310 + m, m, 3, single=0)
        gated = views.reshape(-1, m).astype(np.float64)
        stacked = model_module._gate_products(model, batch)[2]
        together = model_module._blend(gated, stacked)[0]
        for v, view in enumerate(views):
            alone = model_module._blend(view.astype(np.float64), stacked)[0]
            assert np.array_equal(alone,
                                  together[v * batch.n:(v + 1) * batch.n])

    @staticmethod
    def _concatenated_gate_input(model, batch, presence=None):
        """The gate input built as one array, each modality's block written
        from a standardized temporary: the reference for the blocks."""
        x = np.empty((batch.n, sum(batch.dims) + batch.num_modalities))
        flags = x[:, x.shape[1] - batch.num_modalities:]
        flags[...] = batch.presence if presence is None else presence
        lo = 0
        for m, f in enumerate(batch.features):
            z = f - model.norm_mean[m]
            z /= model.norm_std[m]
            np.multiply(z, flags[:, m:m + 1], out=x[:, lo:lo + f.shape[1]])
            lo += f.shape[1]
        return x

    @pytest.mark.parametrize("m", MODALITIES)
    def test_gate_blocks_are_the_gate_input_bit_for_bit(self, m):
        # bytes, not values: -0.0 (a negative standardized filler times a
        # 0 flag) must stay -0.0
        rng, model, batch, views = _setup(315 + m, m, 3, single=0, n=40)
        for f in batch.features:
            f[f == 0.0] = rng.normal(size=int((f == 0.0).sum()))
        x = self._concatenated_gate_input(model, batch)
        assert model.gate_input(batch).tobytes() == x.tobytes()
        for view in views:
            assert (model.gate_input(batch, view).tobytes()
                    == self._concatenated_gate_input(model, batch,
                                                     view).tobytes())
        blocks, cols, products = model_module._gate_products(model, batch)
        for block, c in zip(blocks, cols):
            assert block.flags.c_contiguous
            assert block.tobytes() == x[:, c].tobytes()
        gathered = model_module._per_modality(
            batch.n, (x[:, c] for c in cols),
            [model.gate_w1[c] for c in cols])
        assert products.tobytes() == gathered.tobytes()

    def test_read_paths_prepare_the_split_once(self, monkeypatch):
        rng = np.random.default_rng(320)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        presence = random_presence(rng, 30, 3)
        presence[0] = True
        batch = random_batch(rng, 30, cfg.dims, cfg.classes, presence)
        calls = {}
        real_block = model_module.FusionModel._gate_block
        real_products = model_module._per_modality
        real_forward = model_module.forward

        def count(name, k=1):
            calls[name] = calls.get(name, 0) + k

        def gate_block(self, *args):
            count("gate blocks")
            return real_block(self, *args)

        def per_modality(n, xs, ws):
            count("projection matmuls" if ws[0] is model.proj[0]
                  else "gate products", len(ws))
            return real_products(n, xs, ws)

        def forward_spy(*args):
            count("forward")
            return real_forward(*args)

        monkeypatch.setattr(model_module.FusionModel, "_gate_block",
                            gate_block)
        monkeypatch.setattr(model_module, "_per_modality", per_modality)
        for module in (model_module, trainer_module):
            monkeypatch.setattr(module, "forward", forward_spy)
        for run in (lambda: inversion_audit(model, batch),
                    lambda: evaluate_under_dropout(
                        model, batch, rates=(0.0, 0.3, 0.5), seeds=3)):
            calls.clear()
            run()
            # one standardized block per modality, for every view
            assert calls == {"gate blocks": 3, "gate products": 3,
                             "projection matmuls": 3}

    def test_table_peaks_no_higher_than_the_per_view_loop(self):
        # all views are read first, but the gate's products are freed
        # before the projections are built and the table keeps no z
        rng = np.random.default_rng(326)
        cfg = FusionConfig(modalities=4, dims=(32,) * 4, classes=8,
                           fused_dim=32, gate_hidden=64)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 1000, cfg.dims, cfg.classes)
        args = (model, batch, RATES, 5, 0, 1.0)
        peaks = []
        for table in (trainer_module._dropout_table, R.lazy_dropout_table):
            table(*args)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                table(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], peaks

    def test_bad_views_and_non_finite_values_rejected(self):
        # every view is checked before any pass runs
        _, model, batch, views = _setup(330, 3, 3)
        empty = views[0].copy()
        empty[1] = False
        for bad, message in (
                (np.ones((batch.n, 3), dtype=bool), "does not observe"),
                (empty, "no observed modality")):
            with pytest.raises(ValueError, match=message):
                forward_views(model, batch, np.stack([views[0], bad]))
        for shape in (views[0], views[:, :-1], views[:, :, :-1], views[None],
                      views[..., None]):  # [V, n, M] views only
            with pytest.raises(ValueError, match="need"):
                forward_views(model, batch, shape)
        with pytest.raises(ValueError):  # ragged
            forward_views(model, batch, [views[0], views[0][:, :-1]])
        gated = views[(views.sum(axis=2) > 1).any(axis=1)][:1]
        for param, message in ((model.gate_w2, "gate weights are non-finite"),
                               (model.head_w, "logits are non-finite")):
            kept = param.copy()
            param[...] = np.inf
            with (pytest.raises(ValueError, match=message),
                  np.errstate(over="ignore", invalid="ignore")):
                forward_views(model, batch, gated)
            param[...] = kept

    def test_non_finite_values_count_only_on_rows_a_view_reads(self):
        # row 0 does not observe modality 2, whose huge (finite) filler
        # overflows the head in the pass for the set {0, 1, 2} there; no
        # view reads that row of it, so the table is the per-view loop's
        rng = np.random.default_rng(331)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        for w in (model.gate_w2, model.gate_b2):
            w[...] = 0.0  # equal weights over the kept set
        for w in model.proj:
            w[...] = 1.0
        model.head_w[...] = 10.0
        presence = np.ones((6, 3), dtype=bool)
        presence[0, 2] = False
        batch = random_batch(rng, 6, cfg.dims, cfg.classes, presence)
        batch.features[2][0] = 5e307  # each projection reads 1e308
        views = np.stack([presence, presence])  # two sets: one pass each
        with np.errstate(over="ignore", invalid="ignore"):
            passes, index = forward_views(model, batch, views)
        assert len(passes.logits.data) == 2 * batch.n
        assert not np.isfinite(passes.logits.data).all()
        for rows, want in zip(index, R.lazy_forward_views(model, batch,
                                                          views)):
            assert np.array_equal(passes.logits.data[rows], want.logits.data)
        batch.features[0][0] = 5e307  # now a row a view reads overflows
        with (pytest.raises(ValueError, match="logits are non-finite"),
              np.errstate(over="ignore", invalid="ignore")):
            forward_views(model, batch, views)

    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_finite_checks_raise_exactly_on_read_rows(self, m):
        # a pass scans its whole output and gathers its read rows only on
        # a find: over random read masks it must raise exactly when a
        # non-finite value sits on a read row, for the gate weights and
        # for the logits, written into a table slot or not
        rng = np.random.default_rng(335 + m)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5)[:m], classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        n = 40
        batch = random_batch(rng, n, cfg.dims, cfg.classes)
        keep = np.ones((n, m), dtype=bool)
        products = model_module._gate_products(model, batch)[2]
        stacked = model_module._per_modality(n, batch.features, model.proj)
        p = model_module._gate(model, batch, keep, products)[0]
        shapes = {"gate weights": (n, m), "logits": (n, cfg.classes)}

        def run(what, poisoned, read, out):
            if what == "gate weights":
                return model_module._gate(model, batch, keep, poisoned, read,
                                          out=out)[0]
            return model_module._fuse(model, p, poisoned, read, out=out)[0]

        for trial in range(40):
            bad = rng.random(n) < (0.0, 0.03, 0.3)[trial % 3]
            read = (None if trial % 5 == 0
                    else rng.random(n) < rng.uniform(0.05, 0.95))
            hit = bad.any() if read is None else (bad & read).any()
            for what, clean in (("gate weights", products),
                                ("logits", stacked)):
                poisoned = clean.copy()  # [n, M, k] blocks: rows go first
                poisoned[bad] = (np.nan, np.inf)[trial % 2]
                out = np.empty(shapes[what]) if trial % 4 < 2 else None
                with np.errstate(invalid="ignore", over="ignore"):
                    if hit:
                        with pytest.raises(ValueError,
                                           match=f"{what} are non-finite"):
                            run(what, poisoned, read, out)
                        continue
                    got = run(what, poisoned, read, out)
                assert out is None or got is out
                assert np.isfinite(got[~bad]).all()
                assert np.isfinite(got).all() == (not bad.any())

    def test_off_the_tape(self):
        _, model, batch, views = _setup(340, 3, 3)
        with T.Tape() as tape:
            passes, _ = forward_views(model, batch, views)
        assert tape.num_recorded == 0
        # no read path reads the fused features
        assert [f.name for f in dataclasses.fields(ForwardOutput)] == [
            "p", "logits", "multilabel"]
        assert not (passes.logits.requires_grad or passes.p.requires_grad)

    @pytest.mark.parametrize("kept", [(1, 1, 1), (1, 0, 1), (0, 1, 1)])
    def test_a_read_only_gate_pass_returns_no_pullback(self, kept):
        # forward_views passes the split's gate products and drops the
        # pullback, which such a pass has no per-modality blocks for; its
        # weights are the training pass's up to round-off
        rng = np.random.default_rng(341)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4,
                           fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 12, cfg.dims, cfg.classes)
        kept = np.array(kept, dtype=bool)
        keep = np.tile(kept, (batch.n, 1))
        products = model_module._gate_products(model, batch)[2]
        for read_only in (model_module._gate(model, batch, keep, products),
                          model_module._gate(model, batch, keep, products,
                                             kept=kept)):
            assert read_only[1] is None
            p, pullback = model_module._gate(model, batch, keep)
            assert callable(pullback)
            np.testing.assert_allclose(read_only[0], p, rtol=0, atol=1e-12)


RATES = (0.0, 0.1, 0.2, 0.3, 0.5)  # the rates the benchmark's audit reads


def _oracle_case(i, m, hidden):
    """Case i of the pass-table oracle: classes, presence, label mode and
    row count cycle through their values as i runs over (M, hidden)."""
    classes = (1, 2, 8)[i % 3]
    partial, multilabel = i % 2 == 0, (i // 2) % 2 == 1
    n = (1, 17, 1000)[(i // 3) % 3]
    return m, hidden, classes, partial, multilabel, n


class TestPassTable:
    """``forward_views`` as a table of passes against the per-view loop it
    replaced (``reference_chain.lazy_forward_views`` and the read paths on
    it), bit for bit."""

    CASES = [_oracle_case(i, m, hidden) for i, (m, hidden) in enumerate(
        itertools.product(MODALITIES, (1, 2, 3, 64)))]

    @staticmethod
    def _model_and_batch(seed, m, hidden, classes, partial, multilabel, n):
        rng = np.random.default_rng(seed)
        cfg = FusionConfig(modalities=m, dims=(3, 4, 2, 5, 3)[:m],
                           classes=classes, fused_dim=5, gate_hidden=hidden,
                           multilabel=multilabel)
        model = random_model(rng, cfg)
        model.norm_mean = [rng.normal(size=d) for d in cfg.dims]
        model.norm_std = [rng.uniform(0.5, 2.0, size=d) for d in cfg.dims]
        presence = (random_presence(rng, n, m) if partial
                    else np.ones((n, m), dtype=bool))
        batch = random_batch(rng, n, cfg.dims, classes, presence)
        if multilabel:
            batch.labels = (rng.random((n, classes)) < 0.4).astype(float)
        return model, batch

    @staticmethod
    def _assert_views_equal(model, batch, views):
        """Every view's weights, logits, confidence and gate entropy equal
        the per-view loop's; returns the number of passes."""
        passes, index = forward_views(model, batch, views)
        conf, entropy = passes.confidence.data, passes.gate_entropy
        wants = list(R.lazy_forward_views(model, batch, views))
        assert index.shape == (len(wants), batch.n)
        for rows, want in zip(index, wants):
            assert np.array_equal(passes.p.data[rows], want.p.data)
            assert np.array_equal(passes.logits.data[rows], want.logits.data)
            assert np.array_equal(conf[rows], want.confidence.data)
            assert np.array_equal(entropy[rows], want.gate_entropy)
        return len(passes.p.data) // batch.n

    @pytest.mark.parametrize("m,hidden,classes,partial,multilabel,n", CASES)
    def test_matches_the_per_view_loop(self, m, hidden, classes, partial,
                                       multilabel, n):
        model, batch = self._model_and_batch(400 + 7 * m + hidden, m, hidden,
                                             classes, partial, multilabel, n)
        views = np.array([batch.presence] + [
            keep_observed(batch.presence,
                          bernoulli_mask(n, m, rate, stream(3, f"v:{s}")))[0]
            for rate in RATES[1:] for s in range(5)])
        self._assert_views_equal(model, batch, views)
        self._assert_views_equal(model, batch, batch.presence[None])
        for temperature in (1.0, 1.7):
            got = trainer_module._dropout_table(model, batch, RATES, 5, 3,
                                                temperature)
            want = R.lazy_dropout_table(model, batch, RATES, 5, 3,
                                        temperature)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
        if m <= 4:
            got, want = (inversion_audit(model, batch),
                         R.lazy_inversion_audit(model, batch))
            for field in ("counts", "mean_violation", "rows"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), field

    def test_both_pass_rules_meet_the_per_view_loop(self, monkeypatch):
        # one pass per set when there are no more sets than views ...
        model, batch = self._model_and_batch(450, 4, 3, 8, True, False, 200)
        sets = np.unique(batch.presence, axis=0)
        assert len(sets) > 2
        views = np.repeat(batch.presence[None], len(sets), axis=0)
        assert self._assert_views_equal(model, batch, views) == len(sets)
        # ... else one per view: one clean view of a partial split
        assert self._assert_views_equal(model, batch, views[:1]) == 1
        assert self._assert_views_equal(model, batch, views[:2]) == 2
        assert self._count_passes(monkeypatch, lambda: forward_views(
            model, batch, views)) == (len(sets),
                                      int((sets.sum(axis=1) > 1).sum()))

    def test_no_views_no_passes(self):
        # no views give an empty table; with no rates the dropout table
        # still reads its clean view 0, and has no column
        model, batch = self._model_and_batch(455, 3, 2, 4, True, False, 9)
        passes, index = forward_views(model, batch,
                                      np.zeros((0, 9, 3), dtype=bool))
        assert passes.p.data.shape == (0, 3) and index.shape == (0, 9)
        assert passes.logits.data.shape == (0, 4)
        assert evaluate_under_dropout(model, batch, rates=()) == {}

    @staticmethod
    def _count_passes(monkeypatch, run, names=("_fuse", "_gate")):
        """The calls ``run()`` makes to each function of ``model`` named."""
        calls = dict.fromkeys(names, 0)
        for name in calls:
            real = getattr(model_module, name)

            def spy(*args, name=name, real=real, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(model_module, name, spy)
        run()
        monkeypatch.undo()
        return tuple(calls.values())

    @pytest.mark.parametrize("m", MODALITIES)
    @pytest.mark.parametrize("hidden", (1, 2, 3, 64))
    def test_one_and_two_modality_set_passes(self, m, hidden):
        # a one-modality set's fusion is its projection block and a
        # two-modality set's gate layer 1 the sum of its two product
        # blocks, which the blends by 0/1 weights give bit for bit
        model, batch = self._model_and_batch(480 + 7 * m + hidden, m, hidden,
                                             8, False, False, 400)
        subsets = subset_lattice(m).subsets
        subsets = subsets[subsets.sum(axis=1) <= 2]
        views = keep_observed(batch.presence, subsets[:, None])[0]
        assert self._assert_views_equal(model, batch, views) == len(subsets)

    def test_set_passes_skip_the_exact_blends(self, monkeypatch):
        # the benchmark's audit table: of 15 fusion and 11 gate passes, the
        # 4 one-modality fusions and the 6 two-modality gate layers blend
        # nothing, so 16 blends run, not 26
        rng = np.random.default_rng(475)
        cfg = FusionConfig(modalities=4, dims=(3, 4, 2, 5), classes=8,
                           fused_dim=5, gate_hidden=8)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 1000, cfg.dims, cfg.classes)
        assert self._count_passes(monkeypatch, lambda: evaluate_under_dropout(
            model, batch, rates=RATES, seeds=5),
            ("_fuse", "_gate", "_blend")) == (15, 11, 16)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_kept_sets_match_unique(self, m, monkeypatch):
        # integer codes when 2^M <= N rows, np.unique above: both give the
        # distinct rows (in their own order) and each row's index among them
        rng = np.random.default_rng(490 + m)
        for rows in ((1 << m) + 5, (1 << m) - 1):
            keep = rng.random((rows, m)) < rng.uniform(0.2, 0.8)
            keep[0] = True
            want, want_index = np.unique(keep, axis=0, return_inverse=True)
            unique_calls = []
            real_unique = np.unique

            def spy(*args, **kwargs):
                unique_calls.append(args)
                return real_unique(*args, **kwargs)

            monkeypatch.setattr(np, "unique", spy)
            sets, index = model_module._kept_sets(keep)
            monkeypatch.undo()
            assert len(unique_calls) == (rows < 1 << m)
            assert sets.dtype == bool and index.shape == (rows,)
            assert np.array_equal(real_unique(sets, axis=0), want)
            assert len(sets) == len(want)
            assert np.array_equal(sets[index], keep)
            assert np.array_equal(sets[index], want[want_index.ravel()])

    def test_pass_counts(self, monkeypatch):
        # the benchmark's audit table: M=4, full presence, 1000 rows, rates
        # 0/0.1/0.2/0.3/0.5 x 5 draws leave every one of the 15 sets, and
        # the 4 one-modality sets need no gate
        rng = np.random.default_rng(460)
        cfg = FusionConfig(modalities=4, dims=(3, 4, 2, 5), classes=8,
                           fused_dim=5, gate_hidden=8)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 1000, cfg.dims, cfg.classes)
        assert self._count_passes(monkeypatch, lambda: evaluate_under_dropout(
            model, batch, rates=RATES, seeds=5)) == (15, 11)
        two = FusionConfig(modalities=2, dims=(3, 4), classes=8, fused_dim=5)
        model = random_model(rng, two)
        batch = random_batch(rng, 1000, two.dims, two.classes)
        assert self._count_passes(monkeypatch, lambda: evaluate_under_dropout(
            model, batch, rates=(0.0, 0.5), seeds=5)) == (3, 1)
        assert self._count_passes(monkeypatch, lambda: forward_views(
            model, batch, batch.presence[None])) == (1, 1)

    def test_passes_never_outnumber_the_views(self, monkeypatch):
        # at M=6 the 21 views of the default table's draws keep more of the
        # 63 sets than there are views, so the table runs one pass per view
        rng = np.random.default_rng(465)
        cfg = FusionConfig(modalities=6, dims=(3, 4, 2, 5, 3, 2), classes=4,
                           fused_dim=5, gate_hidden=8)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 300, cfg.dims, cfg.classes)
        views = np.array([batch.presence] + [
            keep_observed(batch.presence,
                          bernoulli_mask(300, 6, rate, stream(3, f"v:{s}")))[0]
            for rate in RATES[1:] for s in range(5)])
        assert len(np.unique(views.reshape(-1, 6), axis=0)) > len(views) == 21
        assert self._assert_views_equal(model, batch, views) == 21
        assert self._count_passes(monkeypatch, lambda: evaluate_under_dropout(
            model, batch, rates=RATES, seeds=5)) == (21, 21)

    @pytest.mark.parametrize("m", (2, 3, 4))
    @pytest.mark.parametrize("rates,multilabel", [((0.0, 0.3, 0.5), False),
                                                  ((0.5, 0.2), True)])
    def test_one_table_per_split(self, m, rates, multilabel, monkeypatch):
        # audit's table: the dropout block, whose view 0 is the clean view,
        # then the lattice block, in one forward_views call. On a split with
        # missing inputs a lone clean view runs one pass per view and the
        # shared table one per kept set, yet each block reads the bits of
        # its one-block call
        model, batch = self._model_and_batch(500 + m, m, 3, 8, True,
                                             multilabel, 300)
        table_views, read_table = dropout_block(batch, rates, 3, 5, 1.7)
        audit_views, read_audit = audit_block(batch)
        views = np.concatenate([table_views, audit_views])
        passes, index = forward_views(model, batch, views)
        clean_view = batch.presence[None]
        assert len(np.unique(batch.presence, axis=0)) > 1
        assert self._count_passes(monkeypatch, lambda: forward_views(
            model, batch, clean_view))[0] == 1
        assert self._count_passes(monkeypatch, lambda: forward_views(
            model, batch, views))[0] == len(np.unique(views.reshape(-1, m),
                                                      axis=0))

        clean, clean_index = forward_views(model, batch, clean_view)
        got, want = passes.take(index[0]), clean.take(clean_index[0])
        assert np.array_equal(got.p.data, want.p.data)
        assert np.array_equal(got.logits.data, want.logits.data)
        audit = read_audit(passes, index[len(table_views):])
        for want in (inversion_audit(model, batch),
                     R.lazy_inversion_audit(model, batch)):
            for field in ("counts", "mean_violation", "rows"):
                assert np.array_equal(getattr(audit, field),
                                      getattr(want, field)), field
        table = read_table(passes, index[:len(table_views)])
        assert table == evaluate_under_dropout(model, batch, rates, 3, 5, 1.7)
        assert table == R.lazy_dropout_table(model, batch, rates, 3, 5,
                                             1.7)[0]
