"""Entropy-gated mixture fusion: gate MLP, weighted fusion, task head.

The gate sees standardized features of every modality plus presence flags
and emits mixture weights on the probability simplex. Logits of absent
modalities are masked before the softmax, so weights renormalize over the
observed set only. Fusion is the gate-weighted sum of per-modality linear
projections, followed by a linear classification head.

A missing-modality pattern is a presence view, not a masked copy of the
batch: every pass takes [V, n, M] bool views inside the batch's presence,
and ``forward`` returns V * n rows, row v * n + i being row i as seen
through view v. Features a view leaves out do not reach its rows: they
are zeroed in the gate input and weighted by exactly 0 in the fusion.

The pass is plain NumPy over parameters that are plain arrays;
``forward_pullback`` returns it with its hand-derived pullback, and the
other passes only read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .data import MultimodalBatch, keep_observed, last_axis_first
from .rng import stream

__all__ = [
    "FusionConfig",
    "FusionModel",
    "ParamBuffers",
    "ForwardOutput",
    "class_probs",
    "top_class",
    "top_class_prob",
    "entropy_rows",
    "gate_rows",
    "forward",
    "forward_pullback",
    "forward_views",
    "predict_subset",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class FusionConfig:
    modalities: int
    dims: tuple[int, ...]
    classes: int
    fused_dim: int = 32
    gate_hidden: int | None = None  # default 2 * sum(dims)
    multilabel: bool = False

    def __post_init__(self):
        if len(self.dims) != self.modalities:
            raise ValueError("dims length must equal modality count")
        if self.classes < 1 or self.fused_dim < 1 or self.gate_hidden_dim < 1:
            raise ValueError("classes and layer widths must be positive")

    @property
    def gate_input_dim(self) -> int:
        return sum(self.dims) + self.modalities

    @property
    def gate_hidden_dim(self) -> int:
        return self.gate_hidden if self.gate_hidden is not None else 2 * sum(self.dims)


def _fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


class ParamBuffers(NamedTuple):
    """One parameter group as two flat buffers: each parameter and its
    gradient are reshaped views of ``params`` and ``grads``."""

    params: np.ndarray
    grads: np.ndarray


def _lay_out(named: list[tuple[str, np.ndarray]], grad: dict[str, np.ndarray],
             group: ParamBuffers | None = None):
    """``group`` (default: new buffers) holding the named arrays in order,
    and each one's view of ``params``; its ``grads`` view goes in ``grad``."""
    size = sum(a.size for _, a in named)
    if group is None:
        group = ParamBuffers(np.empty(size), np.zeros(size))
    views, lo = [], 0
    for name, a in named:
        group.params[lo:lo + a.size] = a.ravel()
        views.append(group.params[lo:lo + a.size].reshape(a.shape))
        grad[name] = group.grads[lo:lo + a.size].reshape(a.shape)
        lo += a.size
    return group, views


class FusionModel:
    """Gate MLP (``gate_w1``, ``gate_b1``, ReLU, ``gate_w2``, ``gate_b2``:
    concat(standardized features, presence flags) -> M logits), per-modality
    projections ``proj`` and a linear head (``head_w``, ``head_b``), with
    train-set norm stats.

    The model owns its parameter memory: ``base`` (projections and head)
    and ``gate`` are each laid out as flat parameter and gradient buffers,
    which the pass's pullback adds into and an optimizer updates whole.
    Each parameter attribute is its array view of its group's ``params``,
    and ``grad[name]`` (by checkpoint name) the same view of ``grads``.
    Write a parameter through its view (``model.head_w[...] = x``), not by
    rebinding it. With ``gate_frozen`` set, the pullback leaves the gate's
    gradients alone."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator):
        """Fan-in-uniform weights drawn from ``rng``, zero biases; the gate
        output layer starts at zero so training begins from the
        equal-weight mixture."""
        hid = cfg.gate_hidden_dim
        self.cfg = cfg
        self.gate_w1 = _fan_in_uniform(rng, (cfg.gate_input_dim, hid))
        self.gate_b1 = np.zeros(hid)
        self.gate_w2 = np.zeros((hid, cfg.modalities))
        self.gate_b2 = np.zeros(cfg.modalities)
        self.proj = [_fan_in_uniform(rng, (d, cfg.fused_dim))
                     for d in cfg.dims]
        self.head_w = _fan_in_uniform(rng, (cfg.fused_dim, cfg.classes))
        self.head_b = np.zeros(cfg.classes)
        self.gate_frozen = False
        self.norm_mean = [np.zeros(d) for d in cfg.dims]
        self.norm_std = [np.ones(d) for d in cfg.dims]
        self._view_buffers()

    def __setstate__(self, state: dict) -> None:
        """A copy's parameters come as whole arrays: view its buffers again."""
        self.__dict__.update(state)
        self._view_buffers((self.gate, self.base))

    def _view_buffers(self, groups=(None, None)) -> None:
        """Lay the parameters, the gate's four first, out on ``groups`` (new
        buffers by default) as their views, and rebuild ``grad``."""
        named, self.grad = self.parameters(), {}
        self.gate, gate = _lay_out(named[:4], self.grad, groups[0])
        self.base, base = _lay_out(named[4:], self.grad, groups[1])
        (self.gate_w1, self.gate_b1, self.gate_w2, self.gate_b2,
         *self.proj, self.head_w, self.head_b) = gate + base
        self._views = [(p, self.grad[name]) for name, p in self.parameters()]

    def zero_grad(self) -> None:
        """Zero both gradient buffers. Raises ``RuntimeError`` if a
        parameter or its ``grad`` entry no longer views its buffer, which
        would leave it out of training."""
        for (name, p), (data, grad) in zip(self.parameters(), self._views):
            if p is not data or self.grad.get(name) is not grad:
                raise RuntimeError(f"{name} was rebound off its group buffer")
        self.base.grads.fill(0.0)
        self.gate.grads.fill(0.0)

    @classmethod
    def from_seed(cls, cfg: FusionConfig, seed: int) -> "FusionModel":
        return cls(cfg, stream(seed, "init"))

    def fit_norm(self, train: MultimodalBatch) -> None:
        """Per-feature standardization statistics from observed train rows."""
        for m in range(self.cfg.modalities):
            rows = train.features[m][train.presence[:, m]]
            if rows.shape[0] == 0:
                continue
            self.norm_mean[m] = rows.mean(axis=0)
            self.norm_std[m] = np.maximum(rows.std(axis=0), 1e-8)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """(checkpoint array name, parameter) for every parameter."""
        return ([("gate_w1", self.gate_w1), ("gate_b1", self.gate_b1),
                 ("gate_w2", self.gate_w2), ("gate_b2", self.gate_b2)]
                + [(f"proj_{m}", w) for m, w in enumerate(self.proj)]
                + [("head_w", self.head_w), ("head_b", self.head_b)])

    def gate_input(self, batch: MultimodalBatch,
                   presence: np.ndarray | None = None) -> np.ndarray:
        """Each modality's ``_gate_block`` at ``presence`` (default: the
        batch's), then those flags, in one [n, sum(dims) + M] array."""
        x = np.empty((batch.n, sum(batch.dims) + batch.num_modalities))
        flags = x[:, x.shape[1] - batch.num_modalities:]
        flags[...] = batch.presence if presence is None else presence
        lo = 0
        for m, f in enumerate(batch.features):
            self._gate_block(m, f, flags[:, m:m + 1], x[:, lo:lo + f.shape[1]])
            lo += f.shape[1]
        return x

    def _gate_block(self, m: int, features: np.ndarray, flag: np.ndarray,
                    out: np.ndarray) -> None:
        """Modality m's features, standardized on a contiguous temporary, times
        the [n, 1] presence ``flag``, written into ``out``."""
        z = features - self.norm_mean[m]
        z /= self.norm_std[m]
        np.multiply(z, flag, out=out)


def _shifted_exp(logits: np.ndarray, peak: np.ndarray | None = None):
    """exp(z - max z) of each logit row and the [N, 1] row sums, a softmax's
    numerators and denominators; ``peak`` holds the row maxima if known,
    else they are taken across rows. The sums stay row sums, as NumPy adds
    8 or more terms pairwise there, not in order."""
    if peak is None:
        peak = last_axis_first(logits).max(axis=0)
    e = logits - peak[:, None]
    np.exp(e, out=e)
    return e, e.sum(axis=-1, keepdims=True)


def class_probs(logits: np.ndarray, multilabel: bool) -> np.ndarray:
    """Class probabilities of logit rows: each row's softmax, or with
    ``multilabel`` every entry's sigmoid in the stable two-branch form,
    which takes exp only of non-positive arguments."""
    if multilabel:
        e = np.exp(-np.abs(logits))
        return np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    probs, total = _shifted_exp(logits)
    probs /= total
    return probs


def top_class(logits: np.ndarray):
    """Each logit row's max and the lowest class that holds it, which is
    ``logits.argmax(axis=1)``, ties and NaN rows included. Both are taken
    across rows on one class-major copy, freed on return: a row's class is
    the count of its leading classes below the max."""
    cols = last_axis_first(logits)
    peak = cols.max(axis=0)
    below = cols[0] != peak
    top = below.astype(np.intp)
    for c in range(1, len(cols) - 1):
        below &= cols[c] != peak
        top += below
    nan = np.isnan(peak)  # NaN equals nothing: argmax finds the first NaN
    if nan.any():
        top[nan] = logits[nan].argmax(axis=1)
    return peak, top


def top_class_prob(logits: np.ndarray, multilabel: bool,
                   peak: np.ndarray | None = None) -> np.ndarray:
    """Each logit row's largest ``class_probs`` entry. A softmax row's is
    1 / sum_j exp(z_j - max z), bit for bit: its top numerator is exp(0) = 1
    over the same row sum, so the [N, C] matrix is never divided. ``peak``
    holds the softmax rows' maxima if known."""
    if multilabel:
        return last_axis_first(class_probs(logits, True)).max(axis=0)
    return 1.0 / _shifted_exp(logits, peak)[1][:, 0]


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each row of a row-stochastic matrix, with
    0 log 0 = 0."""
    p = last_axis_first(p)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=0)


@dataclass
class ForwardOutput:
    """Per-sample gate weights and logits, as tensors; use ``.data``. The
    max-class confidence (a tensor) and the gate entropy (nats, an array)
    are computed from the logits and weights when read, and take no
    gradient: the loss derives its own."""

    p: T.Tensor
    logits: T.Tensor
    multilabel: bool

    def take(self, rows: np.ndarray) -> "ForwardOutput":
        """The weights and logits of the rows that ``rows`` indexes."""
        return ForwardOutput(p=T._result(self.p.data[rows]),
                             logits=T._result(self.logits.data[rows]),
                             multilabel=self.multilabel)

    @property
    def confidence(self) -> T.Tensor:
        return T._result(top_class_prob(self.logits.data, self.multilabel))

    @property
    def gate_entropy(self) -> np.ndarray:
        return entropy_rows(self.p.data)


def _per_modality(n: int, xs, ws: list[np.ndarray]) -> np.ndarray:
    """The [n, M, k] blocks ``xs[m] @ ws[m]`` that a ``_blend`` sums,
    written into one array; ``xs`` may be a generator."""
    out = np.empty((n, len(ws), ws[0].shape[1]))
    for m, (x, w) in enumerate(zip(xs, ws)):
        np.matmul(x, w, out=out[:, m])
    return out


def _gate_products(model: FusionModel, batch: MultimodalBatch):
    """Each modality's [n, d_m + 1] block of the gate input (its columns
    ``cols``) and the blocks' [n, M, H] products with those rows of gate_w1."""
    edges = np.cumsum((0,) + batch.dims)
    cols = [np.append(np.arange(edges[m], edges[m + 1]), edges[-1] + m)
            for m in range(batch.num_modalities)]
    blocks = [np.empty((batch.n, d + 1)) for d in batch.dims]
    for m, (f, block) in enumerate(zip(batch.features, blocks)):
        block[:, -1] = batch.presence[:, m]
        model._gate_block(m, f, block[:, -1:], block[:, :-1])
    return blocks, cols, _per_modality(batch.n, blocks,
                                       [model.gate_w1[c] for c in cols])


def _blend(w: np.ndarray, stacked: np.ndarray):
    """Per-row weighted sums of the M [n, k] blocks of ``stacked`` [n, M, k]
    for V views of their n rows: row v * n + i of the [V * n, k] result is
    sum_m w[v * n + i, m] * stacked[i, m] for [V * n, M] weights w. One
    batched matmul, so the blocks are computed once for every view.
    Returns the result and the [V, n, 1, M] weights that ``_blend_back``
    reads."""
    n, m_count, k = stacked.shape
    wv = w.reshape(-1, n, 1, m_count)
    return np.matmul(wv, stacked).reshape(-1, k), wv


def _blend_back(g: np.ndarray, stacked: np.ndarray, wv: np.ndarray,
                weights: bool):
    """Gradients of a ``_blend`` from its result's gradient g: with respect
    to the weights ([V * n, M], if ``weights``, else None) and the blocks
    ([n, M, k]; block m's is ``[:, m]``)."""
    n, m_count, k = stacked.shape
    g = g.reshape(-1, n, k).transpose(1, 0, 2)  # [n, V, k]
    gw = None
    if weights:
        gw = np.matmul(g, stacked.transpose(0, 2, 1))  # [n, V, M]
        gw = gw.transpose(1, 0, 2).reshape(-1, m_count)
    return gw, np.matmul(wv[:, :, 0, :].transpose(1, 2, 0), g)


def _check_finite(a: np.ndarray, read: np.ndarray | None, what: str) -> None:
    """Raise ``ValueError`` if ``a`` holds a non-finite value on the rows
    that the bool mask ``read`` selects (default: all). The whole array is
    scanned first, so the read rows are gathered only when it finds one."""
    if not np.isfinite(a).all() and (read is None
                                     or not np.isfinite(a[read]).all()):
        raise ValueError(f"{what} are non-finite")


def _gate(model: FusionModel, batch: MultimodalBatch, keep: np.ndarray,
          stacked: np.ndarray | None = None, read: np.ndarray | None = None,
          kept: np.ndarray | None = None, out: np.ndarray | None = None):
    """The gate MLP's weights on the [G * n, M] bool ``keep`` rows of G views
    and the pullback that adds the gate parameters' gradients from theirs.
    With one view and no ``_gate_products`` ``stacked``, gate layer 1 is one
    affine map of its masked gate input; else ``_blend`` sums those per row,
    unless every row keeps the same [M] set ``kept`` of two modalities (a
    read-only set pass): then it is their two blocks' sum, which two terms
    give in any order. The weights go into ``out`` if given.
    Raises ``ValueError`` if the weights are non-finite on the rows that the
    bool mask ``read`` selects (default: all)."""
    w1, w2 = model.gate_w1, model.gate_w2
    single = len(keep) == batch.n and stacked is None
    if single:
        x = model.gate_input(batch, keep)
        pre = x @ w1
    elif kept is not None and kept.sum() == 2:
        # a row's [1, 2] ones times its two blocks, a strided view: no
        # [n, M] weights, no copy, and no ufunc buffer for strided operands
        a, b = np.flatnonzero(kept)
        pre = np.matmul(np.ones((1, 2)), stacked[:, a:b + 1:b - a])
        pre = pre.reshape(-1, stacked.shape[2])
    else:
        if stacked is None:
            blocks, cols, stacked = _gate_products(model, batch)
        pre, wv = _blend(keep.astype(np.float64), stacked)
    pre += model.gate_b1
    h = np.maximum(pre, 0.0, out=pre)
    # softmax across rows over the kept entries (the rest are exp(-inf) = 0
    # exactly), then p back in C order, which the pullback's sums rely on
    s = last_axis_first(np.where(keep, h @ w2 + model.gate_b2, -np.inf))
    s -= s.max(axis=0)
    np.exp(s, out=s)
    s /= s.sum(axis=0)
    p = np.empty(keep.shape) if out is None else out
    p[...] = s.T
    _check_finite(p, read, "gate weights")

    def pullback(gp: np.ndarray) -> None:
        g = np.where(keep, gp, 0.0)
        gs = p * (g - last_axis_first(g * p).sum(axis=0)[:, None])
        model.grad["gate_b2"] += gs.sum(axis=0)
        model.grad["gate_w2"] += h.T @ gs
        gpre = (gs @ w2.T) * (h > 0.0)
        model.grad["gate_b1"] += gpre.sum(axis=0)
        if single:
            model.grad["gate_w1"] += x.T @ gpre
            return
        _, gb = _blend_back(gpre, stacked, wv, weights=False)
        gw1 = np.empty_like(w1)  # the cols cover every row of w1
        for m, c in enumerate(cols):
            gw1[c] = blocks[m].T @ gb[:, m]
        model.grad["gate_w1"] += gw1

    return p, pullback


_NO_MODALITY = "a sample has no observed modality"


def _check_views(model: FusionModel, batch: MultimodalBatch, views):
    """The [V, n, M] bool ``views``. Raises ``ValueError`` if the batch's
    layout is not the model's, the views are not of that shape, or a view
    row keeps a modality its batch row does not observe."""
    if batch.dims != tuple(model.cfg.dims):
        raise ValueError(f"batch layout {batch.dims} does not match model "
                         f"{tuple(model.cfg.dims)}")
    views = np.asarray(views, dtype=bool)
    if views.ndim != 3 or views.shape[1:] != batch.presence.shape:
        raise ValueError(f"views {views.shape} need [V, {batch.n}, "
                         f"{batch.num_modalities}]")
    if (views > batch.presence).any():
        raise ValueError("a view keeps a modality its row does not observe")
    return views


def _gate_rows(model: FusionModel, batch: MultimodalBatch,
               views: np.ndarray | None):
    """The [V * n, M] weights of the checked [V, n, M] views (default: the
    batch's presence) and their pullback, None when no gate parameter
    takes a gradient or no view runs the gate. Only views with a row
    keeping two or more modalities run it; the others' rows are one-hot."""
    views = _check_views(
        model, batch, batch.presence[None] if views is None else views)
    observed = last_axis_first(views).sum(axis=0)  # [V, n]
    if not observed.all():
        raise ValueError(_NO_MODALITY)
    m = batch.num_modalities
    gated = np.flatnonzero((observed > 1).any(axis=1))
    if gated.size == 0:
        return views.reshape(-1, m).astype(np.float64), None
    p, pullback = _gate(model, batch, views[gated].reshape(-1, m))
    if gated.size < len(views):
        rows = (gated[:, None] * batch.n + np.arange(batch.n)).ravel()
        weights = views.reshape(-1, m).astype(np.float64)
        weights[rows] = p
        p, pullback = weights, lambda gp, back=pullback: back(gp[rows])
    return p, None if model.gate_frozen else pullback


def gate_rows(model: FusionModel, batch: MultimodalBatch,
              views: np.ndarray | None = None) -> T.Tensor:
    """Mixture weights over observed modalities, one simplex row per sample
    and view: [V * n, M] for the [V, n, M] presence ``views`` inside
    ``batch.presence`` (default: that presence, V = 1). Read-only: the
    gate's gradient flows through ``forward_pullback``.

    A row observing one modality weighs it by exactly 1 and passes the gate
    no gradient, so the gate runs only on views with a row observing more.

    A gate frozen at its initialisation (``model.gate_frozen`` set) gives
    exactly ``presence / presence.sum(1)`` and takes no gradient: its
    output layer starts at zero, so every logit is 0. Raises
    ``ValueError`` if the batch's layout is not the model's, the weights
    are non-finite, or a view row observes no modality or one its batch row
    does not.
    """
    return T._result(_gate_rows(model, batch, views)[0])


def _fuse(model: FusionModel, p: np.ndarray, stacked: np.ndarray,
          read: np.ndarray | None = None, kept: np.ndarray | None = None,
          out: np.ndarray | None = None):
    """The pass's logits from the [V * n, M] gate weights p and the [n, M, k]
    projections: their ``_blend`` z, then the head, written into ``out`` if
    given; and z and the blend's weights. If every row of a one-view p keeps
    the same [M] set ``kept`` of one modality (a read-only set pass), z is
    that modality's block, which the blend by those one-hot rows gives.
    Raises ``ValueError`` if the logits are non-finite on the rows that the
    bool mask ``read`` selects (default: all)."""
    if kept is not None and kept.sum() == 1:
        z, wv = stacked[:, kept.argmax()], None
    else:
        z, wv = _blend(p, stacked)
    logits = np.matmul(z, model.head_w, out=out)
    logits += model.head_b
    _check_finite(logits, read, "logits")
    return logits, z, wv


def forward(model: FusionModel, batch: MultimodalBatch,
            views: np.ndarray | None = None) -> ForwardOutput:
    """Full fusion pass over ``views`` of the batch's rows, as in
    ``gate_rows``: each modality's projection is computed once on the
    batch's rows and ``_blend`` sums them per view row by its gate weights,
    then the linear head gives the logits. Raises ``ValueError`` as
    ``gate_rows`` does, and if the logits are non-finite."""
    return forward_pullback(model, batch, views)[0]


def forward_pullback(model: FusionModel, batch: MultimodalBatch,
                     views: np.ndarray | None = None):
    """``forward``'s output and its pullback, which adds every parameter's
    gradient (none of the gate's if ``gate_frozen`` is set) from those of the
    logits and ``p`` into the model's buffers, with the array operations of
    the chain in ``tests/reference_chain.py``, in its reverse order."""
    p, gate_back = _gate_rows(model, batch, views)
    stacked = _per_modality(batch.n, batch.features, model.proj)
    logits, z, wv = _fuse(model, p, stacked)

    def pullback(g: np.ndarray, gp: np.ndarray) -> None:
        model.grad["head_b"] += g.sum(axis=0)
        gz = g @ model.head_w.T
        model.grad["head_w"] += z.T @ g
        gw, gb = _blend_back(gz, stacked, wv, gate_back is not None)
        for m, f in enumerate(batch.features):
            model.grad[f"proj_{m}"] += f.T @ gb[:, m]
        if gate_back is not None:
            gate_back(gp + gw)

    return ForwardOutput(p=T._result(p), logits=T._result(logits),
                         multilabel=model.cfg.multilabel), pullback


def _kept_sets(keep: np.ndarray):
    """The distinct rows of the [N, M] bool ``keep``, and the [N] index of
    each row's among them. Each row is coded as an integer from its shifted
    bit columns, and one ``np.bincount`` over the 2^M codes finds the sets,
    unless 2^M exceeds N."""
    m = keep.shape[1]
    if 1 << m > len(keep):
        return np.unique(keep, axis=0, return_inverse=True)
    bits = last_axis_first(keep)
    codes = bits[0].astype(np.intp)
    for j in range(1, m):
        codes |= bits[j].astype(np.intp) << j
    found = np.flatnonzero(np.bincount(codes, minlength=1 << m))
    of_code = np.zeros(1 << m, dtype=np.intp)
    of_code[found] = np.arange(found.size)
    return ((found[:, None] >> np.arange(m)) & 1).astype(bool), of_code[codes]


def forward_views(model: FusionModel, batch: MultimodalBatch,
                  views: np.ndarray):
    """Read-only ``forward`` over the [V, n, M] ``views``, run as a table of
    passes over every row of the batch: one pass per kept set that some
    view row keeps, or one per view when there are more such sets than
    views. A row reads each pass at its own position in an n-row product,
    so its weights and logits are bit for bit those of a pass over its own
    view alone.

    Returns the passes' ``ForwardOutput`` over their P * n rows, row
    k * n + i being row i in pass k, and the [V, n] index of the pass row
    that row i of view v reads: ``out.take(index[v])`` is view v. All views
    are checked first; gate layer 1 blends the split's ``_gate_products``
    once per gated pass, and those are freed before the projections are
    built. A set pass skips the blends whose 0/1 weights give the same
    bits without them: a one-modality set's fusion and a two-modality
    set's gate layer 1. Each pass writes its weights and logits into its
    slot of the table. Raises ``ValueError`` as ``forward`` does, a
    non-finite value counting only on rows that a view reads."""
    views = _check_views(model, batch, views)
    n, m = batch.presence.shape
    sets, index = _kept_sets(views.reshape(-1, m))
    if not sets.any(axis=1).all():  # an empty view row keeps the empty set
        raise ValueError(_NO_MODALITY)
    if len(sets) <= len(views):
        # C order: p takes the layout of keeps, and the blend of a
        # strided p rounds differently
        keeps = np.repeat(sets[:, None], n, axis=1)
        index = index.reshape(-1, n)
        read = np.zeros((len(keeps), n), dtype=bool)
        read[index, np.arange(n)] = True
        index *= n
        index += np.arange(n)
        gated = sets.sum(axis=1) > 1
    else:
        keeps = views
        index = np.arange(len(views))[:, None] * n + np.arange(n)
        # a view reads every row of its pass and may keep several sets
        read = sets = [None] * len(views)
        gated = (last_axis_first(views).sum(axis=0) > 1).any(axis=1)

    products = _gate_products(model, batch)[2] if gated.any() else None
    p = keeps.astype(np.float64)  # one-hot rows where the gate does not run
    for k in np.flatnonzero(gated):
        _gate(model, batch, keeps[k], products, read[k], sets[k], out=p[k])
    del products  # before the projections: one prepared form at a time
    stacked = _per_modality(n, batch.features, model.proj)
    logits = np.empty((len(keeps), n, model.cfg.classes))
    for k in range(len(keeps)):
        _fuse(model, p[k], stacked, read[k], sets[k], out=logits[k])
    return ForwardOutput(p=T._result(p.reshape(-1, m)),
                         logits=T._result(logits.reshape(-1, logits.shape[2])),
                         multilabel=model.cfg.multilabel), index


def predict_subset(model: FusionModel, batch: MultimodalBatch,
                   observed: np.ndarray) -> ForwardOutput:
    """``forward`` over the ``keep_observed`` view of the batch for the
    nonempty [M] bool row ``observed``. Raises ``ValueError`` as ``forward``
    does, or if ``observed`` is empty or does not cover the modalities."""
    if not np.any(observed):
        raise ValueError("the subset is empty")
    view = keep_observed(batch.presence, observed)[0]
    return forward(model, batch, view[None])


# ---------------------------------------------------------------------------
# checkpointing (.npz with a JSON config entry; layout documented in README)
# ---------------------------------------------------------------------------

def save_checkpoint(model: FusionModel, path) -> None:
    arrays = dict(model.parameters())
    for m in range(model.cfg.modalities):
        arrays[f"norm_mean_{m}"] = model.norm_mean[m]
        arrays[f"norm_std_{m}"] = model.norm_std[m]
    cfg_dict = asdict(model.cfg)
    cfg_dict["dims"] = list(cfg_dict["dims"])
    arrays["config_json"] = np.frombuffer(
        json.dumps(cfg_dict, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> FusionModel:
    """Model saved by ``save_checkpoint``. Raises ``ValueError`` if the file
    is not a readable npz archive (empty, cut off, a lone ``.npy``, a failed
    CRC), an entry is missing, the stored config does not build a
    ``FusionConfig`` (e.g. a key this version no longer has), an array does
    not fit that config or holds a non-finite value, or a ``norm_std`` entry
    is not positive."""
    try:
        archive = np.load(path)
    except OSError:
        raise
    except Exception as exc:  # EOFError, a bad zip, a pickle
        raise ValueError(f"checkpoint is not an npz archive: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError("checkpoint is not an npz archive")
    with archive as z:
        def entry(key: str) -> np.ndarray:
            if key not in z.files:
                raise ValueError(f"checkpoint lacks entry {key}")
            try:
                return z[key]
            except Exception as exc:  # a bad CRC or a cut-off member
                raise ValueError(f"checkpoint entry {key} is unreadable: "
                                 f"{exc}") from exc

        try:
            cfg_dict = json.loads(entry("config_json").tobytes().decode("utf-8"))
            cfg_dict["dims"] = tuple(cfg_dict["dims"])
            cfg = FusionConfig(**cfg_dict)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint config does not fit: {exc}") from exc

        def load(key: str, shape: tuple[int, ...]) -> np.ndarray:
            arr = np.asarray(entry(key), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"checkpoint array {key} has shape "
                                 f"{arr.shape}, the config needs {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint array {key} is non-finite")
            if key.startswith("norm_std") and not (arr > 0.0).all():
                raise ValueError(f"checkpoint array {key} holds a value <= 0")
            return arr

        model = FusionModel.from_seed(cfg, seed=0)
        for name, p in model.parameters():
            p[...] = load(name, p.shape)
        model.norm_mean = [load(f"norm_mean_{m}", (d,))
                           for m, d in enumerate(cfg.dims)]
        model.norm_std = [load(f"norm_std_{m}", (d,))
                          for m, d in enumerate(cfg.dims)]
    return model
