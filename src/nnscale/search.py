"""Desk-scale non-linearity search on MLP analogs of the restructurable block.

Each block carries one trainable scalar alpha shared by its two PReLU sites (the
first uses slope 1 - alpha, the second uses alpha), so alpha = 1 makes the block
linear and collapsible while alpha = 0 leaves it bottleneck-like. Training minimises
softmax cross-entropy plus lam * ||alpha - 1||^2 with plain SGD and hand-written
reverse-mode gradients.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from .archspec import NnscaleError, Record, round_half_up
from .restructure import afrb_decide
from .tensor import generator

# AFRB variant -> (expansion, residual add): a1 plain, a2 residual, a3 half-width residual
VARIANTS = {"a1": (4.0, False), "a2": (4.0, True), "a3": (0.5, True)}


class SearchError(NnscaleError):
    pass


class AfrbMlpBlock:
    """x -> prelu(x; 1-alpha) -> expand -> prelu(.; alpha) -> project (+x for the
    residual variants). make_model checks the variant, alpha and widths."""

    def __init__(self, alpha: float, w_expand: np.ndarray, w_project: np.ndarray,
                 variant: str = "a1"):
        self.alpha = alpha
        self.w_expand = w_expand    # [m, d_in]
        self.w_project = w_project  # [d_out, m]
        self.variant = variant
        self.residual = VARIANTS[variant][1]

    @property
    def expanded_width(self) -> int:
        return self.w_expand.shape[0]


class MlpModel:
    def __init__(self, blocks: List[AfrbMlpBlock], w_head: np.ndarray, b_head: np.ndarray):
        self.blocks = blocks
        self.w_head = w_head  # [classes, d_last]
        self.b_head = b_head  # [classes]

    @property
    def alphas(self) -> List[float]:
        return [b.alpha for b in self.blocks]


# Weights, gradients and update temporaries each hold this many float64 entries;
# 2**22 (32 MB apiece) admits three a1 blocks at width 256 (1.05M entries).
MAX_WEIGHT_ENTRIES = 2**22


def make_model(
    layer_dims: Sequence[int],
    variants: Sequence[str],
    seed: int = 0,
    alpha_init: float = 0.5,
) -> MlpModel:
    """Seeded two-class model with He-scaled weights, each block expanded and added
    as its VARIANTS entry says. An empty or unknown variant, a non-finite alpha_init
    or a residual block that changes width is refused before any weight is drawn."""
    if not variants:
        raise SearchError("need at least one block variant")
    if len(layer_dims) != len(variants) + 1:
        raise SearchError("need len(layer_dims) == len(variants) + 1")
    if not math.isfinite(alpha_init):
        raise SearchError("alpha must be finite")
    shapes = []  # (d_in, m, d_out) per block
    for i, (d_in, d_out, variant) in enumerate(zip(layer_dims, layer_dims[1:], variants)):
        if variant not in VARIANTS:
            raise SearchError(f"unknown variant {variant!r}")
        expansion, residual = VARIANTS[variant]
        if residual and d_in != d_out:
            raise SearchError(
                f"block {i} ({variant}) is residual but maps width {d_in} to {d_out}; "
                f"the variant list must start with a1 unless --width {d_in}")
        shapes.append((d_in, max(1, round_half_up(expansion * d_in)), d_out))
    entries = sum(m * (d_in + d_out) for d_in, m, d_out in shapes) + 2 * layer_dims[-1]
    if entries > MAX_WEIGHT_ENTRIES:
        raise SearchError(f"{entries} weight entries exceeds {MAX_WEIGHT_ENTRIES}")
    gen = generator(seed)
    blocks = []
    for (d_in, m, d_out), variant in zip(shapes, variants):
        # prelu sites start at slope 0.5, so unit-gain init is stabler than He
        w_e = gen.standard_normal((m, d_in)) * math.sqrt(1.0 / d_in)
        w_p = gen.standard_normal((d_out, m)) * math.sqrt(1.0 / m)
        blocks.append(AfrbMlpBlock(alpha=alpha_init, w_expand=w_e, w_project=w_p, variant=variant))
    d_last = layer_dims[-1]
    w_head = gen.standard_normal((2, d_last)) * math.sqrt(1.0 / d_last)
    b_head = np.zeros(2)
    return MlpModel(blocks=blocks, w_head=w_head, b_head=b_head)


# Training time grows with samples x epochs; 2**21 is about 21 s at batch 8 for the
# default three-block width-8 model on two cores.
MAX_SAMPLE_EPOCHS = 2**21


def make_dataset(kind: str, n: int, noise: float, seed: int):
    """Synthetic 2-class, 2-D datasets -> (inputs [n, 2], labels [n]).
    blobs stay linearly separable while noise <= 0.5 x the class-center distance."""
    if n < 8:
        raise SearchError("need n >= 8 samples")
    if n > MAX_SAMPLE_EPOCHS:
        raise SearchError(f"{n} samples exceeds {MAX_SAMPLE_EPOCHS}")
    gen = generator(seed)
    n0 = n // 2
    n1 = n - n0
    if kind == "blobs":
        a = np.array([-2.0, 0.0]) + noise * gen.standard_normal((n0, 2))
        b = np.array([2.0, 0.0]) + noise * gen.standard_normal((n1, 2))
    elif kind == "moons":
        t0 = np.linspace(0.0, math.pi, n0)
        t1 = np.linspace(0.0, math.pi, n1)
        a = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        b = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        a = a + noise * gen.standard_normal(a.shape)
        b = b + noise * gen.standard_normal(b.shape)
    elif kind == "xor":
        x = gen.uniform(-1.0, 1.0, size=(n, 2))
        y = ((x[:, 0] > 0) != (x[:, 1] > 0)).astype(np.int64)
        x = x + noise * gen.standard_normal(x.shape)
        return x, y
    else:
        raise SearchError(f"unknown dataset kind {kind!r}")
    x = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    perm = gen.permutation(n)
    return x[perm], y[perm]


# A 0-d zero as the other operand of np.minimum, np.maximum and the > 0 masks: a
# Python 0.0 would be converted to an array on every call.
_ZERO = np.zeros(())


def _prelu(x: np.ndarray, a: float, neg: np.ndarray, prod: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """prelu(x; a) into out, min(x, 0) into neg (backward reuses it for the slope
    gradient) and a * min(x, 0) into prod. prod may be neg and out may be x, as in a
    forward-only workspace; out must not be neg or prod."""
    np.minimum(x, _ZERO, out=neg)
    np.maximum(x, _ZERO, out=out)
    np.multiply(neg, a, out=prod)
    return np.add(out, prod, out=out)


class _BlockSpace:
    """One block's arrays in a _Workspace, with its weights' transposes as views.
    Backward reads neg_x, h0, z, neg_z and h1 of the forward pass; d_x is the
    gradient the block below takes as d_out."""

    __slots__ = ("w_e_t", "w_p_t", "x", "neg_x", "prod_x", "h0", "z",
                 "neg_z", "prod_z", "h1", "out", "d_out", "d_out_t", "d_h1", "mask_z",
                 "d_z", "d_z_t", "d_h0", "d_x", "mask_x")


class _Workspace:
    """Every temporary of a forward pass on `rows` rows of model, and with train
    also of its backward pass, allocated once, so that a step writes each result
    through out= into one of these arrays. The transposed weights are views taken
    once: they stay valid while train_search updates its flat parameter buffer in
    place. Temporaries that live only within one block's step are shared by the
    blocks: in a training step the forward pass keeps its PReLU products in the
    backward's d_h0 and d_z, which are free until then, and backward writes each
    alpha product over the min(., 0) term it is the last to read. A forward-only
    workspace also shares the blocks' forward terms, which nothing reads back, and
    computes each PReLU in place (z becomes h1), so the full-data loss holds two
    expanded-width arrays."""

    def __init__(self, model: MlpModel, rows: int, train: bool = True):
        shared = {}

        def array(name, cols, block=None, dtype=np.float64):
            """A [rows, cols] array; the blocks share one per name and width unless
            block names its owner."""
            key = (name, cols, block)
            if key not in shared:
                shared[key] = np.empty((rows, cols), dtype)
            return shared[key]

        self.model, self.rows = model, rows
        self.blocks = []
        for i, blk in enumerate(model.blocks):
            b = _BlockSpace()
            m, d_in = blk.w_expand.shape
            d_out = blk.w_project.shape[0]
            own = i if train else None
            b.w_e_t, b.w_p_t = blk.w_expand.T, blk.w_project.T
            b.x = self.blocks[-1].out if i else None
            b.neg_x, b.h0 = array("neg_x", d_in, own), array("h0", d_in, own)
            b.z, b.neg_z = array("z", m, own), array("neg_z", m, own)
            b.out = array("out", d_out, i)
            if train:
                b.h1 = array("h1", m, i)
                b.d_h1, b.d_z, b.d_h0 = array("d_h1", m), array("d_z", m), array("d_h0", d_in)
                b.d_z_t = b.d_z.T
                b.prod_x, b.prod_z = b.d_h0, b.d_z
                b.mask_z = array("mask_z", m, dtype=bool)
                b.mask_x = array("mask_x", d_in, dtype=bool)
                b.d_x = array("d_x", d_in, i)
            else:
                b.prod_x, b.prod_z, b.h1 = b.neg_x, b.neg_z, b.z
            self.blocks.append(b)
        self.w_h_t = model.w_head.T
        self.logits = np.empty((rows, 2))
        self.probs = np.empty((rows, 2))
        self.row = np.empty(rows)
        self.row_col = self.row[:, None]
        self.logit_0, self.logit_1 = self.logits[:, 0], self.logits[:, 1]
        self.prob_0, self.prob_1 = self.probs[:, 0], self.probs[:, 1]
        self.probs_t = self.probs.T
        if train:
            self.d_feats = np.empty((rows, model.w_head.shape[1]))
            d_outs = [b.d_x for b in self.blocks[1:]] + [self.d_feats]
            for b, d_out in zip(self.blocks, d_outs):
                b.d_out, b.d_out_t = d_out, d_out.T


def _forward(ws: _Workspace, x: np.ndarray) -> np.ndarray:
    """The model's forward pass on x into ws -> the last block's output; the logits
    are in ws.logits. A product is the ndarray.dot method: np.dot's bits, without
    its __array_function__ dispatch."""
    model = ws.model
    h = x
    for blk, b in zip(model.blocks, ws.blocks):
        a = blk.alpha
        _prelu(h, 1.0 - a, b.neg_x, b.prod_x, b.h0)
        b.h0.dot(b.w_e_t, out=b.z)
        _prelu(b.z, a, b.neg_z, b.prod_z, b.h1)
        b.h1.dot(b.w_p_t, out=b.out)
        if blk.residual:
            np.add(b.out, h, out=b.out)
        h = b.out
    h.dot(ws.w_h_t, out=ws.logits)
    np.add(ws.logits, model.b_head, out=ws.logits)
    return h


def _softmax(ws: _Workspace) -> np.ndarray:
    """Row softmax of the two-class logits in ws -> ws.probs. Column ops give the
    same bits as a row max and a row sum, and cost less than those two axis
    reductions."""
    np.maximum(ws.logit_0, ws.logit_1, out=ws.row)
    np.subtract(ws.logits, ws.row_col, out=ws.probs)
    np.exp(ws.probs, out=ws.probs)
    np.add(ws.prob_0, ws.prob_1, out=ws.row)
    return np.divide(ws.probs, ws.row_col, out=ws.probs)


def _loss(ws: _Workspace, x: np.ndarray, y: np.ndarray, lam: float) -> dict:
    _forward(ws, x)
    if not np.all(np.isfinite(ws.logits)):
        raise SearchError("non-finite activations in forward pass")
    probs = _softmax(ws)
    ce = -np.log(probs[np.arange(len(y)), y] + 1e-300).mean()
    reg = float(sum((b.alpha - 1.0) ** 2 for b in ws.model.blocks))
    acc = float((np.argmax(probs, axis=1) == y).mean())
    return {
        "loss": float(ce + lam * reg),
        "accuracy": acc,
        "regularizer": reg,
        "cross_entropy": float(ce),
    }


def forward_loss(model: MlpModel, batch, lam: float) -> dict:
    """Full objective on a batch -> {loss, accuracy, regularizer, cross_entropy}."""
    x, y = batch
    return _loss(_Workspace(model, len(y), train=False), x, y, lam)


class Grads:
    def __init__(self, w_expand: List[np.ndarray], w_project: List[np.ndarray],
                 alpha: List[float], w_head: np.ndarray, b_head: np.ndarray):
        self.w_expand = w_expand
        self.w_project = w_project
        self.alpha = alpha
        self.w_head = w_head
        self.b_head = b_head


def _weights(model: MlpModel) -> List[np.ndarray]:
    """The model's weight arrays in the order of a flat parameter buffer."""
    arrays = [a for blk in model.blocks for a in (blk.w_expand, blk.w_project)]
    return arrays + [model.w_head, model.b_head]


def _views(buf: np.ndarray, arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Views of the flat buffer buf shaped like arrays, one after another."""
    views, at = [], 0
    for a in arrays:
        views.append(buf[at:at + a.size].reshape(a.shape))
        at += a.size
    return views


def _grads_in(model: MlpModel, buf: np.ndarray) -> Grads:
    """Gradients held in views of buf, laid out as the model's flat parameters."""
    v = _views(buf, _weights(model))
    n = len(model.blocks)
    return Grads(w_expand=v[0:2 * n:2], w_project=v[1:2 * n:2], alpha=[0.0] * n,
                 w_head=v[-2], b_head=v[-1])


def backward(model: MlpModel, batch, lam: float) -> Grads:
    """Exact reverse-mode gradients of the full objective. The alpha gradient sums
    the first PReLU site (chain factor -1), the second site (+1), and 2 lam (a-1)."""
    x, y = batch
    grads = _grads_in(model, np.empty(sum(a.size for a in _weights(model))))
    _backward(_Workspace(model, len(y)), x, np.eye(2)[y], lam, grads)
    return grads


def _backward(ws: _Workspace, x: np.ndarray, onehot: np.ndarray, lam: float,
              grads: Grads) -> None:
    """backward on inputs x and one-hot labels, through the training workspace ws
    (x has ws.rows rows), writing into the arrays of grads.

    A PReLU site's input gradient is the slope times its output gradient, into which
    np.putmask puts the output gradient back where the site's input is positive: the
    selection np.where makes, without its dispatch, at about half the cost of
    np.copyto(where=). The alpha terms reuse the forward's min(x, 0) and min(z, 0).
    Block 0's input gradient is not formed, as nothing reads it. A plain block hands d_x on without adding 0.0, which would only
    turn its -0.0 entries into +0.0. That can flip only the sign of a zero gradient
    entry, and w - lr * g ignores the sign of a zero g unless w is -0.0, which no
    update makes from a weight that is not. Each alpha sum starts from 0.0, so a zero
    sum's sign does not reach alpha either."""
    feats = _forward(ws, x)
    # d(mean cross-entropy)/d logits = (softmax - onehot) / n
    dlogits = _softmax(ws)
    np.subtract(dlogits, onehot, out=dlogits)
    np.divide(dlogits, ws.rows, out=dlogits)
    ws.probs_t.dot(feats, out=grads.w_head)
    np.add.reduce(dlogits, 0, out=grads.b_head)
    model = ws.model
    dlogits.dot(model.w_head, out=ws.d_feats)
    blocks = model.blocks
    for i in range(len(blocks) - 1, -1, -1):
        blk, b = blocks[i], ws.blocks[i]
        a = blk.alpha
        b.d_out_t.dot(b.h1, out=grads.w_project[i])
        b.d_out.dot(blk.w_project, out=b.d_h1)
        # second PReLU site, slope alpha on the negative part
        np.multiply(b.d_h1, a, out=b.d_z)
        np.greater(b.z, _ZERO, out=b.mask_z)
        np.putmask(b.d_z, b.mask_z, b.d_h1)
        g_a = 0.0
        g_a += float(np.add.reduce(np.multiply(b.d_h1, b.neg_z, out=b.neg_z), None))
        b.d_z_t.dot(b.h0, out=grads.w_expand[i])
        b.d_z.dot(blk.w_expand, out=b.d_h0)
        # first PReLU site, slope (1 - alpha) on the negative part
        g_a -= float(np.add.reduce(np.multiply(b.d_h0, b.neg_x, out=b.neg_x), None))
        grads.alpha[i] = g_a + 2.0 * lam * (a - 1.0)
        if i:
            np.multiply(b.d_h0, 1.0 - a, out=b.d_x)
            np.greater(b.x, _ZERO, out=b.mask_x)
            np.putmask(b.d_x, b.mask_x, b.d_h0)
            if blk.residual:
                np.add(b.d_x, b.d_out, out=b.d_x)


class SearchConfig(Record):
    lam: float = 1e-3
    lr: float = 0.2
    epochs: int = 300
    batch: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.lam < 1:
            raise SearchError("lam must lie in [0, 1)")
        if self.lr <= 0 or self.batch < 1 or self.epochs < 0:
            raise SearchError("bad optimizer settings")


class SearchTrace:
    """Per-epoch history; regularizer holds the penalty as it enters the loss,
    lam * sum((alpha_i - 1)^2), so it is identically zero at lam = 0."""

    def __init__(self):
        self.loss, self.accuracy, self.alphas, self.regularizer = [], [], [], []

    def __len__(self) -> int:
        return len(self.loss)


# The per-epoch loss runs the whole dataset at once through a forward-only workspace
# that holds two samples x expanded width arrays: 2**23 is 8192 samples at width
# 1024 (about 300 MB peak RSS for the default three blocks at --width 256).
MAX_ACTIVATIONS = 2**23


def train_search(model: MlpModel, dataset, cfg: SearchConfig) -> SearchTrace:
    """Plain minibatch SGD on the joint objective; mutates the model in place and
    returns the per-epoch trace. Deterministic given cfg.seed.

    The model's weight arrays are first copied into one flat buffer and rebound as
    views of it, so one update of the buffer is each step's whole weight update; the
    alphas stay Python floats. One training workspace per batch row count (the full
    batch, and a shorter last batch when batch does not divide the samples) and one
    n-row workspace for the per-epoch full-data loss are built once, so a step
    allocates no array. Each epoch's loss runs inside the same np.errstate block and
    try as the steps, so a diverging run raises only its SearchError."""
    x, y = dataset
    n = len(y)
    if n * cfg.epochs > MAX_SAMPLE_EPOCHS:
        raise SearchError(f"samples x epochs = {n} x {cfg.epochs} exceeds {MAX_SAMPLE_EPOCHS}")
    widest = max(blk.expanded_width for blk in model.blocks)
    if n * widest > MAX_ACTIVATIONS:
        raise SearchError(f"samples x widest expanded width = {n} x {widest} "
                          f"exceeds {MAX_ACTIVATIONS}")
    weights = _weights(model)
    params = np.concatenate([a.ravel() for a in weights])
    views = _views(params, weights)
    for blk, w_e, w_p in zip(model.blocks, views[0::2], views[1::2]):
        blk.w_expand, blk.w_project = w_e, w_p
    model.w_head, model.b_head = views[-2:]
    grad_buf = np.empty_like(params)
    grads = _grads_in(model, grad_buf)
    batch = cfg.batch
    spaces = {rows: _Workspace(model, rows) for rows in {min(batch, n), n % batch} - {0}}
    full = spaces.get(n) or _Workspace(model, n, train=False)
    eye = np.eye(2)
    x_perm, onehot = np.empty(x.shape, x.dtype), np.empty((n, 2))
    steps = [(spaces[len(x_perm[start:start + batch])], x_perm[start:start + batch],
              onehot[start:start + batch]) for start in range(0, n, batch)]
    gen = generator(cfg.seed, index=1)
    trace = SearchTrace()
    blocks, lam, lr = model.blocks, cfg.lam, cfg.lr
    for epoch in range(cfg.epochs):
        perm = gen.permutation(n)
        np.take(x, perm, axis=0, out=x_perm)
        np.take(eye, y[perm], axis=0, out=onehot)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for ws, x_batch, onehot_batch in steps:
                    _backward(ws, x_batch, onehot_batch, lam, grads)
                    grad_buf *= lr
                    params -= grad_buf
                    for blk, g_a in zip(blocks, grads.alpha):
                        blk.alpha -= lr * g_a
                stats = _loss(full, x, y, lam)
        except SearchError as exc:
            raise SearchError(f"training diverged at epoch {epoch}: {exc}") from exc
        if not math.isfinite(stats["loss"]):
            raise SearchError(f"training diverged at epoch {epoch}")
        trace.loss.append(stats["loss"])
        trace.accuracy.append(stats["accuracy"])
        trace.alphas.append(model.alphas)
        trace.regularizer.append(cfg.lam * stats["regularizer"])
    return trace


def nonlinearity_count(model: MlpModel) -> int:
    """Non-linear units surviving restructuring: blocks inside the collapse band
    contribute nothing, the rest keep their expanded-width units."""
    total = 0
    for blk in model.blocks:
        if afrb_decide(blk.alpha) != "collapse":
            total += blk.expanded_width
    return total
