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
    as its VARIANTS entry says. An unknown variant, a non-finite alpha_init or a
    residual block that changes width is refused before any weight is drawn."""
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


# Training time grows with samples x epochs; 2**21 is about 32 s at batch 8 for the
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


def _prelu(x: np.ndarray, a: float):
    """-> (prelu(x; a), min(x, 0)); backward reuses the second term for the slope
    gradient."""
    neg = np.minimum(x, _ZERO)
    return np.maximum(x, _ZERO) + a * neg, neg


def _forward(model: MlpModel, x: np.ndarray):
    """-> (logits, last features, per-block caches of (x, min(x, 0), h0, z, min(z, 0),
    h1) for backward)."""
    caches = []
    h = x
    for blk in model.blocks:
        h0, neg_x = _prelu(h, 1.0 - blk.alpha)
        z = h0 @ blk.w_expand.T
        h1, neg_z = _prelu(z, blk.alpha)
        out = h1 @ blk.w_project.T
        caches.append((h, neg_x, h0, z, neg_z, h1))
        h = out + h if blk.residual else out
    logits = h @ model.w_head.T + model.b_head
    return logits, h, caches


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of two-class logits [n, 2]. Column ops give the same bits as a
    row max and a row sum, and cost less than those two axis reductions."""
    expv = np.exp(logits - np.maximum(logits[:, 0], logits[:, 1])[:, None])
    return expv / (expv[:, 0] + expv[:, 1])[:, None]


def forward_loss(model: MlpModel, batch, lam: float) -> dict:
    """Full objective on a batch -> {loss, accuracy, regularizer, cross_entropy}."""
    x, y = batch
    logits, _, _ = _forward(model, x)
    if not np.all(np.isfinite(logits)):
        raise SearchError("non-finite activations in forward pass")
    probs = _softmax(logits)
    ce = -np.log(probs[np.arange(len(y)), y] + 1e-300).mean()
    reg = float(sum((b.alpha - 1.0) ** 2 for b in model.blocks))
    acc = float((np.argmax(probs, axis=1) == y).mean())
    return {
        "loss": float(ce + lam * reg),
        "accuracy": acc,
        "regularizer": reg,
        "cross_entropy": float(ce),
    }


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
    _backward(model, x, np.eye(2)[y], lam, grads)
    return grads


def _backward(model: MlpModel, x: np.ndarray, onehot: np.ndarray, lam: float,
              grads: Grads) -> None:
    """backward on inputs x and one-hot labels, writing into the arrays of grads.

    A PReLU site's input gradient is the slope times its output gradient, into which
    np.copyto puts the output gradient back where the site's input is positive: the
    selection np.where makes, without its dispatch. The alpha terms reuse the
    forward's min(x, 0) and min(z, 0). Block 0's input gradient is not formed, as
    nothing reads it. A plain block hands d_x on without adding 0.0, which would only
    turn its -0.0 entries into +0.0. That can flip only the sign of a zero gradient
    entry, and w - lr * g ignores the sign of a zero g unless w is -0.0, which no
    update makes from a weight that is not. Each alpha sum starts from 0.0, so a zero
    sum's sign does not reach alpha either."""
    logits, feats, caches = _forward(model, x)
    # d(mean cross-entropy)/d logits = (softmax - onehot) / n
    dlogits = _softmax(logits)
    dlogits -= onehot
    dlogits /= len(x)
    np.matmul(dlogits.T, feats, out=grads.w_head)
    np.add.reduce(dlogits, 0, out=grads.b_head)
    d_out = dlogits @ model.w_head
    for i in range(len(model.blocks) - 1, -1, -1):
        blk = model.blocks[i]
        a = blk.alpha
        x_in, neg_x, h0, z, neg_z, h1 = caches[i]
        np.matmul(d_out.T, h1, out=grads.w_project[i])
        d_h1 = d_out @ blk.w_project
        # second PReLU site, slope alpha on the negative part
        d_z = a * d_h1
        np.copyto(d_z, d_h1, where=z > _ZERO)
        g_a = 0.0
        g_a += float(np.add.reduce(d_h1 * neg_z, None))
        np.matmul(d_z.T, h0, out=grads.w_expand[i])
        d_h0 = d_z @ blk.w_expand
        # first PReLU site, slope (1 - alpha) on the negative part
        g_a -= float(np.add.reduce(d_h0 * neg_x, None))
        grads.alpha[i] = g_a + 2.0 * lam * (a - 1.0)
        if i:
            d_x = (1.0 - a) * d_h0
            np.copyto(d_x, d_h0, where=x_in > _ZERO)
            d_out = d_x + d_out if blk.residual else d_x


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


# The per-epoch loss runs the whole dataset at once, holding samples x expanded
# width activations per block: 2**23 is 8192 samples at width 1024 (290 MB peak).
MAX_ACTIVATIONS = 2**23


def train_search(model: MlpModel, dataset, cfg: SearchConfig) -> SearchTrace:
    """Plain minibatch SGD on the joint objective; mutates the model in place and
    returns the per-epoch trace. Deterministic given cfg.seed.

    The model's weight arrays are first copied into one flat buffer and rebound as
    views of it, so one update of the buffer is each step's whole weight update; the
    alphas stay Python floats. Each epoch's full-data forward_loss runs inside the
    same np.errstate block and try as the steps, so a diverging run raises only its
    SearchError."""
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
    eye = np.eye(2)
    gen = generator(cfg.seed, index=1)
    trace = SearchTrace()
    blocks, lam, lr, batch = model.blocks, cfg.lam, cfg.lr, cfg.batch
    for epoch in range(cfg.epochs):
        perm = gen.permutation(n)
        x_perm, onehot = x[perm], eye[y[perm]]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, batch):
                    stop = start + batch
                    _backward(model, x_perm[start:stop], onehot[start:stop], lam, grads)
                    params -= lr * grad_buf
                    for blk, g_a in zip(blocks, grads.alpha):
                        blk.alpha -= lr * g_a
                stats = forward_loss(model, (x, y), lam)
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
