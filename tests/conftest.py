import dataclasses
import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest

import nnscale
import nnscale.search as S
import nnscale.tensor as T
from nnscale.archspec import Record, asdict, fields, replace

# Hypothesis settings shared by the property tests: a fixed derivation of examples
# (no example database), no per-example deadline.
PROFILE = dict(derandomize=True, deadline=None, max_examples=150, database=None)


def traced_peak_mb(fn, *args, **kwargs) -> float:
    """Peak traced Python-heap allocation, in MB, while fn runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bn_scale(var, gamma, epsilon=1e-5):
    return gamma / np.sqrt(var + epsilon)


def batch_norm(y, mean, var, gamma, beta, epsilon=1e-5):
    """Inference batch norm of y [C, H, W], one set of statistics per channel."""
    scale = bn_scale(var, gamma, epsilon)
    return (y - mean[:, None, None]) * scale[:, None, None] + beta[:, None, None]


def fold_bn(w, mean, var, gamma, beta, epsilon=1e-5):
    """The conv that equals batch_norm after w: kernel' = kernel * s and
    bias' = (bias - mean) * s + beta, with s = gamma / sqrt(var + epsilon)."""
    scale = bn_scale(var, gamma, epsilon)
    bias = w.bias if w.bias is not None else np.zeros(w.out_channels)
    return T.ConvWeights(kernel=w.kernel * scale[:, None, None, None],
                         bias=(bias - mean) * scale + beta,
                         stride=w.stride, groups=w.groups)


def reference_collapse(seq):
    """Collapse as an identity-seeded fold: each layer becomes a dense kernel (a
    depthwise one block-diagonal) and is composed onto the running kernel by einsum,
    with b' = (sum_uv W) b + c from a zero bias. The merged kernel and bias of
    restructure.collapse must equal it bit for bit."""
    kernel = np.eye(seq.in_channels)[:, :, None, None]
    bias = np.zeros(seq.in_channels)
    for w in seq.layers:
        k = w.kernel
        if w.groups > 1:
            per = w.out_channels // w.in_channels
            k = k * np.repeat(np.eye(w.in_channels), per, axis=0)[:, :, None, None]
        if w.kernel_size == 1:
            kernel = np.einsum("oc,ciuv->oiuv", k[:, :, 0, 0], kernel)
        else:
            kernel = np.einsum("ocuv,ci->oiuv", k, kernel[:, :, 0, 0])
        bias = k.sum((2, 3)) @ bias + (w.bias if w.bias is not None else 0.0)
    any_bias = any(w.bias is not None for w in seq.layers)
    return kernel, bias if any_bias else None


def _reference_forward(model, x):
    """The model's forward pass -> (logits, last features, per-block (x, h0, z, h1))."""
    def prelu(v, a):
        return np.maximum(v, 0.0) + a * np.minimum(v, 0.0)
    caches = []
    h = x
    for blk in model.blocks:
        h0 = prelu(h, 1.0 - blk.alpha)
        z = h0 @ blk.w_expand.T
        h1 = prelu(z, blk.alpha)
        out = h1 @ blk.w_project.T
        caches.append((h, h0, z, h1))
        h = out + h if blk.residual else out
    return h @ model.w_head.T + model.b_head, h, caches


def _reference_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    return expv / expv.sum(axis=1, keepdims=True)


def reference_backward(model, batch, lam):
    """Reverse-mode gradients of the search objective, one array per parameter, by
    row reductions and a fancy-indexed label write: the reference train_search's
    gradients are checked against."""
    x, y = batch
    logits, feats, caches = _reference_forward(model, x)
    dlogits = _reference_softmax(logits)
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    g_wh = dlogits.T @ feats
    g_bh = dlogits.sum(axis=0)
    d_out = dlogits @ model.w_head
    g_we, g_wp, g_a = [None] * len(model.blocks), [None] * len(model.blocks), [0.0] * len(model.blocks)
    for i in range(len(model.blocks) - 1, -1, -1):
        blk = model.blocks[i]
        x_in, h0, z, h1 = caches[i]
        d_res = d_out if blk.residual else 0.0
        g_wp[i] = d_out.T @ h1
        d_h1 = d_out @ blk.w_project
        d_z = d_h1 * np.where(z > 0, 1.0, blk.alpha)
        g_a[i] += float((d_h1 * np.minimum(z, 0.0)).sum())
        g_we[i] = d_z.T @ h0
        d_h0 = d_z @ blk.w_expand
        d_x = d_h0 * np.where(x_in > 0, 1.0, 1.0 - blk.alpha)
        g_a[i] -= float((d_h0 * np.minimum(x_in, 0.0)).sum())
        g_a[i] += 2.0 * lam * (blk.alpha - 1.0)
        d_out = d_x + d_res
    return S.Grads(w_expand=g_we, w_project=g_wp, alpha=g_a, w_head=g_wh, b_head=g_bh)


def _reference_loss(model, x, y, lam):
    logits, _, _ = _reference_forward(model, x)
    if not np.all(np.isfinite(logits)):
        raise S.SearchError("non-finite activations in forward pass")
    probs = _reference_softmax(logits)
    ce = -np.log(probs[np.arange(len(y)), y] + 1e-300).mean()
    reg = float(sum((b.alpha - 1.0) ** 2 for b in model.blocks))
    acc = float((np.argmax(probs, axis=1) == y).mean())
    return float(ce + lam * reg), acc, reg


def reference_train_search(model, dataset, cfg):
    """Minibatch SGD as reference_backward and then one in-place update per array
    and alpha: the loop search.train_search must match bit for bit. Mutates the
    model and returns the trace as (loss, accuracy, regularizer, alphas) lists."""
    x, y = dataset
    n = len(y)
    gen = T.generator(cfg.seed, index=1)
    loss, accuracy, regularizer, alphas = [], [], [], []
    for epoch in range(cfg.epochs):
        perm = gen.permutation(n)
        x_perm, y_perm = x[perm], y[perm]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, cfg.batch):
                    stop = start + cfg.batch
                    grads = reference_backward(
                        model, (x_perm[start:stop], y_perm[start:stop]), cfg.lam)
                    for i, blk in enumerate(model.blocks):
                        blk.w_expand -= cfg.lr * grads.w_expand[i]
                        blk.w_project -= cfg.lr * grads.w_project[i]
                        blk.alpha -= cfg.lr * grads.alpha[i]
                    model.w_head -= cfg.lr * grads.w_head
                    model.b_head -= cfg.lr * grads.b_head
                stats = _reference_loss(model, x, y, cfg.lam)
        except S.SearchError as exc:
            raise S.SearchError(f"training diverged at epoch {epoch}: {exc}") from exc
        if not np.isfinite(stats[0]):
            raise S.SearchError(f"training diverged at epoch {epoch}")
        loss.append(stats[0])
        accuracy.append(stats[1])
        regularizer.append(cfg.lam * stats[2])
        alphas.append(model.alphas)
    return loss, accuracy, regularizer, alphas


def _dataclass_twin(cls):
    """A frozen dataclass with the record class's name, fields and defaults: the
    reference the record base is checked against."""
    spec = [(n, t, dataclasses.field(default=getattr(cls, n))) if hasattr(cls, n) else (n, t)
            for n, t in fields(cls).items()]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


# Every public record class of every nnscale module -> its dataclass twin.
RECORD_TWINS = {
    obj: _dataclass_twin(obj)
    for module in (importlib.import_module(f"nnscale.{m.name}")
                   for m in pkgutil.iter_modules(nnscale.__path__))
    for name, obj in vars(module).items()
    if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    and obj.__module__ == module.__name__ and not name.startswith("_")
}


def twin(value):
    """value with each record in it, in its fields and in lists, tuples and dicts
    replaced by an instance of its dataclass twin."""
    if isinstance(value, Record):
        return RECORD_TWINS[type(value)](**{n: twin(getattr(value, n)) for n in fields(value)})
    if isinstance(value, dict):
        return {k: twin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(twin, value))
    return value


def check_record_contract(a, b, changed=()):
    """Records a and b agree with their dataclass twins on ==, hash, repr, asdict and
    replace (a with the `changed` fields taken from b, when both share a class), and
    refuse field assignment and deletion as the twins do."""
    ta, tb = twin(a), twin(b)
    assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
    assert hash(a) == hash(ta)
    assert repr(a) == repr(ta)
    assert asdict(a) == dataclasses.asdict(ta)
    if type(a) is type(b):
        changes = {n: getattr(b, n) for n in changed}
        assert twin(replace(a, **changes)) == dataclasses.replace(ta, **twin(changes))
    for name in fields(a):
        for record in (a, ta):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
