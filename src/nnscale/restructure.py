"""Analytic restructuring: collapse activation-free conv chains into a single regular
convolution, the alpha-band collapse decision for restructurable blocks, and the
seeded two-path trials behind collapse-verify. The ConvNext MLP split is a rewrite
of the descriptor, archspec.restage.

Collapse exactness: with all biases absent the collapsed conv matches the original
sequence everywhere under zero same-padding. With biases, border pixels of the
depthwise stage see padded zeros instead of the constant expansion bias, so equality
is exact on interior output pixels only (those whose receptive window stays in
bounds); `interior_slices` computes that region.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Tuple

import numpy as np

from .archspec import Ibn, NnscaleError, Record
from .tensor import ConvWeights, conv2d, generator, rand_normal

# A searched block whose alpha lands in this band (inclusive) is collapsed.
COLLAPSE_BAND = (0.8, 1.3)

# collapse_trial's conv patches grow with size^2; at 64 a run peaks near 52 MB RSS.
MAX_TRIAL_SIZE = 64
# trials x size^2 bounds a run's time: at the bound about 15 s at size 12, 4 s at 64.
MAX_TRIAL_WORK = 2**22


class RestructureError(NnscaleError):
    pass


class LinearSequence(Record):
    """Activation-free chain of ConvWeights. At most one layer may be spatial (k > 1),
    and only that layer may stride; channels must chain."""

    layers: Tuple[ConvWeights, ...]

    def __post_init__(self):
        if not self.layers:
            raise RestructureError("sequence must contain at least one layer")
        spatial = 0
        c = self.layers[0].in_channels
        for i, w in enumerate(self.layers):
            if w.in_channels != c:
                raise RestructureError(
                    f"layer {i}: in_channels {w.in_channels} != chained {c}"
                )
            if w.kernel_size > 1:
                spatial += 1
            elif w.stride != 1:
                raise RestructureError(f"layer {i}: pointwise layers must have stride 1")
            c = w.out_channels
        if spatial > 1:
            raise RestructureError("more than one spatial element in sequence")

    @property
    def in_channels(self) -> int:
        return self.layers[0].in_channels

    @property
    def stride(self) -> int:
        for w in self.layers:
            if w.stride != 1:
                return w.stride
        return 1


def _multiplier(w: ConvWeights) -> int:
    """The channel multiplier of a depthwise layer."""
    if w.groups != w.in_channels:
        raise RestructureError("grouped convs other than depthwise unsupported")
    return w.out_channels // w.in_channels


def _dense(w: ConvWeights) -> np.ndarray:
    """The layer's kernel as a dense [C_out, C_in, k, k] array; a depthwise kernel
    (any channel multiplier) becomes block-diagonal."""
    if w.groups == 1:
        return w.kernel
    return w.kernel * np.repeat(np.eye(w.in_channels), _multiplier(w), axis=0)[:, :, None, None]


def collapse(seq: LinearSequence) -> ConvWeights:
    """Merge the sequence into one regular convolution: starting from the first layer,
    each later layer W with bias c maps the running kernel K and bias b to K' = W K and
    b' = (sum_uv W) b + c. At most one layer is spatial, so W or K is always 1x1.

    A depthwise W reads one row of K per output channel, so W K is W's kernel times
    K with each row repeated per channel multiplier, and (sum_uv W) b scales the
    repeated b the same way; only a depthwise first layer is made dense."""
    first, *rest = seq.layers
    kernel = _dense(first)
    bias = first.bias if first.bias is not None else np.zeros(first.out_channels)
    for w in rest:
        if w.groups > 1:
            per = _multiplier(w)
            kernel = w.kernel * np.repeat(kernel, per, axis=0)
            bias = w.kernel.sum((2, 3))[:, 0] * np.repeat(bias, per)
        else:
            if w.kernel_size == 1:
                kernel = np.einsum("oc,ciuv->oiuv", w.kernel[:, :, 0, 0], kernel)
            else:
                kernel = np.einsum("ocuv,ci->oiuv", w.kernel, kernel[:, :, 0, 0])
            bias = w.kernel.sum((2, 3)) @ bias
        if w.bias is not None:
            bias = bias + w.bias
    any_bias = any(w.bias is not None for w in seq.layers)
    return ConvWeights(kernel=kernel, bias=bias if any_bias else None, stride=seq.stride)


def interior_slices(height: int, width: int, kernel: int, stride: int):
    """Output-pixel slices whose stride-s same-padded k x k window stays in bounds."""
    def side(n):
        no = -(-n // stride)
        pad = max((no - 1) * stride + kernel - n, 0)
        top = pad // 2
        lo = -(-top // stride)  # first i with i*stride - top >= 0
        hi = (n - kernel + top) // stride  # last i with window end in bounds
        return slice(lo, hi + 1)

    return side(height), side(width)


def afrb_decide(alpha: float) -> str:
    """The action for a searched block: "collapse" when alpha landed inside
    COLLAPSE_BAND, else "keep_ibn" (keep it as an inverted bottleneck)."""
    if not math.isfinite(alpha):
        raise RestructureError("alpha must be finite")
    lo, hi = COLLAPSE_BAND
    return "collapse" if lo <= alpha <= hi else "keep_ibn"


def random_ibn_sequence(
    seed: int,
    c_in: int,
    expansion: float,
    kernel: int,
    stride: int,
    biased: bool,
) -> LinearSequence:
    """Random expansion/depthwise/projection sequence (c_in -> c_in) for collapse
    verification."""
    mid = max(1, Ibn(expansion, kernel, stride, c_in).mid(c_in))
    p1 = rand_normal((mid, c_in, 1, 1), 1.0 / c_in, seed, 0)
    d = rand_normal((mid, 1, kernel, kernel), 1.0 / (kernel * kernel), seed, 1)
    p2 = rand_normal((c_in, mid, 1, 1), 1.0 / mid, seed, 2)
    def b(n, idx):
        return rand_normal((n,), 0.25, seed, idx) if biased else None
    return LinearSequence(layers=(
        ConvWeights(p1, b(mid, 3)),
        ConvWeights(d, b(mid, 4), stride=stride, groups=mid),
        ConvWeights(p2, b(c_in, 5)),
    ))


def collapse_trial(
    seed: int,
    c_in: int,
    expansion: float,
    kernel: int,
    stride: int,
    size: int = 12,
    biased: bool = False,
) -> dict:
    """Two-path check: forward through the sequence vs. through the collapsed conv.
    Reports the max abs difference on the full map and on the interior region (None
    when the size leaves no interior pixels)."""
    if size > MAX_TRIAL_SIZE:
        raise RestructureError(f"size {size} exceeds {MAX_TRIAL_SIZE}")
    seq = random_ibn_sequence(seed, c_in, expansion, kernel, stride, biased)
    x = rand_normal((c_in, size, size), 1.0, seed, 7)
    y = reduce(conv2d, seq.layers, x)
    diff = np.abs(y - conv2d(x, collapse(seq)))
    rs, cs = interior_slices(size, size, kernel, stride)
    interior = diff[:, rs, cs]
    if biased and not interior.size:
        raise RestructureError(
            f"size {size} leaves no interior pixels for a {kernel}x{kernel} stride-{stride} "
            "kernel; the biased check needs a larger size"
        )
    max_interior = float(interior.max()) if interior.size else None
    max_full = float(diff.max())
    tol = 1e-10
    passed = max_full <= tol if not biased else max_interior <= tol
    return {
        "seed": seed,
        "dims": {"c_in": c_in, "expansion": expansion, "kernel": kernel,
                 "stride": stride, "size": size, "biased": biased},
        "max_abs_diff_interior": max_interior,
        "max_abs_diff_full": max_full,
        "pass": bool(passed),
    }


def collapse_verify(trials: int, seed: int, size: int, biased: bool) -> dict:
    """collapse_trial on `trials` sequences whose widths, expansions, kernels, strides
    and seeds are drawn from one generator at `seed`; reports every trial and the
    maxima over them."""
    if (work := trials * size ** 2) > MAX_TRIAL_WORK:
        raise RestructureError(f"trials x size^2 = {work} exceeds {MAX_TRIAL_WORK}")
    gen = generator(seed)
    reports = []
    for _ in range(trials):
        c_in = int(gen.choice([2, 4, 8]))
        e = float(gen.choice([2, 4, 6]))
        k = int(gen.choice([3, 5, 7]))
        stride = int(gen.choice([1, 2]))
        trial_seed = int(gen.integers(0, 2**31))
        reports.append(collapse_trial(trial_seed, c_in, e, k, stride, size=size, biased=biased))
    interior = [r["max_abs_diff_interior"] for r in reports
                if r["max_abs_diff_interior"] is not None]
    return {
        "trials": len(reports),
        "all_pass": all(r["pass"] for r in reports),
        "max_abs_diff_full": max(r["max_abs_diff_full"] for r in reports),
        "max_abs_diff_interior": max(interior, default=None),
        "reports": reports,
    }
