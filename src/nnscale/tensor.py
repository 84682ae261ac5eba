"""Float64 numeric substrate: direct 2-D convolution, batched singular values (LAPACK
eigvalsh of Gram matrices, or SVD), and seeded tensor generation.

Tensors are plain C-contiguous float64 numpy arrays. A convolution is one batched
matmul per block of groups over that block's patch matrices, so its temporaries are
bounded by PATCH_ENTRIES or by one group's patches, whichever is larger. Everything
here is pure and deterministic; the random generator is counter-based (Philox, 64-bit
keyed) so draws are reproducible and independently seedable by index.

rand_normal draws from one private Philox whose state it resets on each call to
counter 0, key [seed, index] and an empty buffer: the draw a new Philox with that key
would give, without building one (about 20 us: a SeedSequence from OS entropy, which
the key then discards, and the Philox itself). Resetting costs a few microseconds, but
it makes rand_normal unsafe to call from two threads at once.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .archspec import NnscaleError, Record

# A conv2d patch block holds at most this many entries (512 KB), and never less than
# one group.
PATCH_ENTRIES = 2**16

# A Gram matrix squares a matrix's condition number, and its eigenvalues carry an
# error of about eps times the largest. Above this ratio of its smallest eigenvalue to
# its largest, each singular value from it agreed with the SVD's to 2e-12 relative or
# better, on shapes up to 512 x 513; at or below it, the matrix takes the SVD.
GRAM_CUTOFF = 1e-4


class TensorError(NnscaleError):
    pass


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


class ConvWeights(Record):
    """kernel [C_out, C_in_per_group, k, k]; groups == C for depthwise."""

    kernel: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    groups: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_f64(self.kernel))
        if self.kernel.ndim != 4:
            raise TensorError(f"kernel must be 4-D, got shape {self.kernel.shape}")
        if self.kernel.shape[2] != self.kernel.shape[3] or self.kernel.shape[2] < 1:
            raise TensorError("kernel spatial dims must be square and >= 1")
        if self.stride < 1:
            raise TensorError("stride must be >= 1")
        if self.groups < 1 or self.kernel.shape[0] % self.groups != 0:
            raise TensorError("C_out must be divisible by groups")
        if self.bias is not None:
            object.__setattr__(self, "bias", _as_f64(self.bias))
            if self.bias.shape != (self.kernel.shape[0],):
                raise TensorError("bias must have shape [C_out]")

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1] * self.groups

    @property
    def kernel_size(self) -> int:
        return self.kernel.shape[2]


def conv2d(x: np.ndarray, w: ConvWeights) -> np.ndarray:
    """Direct convolution (cross-correlation) of x [C_in, H, W] -> [C_out, H', W'].
    Same-padding copies x into a zero-filled [C_in, H + pad, W + pad] buffer with one
    slice assignment, to give H' = ceil(H / stride); at desk sizes np.pad costs about
    six times as much as that copy.

    Each group's kernel [C_out/groups, C_in/groups*k*k] multiplies its patch matrix
    [C_in/groups*k*k, H'*W'], a batched matmul over blocks of whole groups. A block's
    patches are copied out of a sliding-window view, so the temporaries stay within
    PATCH_ENTRIES, or one group's patches when a group alone is larger."""
    x = _as_f64(x)
    if x.ndim != 3:
        raise TensorError(f"input must be [C, H, W], got shape {x.shape}")
    c, h, wd = x.shape
    if c != w.in_channels:
        raise TensorError(f"input channels {c} != weight in_channels {w.in_channels}")
    k = w.kernel_size
    s = w.stride
    if k == 1 and s == 1 and w.groups == 1:  # pointwise: one matmul, no windows
        out = (w.kernel[:, :, 0, 0] @ x.reshape(c, h * wd)).reshape(w.out_channels, h, wd)
    else:
        ho = -(-h // s)
        wo = -(-wd // s)
        pad_h = max((ho - 1) * s + k - h, 0)
        pad_w = max((wo - 1) * s + k - wd, 0)
        pt, pl = pad_h // 2, pad_w // 2
        xp = np.zeros((c, h + pad_h, wd + pad_w))
        xp[:, pt:pt + h, pl:pl + wd] = x
        win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
        g = w.groups
        cig = w.kernel.shape[1]
        og = w.out_channels // g
        depth = cig * k * k
        # [g, cig, k, k, ho, wo] view: each group's patches reshape to [cig*k*k, ho*wo].
        win = win[:, :ho, :wo].reshape(g, cig, ho, wo, k, k).transpose(0, 1, 4, 5, 2, 3)
        ker = w.kernel.reshape(g, og, depth)
        out = np.empty((g, og, ho * wo))
        step = max(PATCH_ENTRIES // (depth * ho * wo), 1)
        for a in range(0, g, step):
            b = min(a + step, g)
            # Kernel first, split by whole groups: patches first, or a split of the
            # pixels, moves the last bits of the output.
            np.matmul(ker[a:b], win[a:b].reshape(b - a, depth, ho * wo), out=out[a:b])
        out = out.reshape(w.out_channels, ho, wo)
    if w.bias is not None:
        out += w.bias[:, None, None]
    return out


def singular_values_batch(ms: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a batch of equally-shaped matrices [B, r, c].
    Entries must be finite and sides are limited to 512 (desk scale).

    Square matrices take LAPACK's SVD. A non-square matrix A takes the square roots of
    the eigenvalues of its smaller Gram matrix (A Aᵀ or Aᵀ A), after scaling A by the
    power of two that brings its largest entry into [0.5, 1), so the Gram matrix
    neither overflows nor underflows and σ scales back exactly. Where that Gram
    matrix's smallest eigenvalue is at most GRAM_CUTOFF times its largest, the matrix
    takes the SVD instead. Both choices are made per matrix, so a matrix's values are
    the same alone or in any batch."""
    ms = _as_f64(ms)
    if ms.ndim != 3:
        raise TensorError("expected a batch [B, r, c]")
    if not np.all(np.isfinite(ms)):
        raise TensorError("matrix entries must be finite")
    _, r, c = ms.shape
    if r > 512 or c > 512:
        raise TensorError(f"matrix sides limited to 512, got {r}x{c}")
    if r == c or min(r, c) == 0:
        return np.linalg.svd(ms, compute_uv=False)
    wide = ms if r < c else ms.transpose(0, 2, 1)
    _, exponent = np.frexp(np.abs(wide).max(axis=(1, 2)))
    scaled = np.ldexp(wide, -exponent[:, None, None])
    eig = np.linalg.eigvalsh(scaled @ scaled.transpose(0, 2, 1))  # ascending
    sv = np.ldexp(np.sqrt(np.maximum(eig[:, ::-1], 0.0)), exponent[:, None])
    ill = eig[:, 0] <= GRAM_CUTOFF * eig[:, -1]
    if ill.any():
        sv[ill] = np.linalg.svd(ms[ill], compute_uv=False)
    return sv


def generator(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based 64-bit generator (Philox), splittable by index."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


_DRAWS = np.random.Generator(np.random.Philox(0))


def rand_normal(shape, var: float, seed: int, index: int = 0) -> np.ndarray:
    """Seeded zero-mean normal tensor of variance var: the draw of
    generator(seed, index), taken from the reset private Philox."""
    if var < 0:
        raise TensorError("variance must be >= 0")
    # The key conversion is Philox's own: a negative seed wraps modulo 2**64.
    _DRAWS.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": np.asarray([seed, index]).astype(np.uint64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return math.sqrt(var) * _DRAWS.standard_normal(shape)
