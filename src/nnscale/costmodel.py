"""MAC/parameter counting for architecture descriptors: adds up each block's cost at
the shape archspec.propagate_shapes gives it; each block kind's shape and cost rules
live on its archspec class.

Conventions: MACs are counted for convolution and linear layers only (normalization,
activation, and pooling cost zero); parameters include conv weights, biases, norm
affine pairs (2 per channel), per-channel layer scales, and the classifier. Strided
convolutions use same-padding, output side = H / stride (strides must divide evenly).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .archspec import (ArchDescriptor, CostError, Ibn, Record, Shape, propagate_shapes,
                       round_half_up)


class BlockCost(Record):
    block_index: int
    kind: str
    macs: int
    params: int
    in_shape: Shape
    out_shape: Shape


class CostReport(Record):
    total_macs: int
    total_params: int
    per_block: tuple


def count_arch(arch: ArchDescriptor) -> CostReport:
    """Full cost report at arch.input_resolution."""
    per_block = []
    total_macs = 0
    total_params = 0
    for i, (block, s) in enumerate(zip(arch.blocks, propagate_shapes(arch))):
        macs, params = block.cost(s)
        per_block.append(BlockCost(i, block.kind, macs, params, s, block.out_shape(s)))
        total_macs += macs
        total_params += params
    return CostReport(total_macs, total_params, tuple(per_block))


def ibn_equivalent_width(n: int, e: Union[int, float, Fraction]) -> int:
    """Width m of a 3x3 regular conv whose MACs match the pointwise MACs of an
    inverted bottleneck at width n: 9 m^2 = 2 e n^2, so m = n sqrt(2e)/3
    (1.1547 n at e=6), rounded to the nearest integer."""
    if n <= 0:
        raise CostError("n must be positive")
    if e <= 0:
        raise CostError("expansion must be positive")
    return round_half_up(n * math.sqrt(2.0 * float(e)) / 3.0)


def ibn_pointwise_macs(n: int, e: Union[int, float, Fraction], height: int, width: int) -> int:
    """Pointwise-only MAC count of an inverted bottleneck with matching in/out width n
    (expand n -> en plus project en -> n): 2 e n^2 H W (12 n^2 H W at e=6)."""
    if n <= 0 or height <= 0 or width <= 0:
        raise CostError("dimensions must be positive")
    mid = Ibn(float(e), dw_kernel=1, stride=1, out_channels=n).mid(n)
    return height * width * (n * mid + mid * n)


def split_mlp_mac_ratio(fraction, expansion) -> Fraction:
    """Exact MLP MAC ratio of a split block vs. a plain block: (2 f e + 1) / (2 e).
    Pass Fractions for exact arithmetic (Fraction(3, 5), 4 -> Fraction(29, 40))."""
    f = Fraction(fraction)
    e = Fraction(expansion)
    if not 0 < f < 1:
        raise CostError("fraction must lie in (0, 1)")
    if e <= 0:
        raise CostError("expansion must be positive")
    return (2 * f * e + 1) / (2 * e)
