"""Topological metrics: NN-Mass, cell density, non-linear unit counts, average degree,
gradient-isometry bounds, and linear-region expressivity bounds.

Only blocks with residual additions carry mass; stems, downsamplers, heads, and
inverted bottlenecks contribute zero. Every per-block term (i_b, rho_b, X and the
ratio k = X / m) is a rule of the block class in archspec; each mass-carrying block
class states its closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .archspec import STAGE_RULES, ArchDescriptor, NnscaleError, Record, propagate_shapes


class TopologyError(NnscaleError):
    pass


class BlockMass(Record):
    block_index: int
    input_channels: int      # i_b: total input channels over the block's layers
    cell_density: Fraction   # rho_b
    mass: float


class MassReport(Record):
    mass: float
    per_block: tuple
    nonlinear_units: int
    k: Fraction
    avg_degree: float


def proportionality_constant(family: str, e) -> Fraction:
    """Exact ratio k = X / m of a stage family's body block at expansion e."""
    ef = Fraction(e)
    if ef <= 0:
        raise TopologyError("expansion must be positive")
    if family not in STAGE_RULES:
        raise TopologyError(f"unsupported family {family!r}")
    return STAGE_RULES[family].body(ef).k


def nonlinear_units(arch: ArchDescriptor) -> int:
    """Total count of scalar non-linear activation sites in the network."""
    return sum(b.units(s.channels) for b, s in zip(arch.blocks, propagate_shapes(arch)))


def nn_mass(arch: ArchDescriptor) -> MassReport:
    """NN-Mass report of a network whose mass-carrying blocks share one k rule and one
    expansion, whatever its family label; k is that rule at that expansion. At one
    expansion the ConvNext and bottleneck rules never give the same k."""
    chain = [s.channels for s in propagate_shapes(arch)]
    per_block = []
    bodies = set()
    mass = 0.0
    units = 0
    for i, (block, c) in enumerate(zip(arch.blocks, chain)):
        units += block.units(c)
        rho = block.cell_density
        if rho:
            bodies.add(block)
        i_b = block.mass_inputs(c)
        bm = float(i_b * rho)
        per_block.append(BlockMass(i, i_b, rho, bm))
        mass += bm
    if not bodies:
        raise TopologyError("no residual blocks; NN-Mass undefined")
    rules = {(b.k, b.expansion) for b in bodies}
    if len(rules) > 1:
        raise TopologyError(
            "non-uniform structure: mixed (k, expansion) pairs "
            f"{sorted((float(k), float(e)) for k, e in rules)}"
        )
    ((k, _),) = rules
    bearing = [(b, c) for b, c in zip(per_block, chain) if b.input_channels > 0]
    mean_w = sum(c for _, c in bearing) / len(bearing)
    return MassReport(mass, tuple(per_block), units, k, average_degree(mean_w, mass))


def average_degree(w: float, m: float) -> float:
    """Mean connections per channel: w + m/2."""
    if w <= 0:
        raise TopologyError("width must be positive")
    if m < 0:
        raise TopologyError("mass must be non-negative")
    return w + m / 2.0


class IsometryBounds(Record):
    lower: float
    upper: float


def ldi_bounds(q: float, w: float, k_hat: float) -> IsometryBounds:
    """Bounds on the mean singular value of a layerwise Jacobian at init variance q:
    sqrt(q k_hat) -/+ sqrt(q w). With q = 1/k_hat the bounds bracket 1."""
    if q <= 0:
        raise TopologyError("q must be positive")
    if not k_hat >= w > 0:
        raise TopologyError(f"need k_hat >= w > 0, got k_hat={k_hat}, w={w}")
    if not math.isfinite(q * k_hat):
        raise TopologyError(f"q * k_hat must be finite, got {q:g} * {k_hat:g}")
    centre = math.sqrt(q * k_hat)
    spread = math.sqrt(q * w)
    return IsometryBounds(centre - spread, centre + spread)


def log2_montufar_bound(n: int, n0: int, layers: int) -> float:
    """log2 of the constructive lower bound (n/n0)^((L-1) n0) * n^n0 on the maximal
    number of linear regions of an L-layer width-n rectifier network on R^n0."""
    if not (n >= n0 >= 1):
        raise TopologyError(f"need n >= n0 >= 1, got n={n}, n0={n0}")
    if layers < 1:
        raise TopologyError("layers must be >= 1")
    return (layers - 1) * n0 * math.log2(n / n0) + n0 * math.log2(n)
