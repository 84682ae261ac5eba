"""Empirical checks of the gradient-isometry and expressivity theory at desk scale:
mean singular values of layerwise Jacobians for deep linear concatenation-skip MLPs,
and linear-region counting for tiny ReLU networks via lattice activation patterns.

Harness conventions: layers 0 and 1 have no skip inputs; every later layer
concatenates `skip_channels` channels drawn uniformly from outputs at distance >= 2.
The mass convention m := 2 * skip_channels makes the average degree w + m/2 equal
the skip layers' fan-in, which is what the isometry bound is stated over.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .archspec import NUMBER_BOUND, NnscaleError, Record, replace
from .tensor import generator, singular_values_batch
from .topology import IsometryBounds, ldi_bounds, log2_montufar_bound


class VerifyError(NnscaleError):
    pass


class LinearDensenetConfig(Record):
    width: int
    depth: int
    skip_channels: int
    q: float
    seed: int = 0

    def __post_init__(self):
        if self.width < 2:
            raise VerifyError("width must be >= 2")
        if self.depth < 3:
            raise VerifyError("depth must be >= 3")
        if self.skip_channels < 0:
            raise VerifyError("skip_channels must be >= 0")
        if self.q <= 0:
            raise VerifyError("q must be positive")

    @property
    def k_hat(self) -> float:
        return self.width + self.skip_channels  # w + m/2 with m = 2 s


class LinearDensenet(Record):
    weights: tuple          # layer l: [w, w + s_l]
    skip_sources: tuple     # layer l: tuple of (source_layer, channel)


def build_linear_densenet(cfg: LinearDensenetConfig) -> LinearDensenet:
    """Seeded network; layer l >= 2 concatenates skip channels sampled uniformly
    over (source layer <= l-2, channel) pairs."""
    gen = generator(cfg.seed)
    w, s = cfg.width, cfg.skip_channels
    weights = []
    sources = []
    for layer in range(cfg.depth):
        s_l = s if layer >= 2 else 0
        weights.append(math.sqrt(cfg.q) * gen.standard_normal((w, w + s_l)))
        if s_l:
            src_layers = gen.integers(0, layer - 1, size=s_l)  # layers 0 .. l-2
            src_channels = gen.integers(0, w, size=s_l)
            sources.append(tuple(zip(src_layers.tolist(), src_channels.tolist())))
        else:
            sources.append(())
    return LinearDensenet(weights=tuple(weights), skip_sources=tuple(sources))


class LdiReport(Record):
    per_layer_mean_sv: tuple
    k_hat: float
    bounds: IsometryBounds
    fraction_within: float
    grand_mean: float
    trials: int
    vacuous: bool


# A run draws trials x depth x width x (width + skips) float64 weight entries but
# holds one trial's network at a time; 2**24 entries bound the work, not memory.
MAX_LDI_ENTRIES = 2**24


def _mean_singular_values(cfg: LinearDensenetConfig) -> np.ndarray:
    """One trial: the mean singular value of each layer of cfg's network, [depth]."""
    weights = build_linear_densenet(cfg).weights
    row = np.empty(cfg.depth)
    # layers 0-1 are square and the rest carry skips: one batched SVD each
    row[:2] = singular_values_batch(np.stack(weights[:2])).mean(axis=1)
    row[2:] = singular_values_batch(np.stack(weights[2:])).mean(axis=1)
    return row


def ldi_report(cfg: LinearDensenetConfig, trials: int) -> LdiReport:
    """Monte-Carlo check of the singular-value bounds. The layerwise Jacobian of a
    linear layer is its weight matrix; each (layer, trial) pair contributes its mean
    singular value, and fraction_within counts how many fall inside the bounds.
    Trial t is the network at seed cfg.seed + t; the trials run one after another,
    one [depth] row each."""
    if trials < 50:
        raise VerifyError("need at least 50 trials")
    entries = trials * cfg.depth * cfg.width * (cfg.width + cfg.skip_channels)
    if entries > MAX_LDI_ENTRIES:
        raise VerifyError(f"trials x depth x width x (width + skips) = {entries} "
                          f"weight entries exceeds {MAX_LDI_ENTRIES}")
    bounds = ldi_bounds(cfg.q, cfg.width, cfg.k_hat)
    mean_sv = np.array([_mean_singular_values(replace(cfg, seed=cfg.seed + t))
                        for t in range(trials)])
    within = (mean_sv >= bounds.lower) & (mean_sv <= bounds.upper)
    return LdiReport(
        per_layer_mean_sv=tuple(mean_sv.mean(axis=0).tolist()), k_hat=cfg.k_hat,
        bounds=bounds, fraction_within=float(within.mean()),
        grand_mean=float(mean_sv.mean()), trials=trials, vacuous=cfg.skip_channels == 0)


class ReluNet(Record):
    """Hidden ReLU layers then a linear readout to one output."""

    hidden: tuple   # tuple of (W, b)
    readout: tuple  # (W, b)

    @property
    def input_dim(self) -> int:
        return self.hidden[0][0].shape[1] if self.hidden else self.readout[0].shape[1]

    @property
    def relu_units(self) -> int:
        return sum(w.shape[0] for w, _ in self.hidden)


def random_relu_net(n0: int, n: int, layers: int, seed: int) -> ReluNet:
    gen = generator(seed)
    hidden = []
    d = n0
    for _ in range(layers):
        w = gen.standard_normal((n, d)) * math.sqrt(2.0 / d)
        b = gen.standard_normal(n) * 0.5
        hidden.append((w, b))
        d = n
    w = gen.standard_normal((1, d)) * math.sqrt(1.0 / d)
    return ReluNet(hidden=tuple(hidden), readout=(w, np.zeros(1)))


class RegionCount(Record):
    distinct_patterns: int
    grid_resolution: int
    relu_units: int


# The bound counts trials x depths x grid^n0 lattice points (9.8M for the default run),
# though a trend walks only each trial's deepest net (3.3M points for the default run);
# it is kept so that every input is accepted or refused as it always was. This bounds
# work, not memory: a count holds one net's lattice as one int64 code per point (and a
# 1-byte mask while counting), plus one chunk's activations, and montufar_trend holds
# one count at a time.
MAX_LATTICE_POINTS = 2**26
LATTICE_CHUNK = 2**13


def _check_lattice(d: int, x_units: int, grid: int, box_radius: float, nets: int = 1) -> None:
    if x_units > 24:
        raise VerifyError(f"too many ReLU units for pattern counting: {x_units} > 24")
    if grid > 2048:
        raise VerifyError(f"grid limited to 2048, got {grid}")
    if not 0 < box_radius <= NUMBER_BOUND:
        raise VerifyError(f"box radius must be positive and at most 2**31, got {box_radius}")
    if d not in (1, 2):
        raise VerifyError("lattice evaluation supports 1- or 2-D inputs")
    if nets * grid ** d > MAX_LATTICE_POINTS:
        raise VerifyError(f"{nets} nets x grid^{d} = {nets * grid ** d} lattice points "
                          f"exceeds {MAX_LATTICE_POINTS}")


def _sorted_codes(net: ReluNet, box_radius: float, grid: int) -> np.ndarray:
    """The sign code of every point of the grid x grid lattice on [-r, r]^d, sorted:
    one bit per ReLU unit, set where the unit is active, the first layer's units in
    the highest bits. X <= 24 units fit an int64."""
    axis = np.linspace(-box_radius, box_radius, grid)
    d = net.input_dim
    codes = np.zeros(grid ** d, dtype=np.int64)
    for start in range(0, codes.size, LATTICE_CHUNK):
        stop = min(start + LATTICE_CHUNK, codes.size)
        chunk = codes[start:stop]
        # point i * grid + j of the 2-D lattice is (axis[i], axis[j])
        h = axis[np.stack(np.unravel_index(np.arange(start, stop), (grid,) * d))]
        for w, b in net.hidden:  # activations are [units, points]
            pre = w @ h
            pre += b[:, None]
            for unit in pre > 0:
                chunk <<= 1
                chunk |= unit
            h = np.maximum(pre, 0.0, out=pre)
    codes.sort()
    return codes


def _distinct(codes: np.ndarray, x_units: int) -> int:
    """The number of distinct values in sorted codes, checked against 2^X."""
    distinct = int(np.count_nonzero(codes[1:] != codes[:-1])) + int(codes.size > 0)
    if distinct > 2 ** x_units:
        raise VerifyError("pattern count exceeded 2^X; counter is broken")
    return distinct


def count_linear_regions(net: ReluNet, box_radius: float, grid: int) -> RegionCount:
    """Lower-bound region count: distinct ReLU sign patterns over a grid x grid
    lattice on [-r, r]^d. The count can never exceed 2^X for X ReLU units."""
    x_units = net.relu_units
    if grid < 1:
        raise VerifyError(f"grid must be at least 1, got {grid}")
    _check_lattice(net.input_dim, x_units, grid, box_radius)
    return RegionCount(_distinct(_sorted_codes(net, box_radius, grid), x_units), grid, x_units)


def _consistency(n: int, n0: int, layers: int, trials: int, grid: int, counts: list) -> dict:
    x_units = n * layers
    return {
        "n": n,
        "n0": n0,
        "layers": layers,
        "trials": trials,
        "grid": grid,
        "mean_patterns": float(np.mean(counts)),
        "max_patterns": int(np.max(counts)),
        "log2_upper": float(x_units),
        "log2_lower_bound": log2_montufar_bound(n, n0, layers),
        "depth_term_zero": n == n0,
    }


def montufar_consistency(
    n: int,
    n0: int,
    layers: int,
    trials: int,
    grid: int = 256,
    box_radius: float = 2.0,
    seed: int = 0,
) -> dict:
    """Observed pattern counts of random (n0 -> n x layers -> 1) rectifier nets next
    to the 2^X ceiling and the constructive depth bound. The ceiling is asserted on
    every trial; depth trends are reported, not asserted. This is montufar_trend's
    report at the one depth."""
    return montufar_trend(n, n0, [layers], trials, grid, box_radius, seed)["reports"][0]


def montufar_trend(
    n: int,
    n0: int,
    layer_counts: Sequence[int],
    trials: int,
    grid: int = 256,
    box_radius: float = 2.0,
    seed: int = 0,
) -> dict:
    """Reports per-depth consistency plus whether mean observed patterns were
    non-decreasing in depth. Every input is checked before any network is built.
    Trial t's net has seed seed * 100003 + t at every depth. random_relu_net draws
    the hidden layers before the readout, so the depth-L net is the first L hidden
    layers of the deepest one, and its sign code is the deepest code shifted right by
    n bits per layer dropped. Each trial therefore walks the lattice of its deepest
    net once and counts every depth from its sorted codes, shifted in place from the
    deepest depth to the shallowest (a right shift keeps the order). The trials run
    one after another."""
    if not layer_counts:
        raise VerifyError("need at least one depth")
    if trials < 1:
        raise VerifyError(f"trials must be at least 1, got {trials}")
    if grid < 1:
        raise VerifyError(f"grid must be at least 1, got {grid}")
    log2_montufar_bound(n, n0, min(layer_counts))  # refuses unless n >= n0 >= 1, layers >= 1
    _check_lattice(n0, n * max(layer_counts), grid, box_radius, trials * len(layer_counts))
    depths = sorted(set(layer_counts), reverse=True)

    def count(t: int) -> dict:
        net = random_relu_net(n0, n, depths[0], seed=seed * 100003 + t)
        codes = _sorted_codes(net, box_radius, grid)
        counts = {}
        for deeper, layers in zip(depths[:1] + depths, depths):
            codes >>= n * (deeper - layers)
            counts[layers] = _distinct(codes, n * layers)
        return counts
    counts = [count(t) for t in range(trials)]
    reports = [_consistency(n, n0, layers, trials, grid, [c[layers] for c in counts])
               for layers in layer_counts]
    means = [r["mean_patterns"] for r in reports]
    return {
        "reports": reports,
        "mean_patterns": means,
        "non_decreasing": all(b >= a for a, b in zip(means, means[1:])),
    }
