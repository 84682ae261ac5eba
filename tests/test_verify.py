import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import PROFILE, traced_peak_mb

import nnscale.verify as V
from nnscale.tensor import singular_values_batch
from nnscale.topology import ldi_bounds


def test_build_shapes_and_convention():
    cfg = V.LinearDensenetConfig(width=32, depth=6, skip_channels=32, q=1 / 64, seed=0)
    net = V.build_linear_densenet(cfg)
    assert net.weights[0].shape == (32, 32)
    assert net.weights[1].shape == (32, 32)
    for w in net.weights[2:]:
        assert w.shape == (32, 64)
    assert cfg.k_hat == 64


def test_build_no_skips_plain_mlp():
    cfg = V.LinearDensenetConfig(width=16, depth=5, skip_channels=0, q=0.1, seed=1)
    net = V.build_linear_densenet(cfg)
    assert all(w.shape == (16, 16) for w in net.weights)
    assert cfg.k_hat == 16


def test_build_reproducible():
    cfg = V.LinearDensenetConfig(width=8, depth=4, skip_channels=4, q=0.5, seed=9)
    a = V.build_linear_densenet(cfg)
    b = V.build_linear_densenet(cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert a.skip_sources == b.skip_sources


def test_skip_sources_respect_distance():
    cfg = V.LinearDensenetConfig(width=8, depth=8, skip_channels=6, q=0.5, seed=2)
    net = V.build_linear_densenet(cfg)
    for layer, sources in enumerate(net.skip_sources):
        for src_layer, ch in sources:
            assert src_layer <= layer - 2
            assert 0 <= ch < 8


def test_config_validation():
    with pytest.raises(V.VerifyError):
        V.LinearDensenetConfig(width=1, depth=4, skip_channels=0, q=0.1)
    with pytest.raises(V.VerifyError):
        V.LinearDensenetConfig(width=8, depth=2, skip_channels=0, q=0.1)
    with pytest.raises(V.VerifyError):
        V.LinearDensenetConfig(width=8, depth=4, skip_channels=0, q=0.0)


def test_ldi_report_reference_config():
    cfg = V.LinearDensenetConfig(width=32, depth=12, skip_channels=32, q=1 / 64, seed=0)
    rep = V.ldi_report(cfg, trials=60)
    assert rep.fraction_within >= 0.99
    assert 0.85 <= rep.grand_mean <= 1.15
    assert rep.bounds.lower == pytest.approx(1 - np.sqrt(0.5))
    assert not rep.vacuous


def test_ldi_report_vacuous_without_skips():
    cfg = V.LinearDensenetConfig(width=16, depth=4, skip_channels=0, q=1 / 16, seed=0)
    rep = V.ldi_report(cfg, trials=50)
    assert rep.vacuous
    assert rep.bounds.lower == pytest.approx(0.0)
    assert rep.fraction_within == 1.0


def test_ldi_scales_with_sqrt_q():
    base = V.ldi_report(
        V.LinearDensenetConfig(width=16, depth=8, skip_channels=16, q=1 / 32, seed=3), 80)
    doubled = V.ldi_report(
        V.LinearDensenetConfig(width=16, depth=8, skip_channels=16, q=2 / 32, seed=3), 80)
    ratio = doubled.grand_mean / base.grand_mean
    assert abs(ratio - np.sqrt(2)) / np.sqrt(2) <= 0.05


def test_ldi_deterministic():
    cfg = V.LinearDensenetConfig(width=16, depth=6, skip_channels=8, q=1 / 24, seed=5)
    a = V.ldi_report(cfg, 50)
    b = V.ldi_report(cfg, 50)
    assert a == b


def _stacked_ldi_mean_sv(cfg, trials):
    """Every trial's network built first, then one batched SVD per layer index
    over all trials: [trials, depth]."""
    nets = [
        V.build_linear_densenet(
            V.LinearDensenetConfig(cfg.width, cfg.depth, cfg.skip_channels, cfg.q, cfg.seed + t))
        for t in range(trials)
    ]
    return np.stack([
        singular_values_batch(np.stack(layer)).mean(axis=1)
        for layer in zip(*(net.weights for net in nets))
    ], axis=1)


@pytest.mark.parametrize("width,depth,skips,q,seed,trials", [
    (32, 16, 32, 1 / 64, 0, 50),
    (16, 4, 0, 1 / 16, 1, 50),
    (8, 3, 5, 0.5, 9, 61),
    (12, 7, 3, 0.05, 4, 50),
])
def test_ldi_report_equals_stacked_oracle(width, depth, skips, q, seed, trials):
    cfg = V.LinearDensenetConfig(width, depth, skips, q, seed)
    mean_sv = _stacked_ldi_mean_sv(cfg, trials)
    bounds = ldi_bounds(q, width, cfg.k_hat)
    within = (mean_sv >= bounds.lower) & (mean_sv <= bounds.upper)
    assert V.ldi_report(cfg, trials) == V.LdiReport(
        per_layer_mean_sv=tuple(mean_sv.mean(axis=0).tolist()),
        k_hat=cfg.k_hat,
        bounds=bounds,
        fraction_within=float(within.mean()),
        grand_mean=float(mean_sv.mean()),
        trials=trials,
        vacuous=skips == 0,
    )


def test_ldi_report_holds_one_trial_at_a_time():
    # all 50 trials' weights together are 14 MB
    cfg = V.LinearDensenetConfig(width=32, depth=16, skip_channels=32, q=1 / 64, seed=0)
    assert traced_peak_mb(V.ldi_report, cfg, 50) < 2


def test_region_count_holds_codes_and_one_chunk():
    # 2^20 points: 8 MB of codes, 1 MB of mask, 0.75 MB per array of one chunk's
    # activations
    net = V.random_relu_net(2, 12, 2, seed=0)
    assert traced_peak_mb(V.count_linear_regions, net, 2.0, 1024) < 16


def test_ldi_requires_enough_trials():
    cfg = V.LinearDensenetConfig(width=16, depth=6, skip_channels=8, q=1 / 24, seed=5)
    with pytest.raises(V.VerifyError):
        V.ldi_report(cfg, 10)


def test_linear_net_single_region():
    net = V.ReluNet(hidden=(), readout=(np.array([[1.0, -2.0]]), np.zeros(1)))
    rc = V.count_linear_regions(net, 2.0, 64)
    assert rc.distinct_patterns == 1
    assert rc.relu_units == 0


def test_single_relu_two_regions():
    net = V.ReluNet(
        hidden=((np.array([[1.0, 0.0]]), np.zeros(1)),),
        readout=(np.array([[1.0]]), np.zeros(1)),
    )
    rc = V.count_linear_regions(net, 2.0, 128)
    assert rc.distinct_patterns == 2


def test_patterns_bounded_by_2_to_x():
    for seed in range(30):
        net = V.random_relu_net(2, 4, 2, seed=seed)
        rc = V.count_linear_regions(net, 2.0, 128)
        assert 1 <= rc.distinct_patterns <= 2 ** rc.relu_units == 256


def test_grid_refinement_never_decreases():
    for seed in (0, 1, 2):
        net = V.random_relu_net(2, 4, 2, seed=seed)
        c512 = V.count_linear_regions(net, 2.0, 512).distinct_patterns
        c1024 = V.count_linear_regions(net, 2.0, 1024).distinct_patterns
        assert c1024 >= c512


def _oracle_patterns(net, box_radius, grid):
    """Distinct per-point sign rows, counted as Python tuples."""
    axis = np.linspace(-box_radius, box_radius, grid)
    if net.input_dim == 1:
        pts = axis[:, None]
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    rows, h = [], pts
    for w, b in net.hidden:
        pre = h @ w.T + b
        rows.append(pre > 0)
        h = np.maximum(pre, 0.0)
    sign_rows = np.concatenate(rows, axis=1)
    return len(set(map(tuple, sign_rows.tolist())))


@pytest.mark.parametrize("n0,n,layers,grid", [
    (2, 1, 1, 64),     # X = 1
    (1, 5, 2, 512),    # 1-D input
    (2, 4, 3, 128),    # multi-layer
    (2, 12, 2, 96),    # X = 24: the top bit of the code
    (2, 3, 2, 300),    # 90000 points: 11 lattice chunks
    (2, 4, 2, 1),      # a single point
    (1, 3, 2, 1),      # a single 1-D point
])
def test_region_count_matches_tuple_oracle(n0, n, layers, grid):
    for seed in range(3):
        net = V.random_relu_net(n0, n, layers, seed=seed)
        rc = V.count_linear_regions(net, 2.0, grid)
        assert rc.relu_units == n * layers
        assert rc.distinct_patterns == _oracle_patterns(net, 2.0, grid)


def _exact_patterns(net, box_radius):
    """Every sign pattern a one-input net takes on [-r, r], counted, and the width of
    the narrowest interval on which its pattern is constant. Walk the layers keeping,
    for each interval, the affine map t -> slope * t + icept of the layer's
    activations; split each interval at every unit's zero crossing inside it."""
    pieces = [(-box_radius, box_radius, np.ones(1), np.zeros(1), ())]
    for w, b in net.hidden:
        split = []
        for lo, hi, slope, icept, bits in pieces:
            a, c = w @ slope, w @ icept + b
            with np.errstate(divide="ignore", invalid="ignore"):
                roots = -c / a  # a unit with a == 0 has no crossing: inf or nan
            edges = [lo, *sorted({t for t in roots.tolist() if lo < t < hi}), hi]
            for left, right in zip(edges, edges[1:]):
                active = a * ((left + right) / 2) + c > 0
                split.append((left, right, np.where(active, a, 0.0), np.where(active, c, 0.0),
                              bits + tuple(active.tolist())))
        pieces = split
    return len({bits for *_, bits in pieces}), min(hi - lo for lo, hi, *_ in pieces)


@settings(**PROFILE)
@given(n=st.integers(1, 6), layers=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
       box_radius=st.sampled_from([0.5, 2.0, 7.0]), grid=st.integers(1, 2048))
def test_region_count_meets_the_exact_count_at_one_input(n, layers, seed, box_radius, grid):
    """At n0 = 1 the lattice count never exceeds the exact count, and equals it once
    the lattice step is below the narrowest interval, so every interval holds a
    lattice point: at any grid above 2r / narrowest + 1 within the 2048 limit."""
    net = V.random_relu_net(1, n, layers, seed=seed)
    exact, narrowest = _exact_patterns(net, box_radius)
    assert V.count_linear_regions(net, box_radius, grid).distinct_patterns <= exact
    saturating = math.floor(2 * box_radius / narrowest) + 2
    if saturating <= 2048:  # count_linear_regions' grid limit
        for fine in (saturating, 2048):
            assert V.count_linear_regions(net, box_radius, fine).distinct_patterns == exact


def test_region_counting_limits():
    with pytest.raises(V.VerifyError, match="24"):
        V.count_linear_regions(V.random_relu_net(2, 13, 2, seed=0), 2.0, 64)
    with pytest.raises(V.VerifyError, match="2048"):
        V.count_linear_regions(V.random_relu_net(2, 4, 2, seed=0), 2.0, 4096)
    for radius in (0.0, -1.0):
        with pytest.raises(V.VerifyError, match="radius must be positive"):
            V.count_linear_regions(V.random_relu_net(2, 4, 2, seed=0), radius, 64)
    for grid in (0, -3):
        with pytest.raises(V.VerifyError, match=f"^grid must be at least 1, got {grid}$"):
            V.count_linear_regions(V.random_relu_net(2, 4, 2, seed=0), 2.0, grid)


def test_montufar_consistency_report_fields():
    rep = V.montufar_consistency(4, 2, 2, trials=10, grid=128)
    assert rep["max_patterns"] <= 2 ** 8
    assert rep["log2_upper"] == 8.0
    assert rep["log2_lower_bound"] == pytest.approx(1 * 2 * 1 + 2 * 2)  # L=2
    assert not rep["depth_term_zero"]
    assert V.montufar_consistency(2, 2, 3, trials=5, grid=64)["depth_term_zero"]


def test_montufar_depth_trend():
    trend = V.montufar_trend(4, 2, [2, 3], trials=50, grid=128)
    assert trend["mean_patterns"][1] >= trend["mean_patterns"][0]
    assert trend["non_decreasing"]


@st.composite
def trends(draw, n0):
    """Arguments of a small montufar_trend on n0 inputs: depths in any order, with
    repeats."""
    return dict(n=draw(st.integers(n0, 2)), n0=n0,
                layer_counts=draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)),
                trials=draw(st.integers(1, 4)), grid=draw(st.integers(1, 40)),
                box_radius=draw(st.sampled_from([0.5, 2.0, 7.0])),
                seed=draw(st.integers(-2**31 + 1, 2**31 - 1)))


@pytest.mark.parametrize("n0", [1, 2])
@settings(**PROFILE)
@given(data=st.data())
def test_trend_counts_each_depth_as_its_own_net(n0, data):
    """Every depth's per-trial counts are count_linear_regions on that depth's own net,
    which the trend never builds; one run each for one and two inputs."""
    args = data.draw(trends(n0))
    seen = []
    consistency = V._consistency

    def spy(n, n0, layers, trials, grid, counts):
        seen.append((layers, list(counts)))
        return consistency(n, n0, layers, trials, grid, counts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "_consistency", spy)
        V.montufar_trend(**args)
    n, n0, grid, radius = args["n"], args["n0"], args["grid"], args["box_radius"]
    assert seen == [
        (layers, [V.count_linear_regions(
            V.random_relu_net(n0, n, layers, seed=args["seed"] * 100003 + t), radius, grid
        ).distinct_patterns for t in range(args["trials"])])
        for layers in args["layer_counts"]]


def test_trend_builds_one_net_per_trial(monkeypatch):
    built = []
    build = V.random_relu_net

    def spy(n0, n, layers, seed):
        built.append(layers)
        return build(n0, n, layers, seed)

    monkeypatch.setattr(V, "random_relu_net", spy)
    V.montufar_trend(4, 2, [3, 2, 4, 3], trials=5, grid=32, seed=3)
    assert built == [4] * 5


def test_trend_holds_one_count():
    # 2^20 points of the deepest net: 8 MB of codes, 1 MB of mask and one chunk, the
    # bound of one count_linear_regions
    assert traced_peak_mb(V.montufar_trend, 4, 2, [2, 3, 4], 1, 1024) < 16


@pytest.mark.parametrize("layers,trials,grid,message", [
    ([], 3, 64, "^need at least one depth$"),
    ([2], 0, 64, "^trials must be at least 1, got 0$"),
    ([2], -2, 64, "^trials must be at least 1, got -2$"),
    ([2], 3, 0, "^grid must be at least 1, got 0$"),
])
def test_trend_refuses_bad_arguments_before_building_a_net(monkeypatch, layers, trials, grid,
                                                           message):
    monkeypatch.setattr(V, "random_relu_net", lambda *a, **k: pytest.fail("a net was built"))
    with pytest.raises(V.VerifyError, match=message):
        V.montufar_trend(4, 2, layers, trials, grid)
    if layers:
        with pytest.raises(V.VerifyError, match=message):
            V.montufar_consistency(4, 2, layers[0], trials, grid)
