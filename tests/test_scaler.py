import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nnscale.archspec as A
import nnscale.costmodel as C
import nnscale.scaler as S
import nnscale.topology as T

from conftest import PROFILE
from test_descriptors import stage_descriptors


@pytest.fixture(scope="module")
def grid_800():
    return S.enumerate_candidates(A.preset("convnext-t"), S.DEFAULT_GRID)


def block_walk(base, w_m, d_m):
    """Oracle of the factored scan: build the scaled descriptor block by block, then
    cost and mass it whole; a width or depth that scale_arch refuses gives an invalid
    candidate."""
    try:
        arch = A.scale_arch(base, w_m, d_m)
    except A.ArchError:
        return S.ScaleCandidate(w_m, d_m, (), (), 0, 0, 0.0, 0, valid=False)
    report = C.count_arch(arch)
    mass = T.nn_mass(arch)
    return S.ScaleCandidate(w_m, d_m, arch.stages.widths, arch.stages.depths,
                            report.total_macs, report.total_params, mass.mass,
                            mass.nonlinear_units)


def one_sample(base, w_m, d_m):
    (cand,) = S.enumerate_candidates(base, S.MultiplierGrid(w_m, w_m, 1, d_m, d_m, 1))
    return cand


def brute_force_frontier(cands, axis):
    """O(n^2) domination oracle."""
    pool = [c for c in cands if c.valid]
    out = []
    seen = set()
    for c in pool:
        cost = getattr(c, axis)
        dominated = any(
            (getattr(o, axis) <= cost and o.mass >= c.mass)
            and (getattr(o, axis) < cost or o.mass > c.mass)
            for o in pool
        )
        if not dominated and (cost, c.mass) not in seen:
            seen.add((cost, c.mass))
            out.append(c)
    out.sort(key=lambda c: getattr(c, axis))
    return out


def test_default_grid_has_800_samples(grid_800):
    assert S.DEFAULT_GRID.total == 800
    assert len(grid_800) == 800
    assert all(c.valid for c in grid_800)


def test_candidates_ordered_by_multipliers(grid_800):
    keys = [(c.w_m, c.d_m) for c in grid_800]
    assert keys == sorted(keys)


def test_single_point_grid_equals_base():
    base = A.preset("convnext-t")
    grid = S.MultiplierGrid(1.0, 1.0, 1, 1.0, 1.0, 1)
    (cand,) = S.enumerate_candidates(base, grid)
    report = C.count_arch(base)
    assert cand.macs == report.total_macs
    assert cand.params == report.total_params
    assert cand.mass == T.nn_mass(base).mass


def test_published_multiplier_costs():
    base = A.preset("convnext-t")
    cand = one_sample(base, 0.666, 1.65)
    assert cand.widths == (64, 128, 256, 511)
    assert abs(cand.macs - 3.3e9) / 3.3e9 <= 0.02
    assert abs(cand.params - 20.76e6) / 20.76e6 <= 0.01


def test_degenerate_widths_marked_invalid():
    base = A.preset("convnext-t")
    grid = S.MultiplierGrid(0.01, 1.0, 3, 1.0, 1.0, 1)
    cands = S.enumerate_candidates(base, grid)
    assert len(cands) == 3
    assert not cands[0].valid
    assert cands[-1].valid


def test_grid_size_bound():
    assert S.MultiplierGrid(0.25, 1.6, 400, 0.6, 2.56, 200).total == 80_000
    assert S.MultiplierGrid(0.25, 1.6, 1000, 0.6, 2.56, 100).total == S.MAX_CANDIDATES
    with pytest.raises(S.ScaleError, match="exceeds 100000"):
        S.MultiplierGrid(0.25, 1.6, 1000, 0.6, 2.56, 101)


def test_budget_validation():
    with pytest.raises(S.ScaleError):
        S.Budget()
    with pytest.raises(S.ScaleError):
        S.Budget(target_macs=10**9, tolerance=0.5)
    S.Budget(target_macs=10**9, tolerance=0.0)  # exact matching allowed
    for bad in (dict(target_macs=0), dict(target_params=-5), dict(target_macs=1, target_params=0)):
        with pytest.raises(S.ScaleError, match="must be positive"):
            S.Budget(**bad)


def test_candidate_past_depth_bound_is_invalid():
    base = A.convnext_arch("deep", (16,), (4000,), resolution=32)
    assert one_sample(base, 1.0, 1.0).valid
    assert not one_sample(base, 1.0, 1.1).valid  # 4400 blocks


def test_filter_budget_h2_nonempty(grid_800):
    budget = S.Budget(target_macs=int(4.5e9), target_params=int(28e6), tolerance=0.025)
    matches = S.filter_budget(grid_800, budget)
    assert matches
    for c in matches:
        assert abs(c.macs - 4.5e9) / 4.5e9 <= 0.025
        assert abs(c.params - 28e6) / 28e6 <= 0.025


def test_filter_budget_zero_tolerance(grid_800):
    target = grid_800[123].macs
    matches = S.filter_budget(grid_800, S.Budget(target_macs=target, tolerance=0.0))
    assert all(c.macs == target for c in matches)
    assert grid_800[123] in matches


def test_filter_budget_impossible(grid_800):
    assert S.filter_budget(grid_800, S.Budget(target_macs=1)) == []


def test_select_max_mass_is_brute_force_argmax(grid_800):
    budget = S.Budget(target_macs=int(4.5e9), target_params=int(28e6), tolerance=0.025)
    matches = S.filter_budget(grid_800, budget)
    chosen = S.select_max_mass(matches)
    assert all(chosen.mass >= c.mass for c in matches)


def test_select_single_candidate(grid_800):
    assert S.select_max_mass([grid_800[5]]) is grid_800[5]


def test_select_tie_breaks_on_macs():
    a = S.ScaleCandidate(1.0, 1.0, (8,), (1,), macs=200, params=10, mass=5.0,
                         nonlinear_units=1)
    b = S.ScaleCandidate(1.1, 1.0, (8,), (1,), macs=100, params=10, mass=5.0,
                         nonlinear_units=1)
    assert S.select_max_mass([a, b]) is b


def test_select_invariant_under_permutation(grid_800):
    budget = S.Budget(target_macs=int(3.3e9), target_params=int(21e6), tolerance=0.025)
    matches = S.filter_budget(grid_800, budget)
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuffled = list(matches)
        rng.shuffle(shuffled)
        assert S.select_max_mass(shuffled) == S.select_max_mass(matches)


def test_select_empty_errors():
    with pytest.raises(S.ScaleError):
        S.select_max_mass([])


def test_frontier_simple_domination():
    a = S.ScaleCandidate(1.0, 1.0, (8,), (1,), macs=1, params=1, mass=5.0,
                         nonlinear_units=1)
    b = S.ScaleCandidate(1.1, 1.0, (8,), (1,), macs=2, params=2, mass=4.0,
                         nonlinear_units=1)
    assert S.pareto_frontier([a, b]) == [a]


def test_frontier_equal_masses_single_cheapest():
    cands = [
        S.ScaleCandidate(1.0, 1.0, (8,), (1,), macs=m, params=m, mass=7.0,
                         nonlinear_units=1)
        for m in (30, 10, 20)
    ]
    frontier = S.pareto_frontier(cands)
    assert len(frontier) == 1
    assert frontier[0].macs == 10


@pytest.mark.parametrize("axis", ["macs", "params"])
def test_frontier_matches_quadratic_oracle(grid_800, axis):
    frontier = S.pareto_frontier(grid_800, axis)
    oracle = brute_force_frontier(grid_800, axis)
    assert [(getattr(c, axis), c.mass) for c in frontier] == \
        [(getattr(c, axis), c.mass) for c in oracle]
    costs = [getattr(c, axis) for c in frontier]
    masses = [c.mass for c in frontier]
    assert costs == sorted(costs)
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_mass_monotone_in_width_at_fixed_depth(grid_800):
    by_depth = {}
    for c in grid_800:
        by_depth.setdefault(c.d_m, []).append(c)
    for cands in by_depth.values():
        masses = [c.mass for c in sorted(cands, key=lambda c: c.w_m)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))


def test_csv_roundtrip(grid_800):
    text = S.candidates_to_csv(grid_800[:10])
    back = S.candidates_from_csv(text)
    assert back == grid_800[:10]
    # with the flags scale and pareto write
    budget = S.Budget(target_macs=int(4.5e9), target_params=int(28e6), tolerance=0.25)
    matches = S.filter_budget(grid_800, budget)
    chosen = S.select_max_mass(matches)
    for cands in (grid_800, S.pareto_frontier(grid_800, "macs")):
        assert S.candidates_from_csv(S.candidates_to_csv(cands, matches, chosen)) == cands


def test_csv_reports_budget_and_selection(grid_800):
    budget = S.Budget(target_macs=int(4.5e9), target_params=int(28e6), tolerance=0.025)
    matches = S.filter_budget(grid_800, budget)
    chosen = S.select_max_mass(matches)
    text = S.candidates_to_csv(grid_800, matches, chosen)
    lines = text.splitlines()
    assert lines[0] == ",".join(S.CSV_COLUMNS)
    selected_rows = [l for l in lines[1:] if l.endswith(",1")]
    assert len(selected_rows) == 1
    assert sum(l.split(",")[-2] == "1" for l in lines[1:]) == len(matches)


def test_csv_rejects_malformed_row():
    good = "1.0,1.0,8,1,5,2,5.0,4,1,0,0\n"
    for row, message in [
        ("1.0,1.0,8,1,abc,2,3.0,4,1,0,0", "params 'abc' is not an integer"),
        ("1.0,1.0,24||48,1|1,5,2,3.0,4,1,0,0",
         "widths '24||48' is not a '|'-separated list of integers"),
        ("1.0,1.0,8,1,5,2,3.0,x4,1,0,0", "nonlinear_units 'x4' is not an integer"),
        ("abc,1.0,8,1,5,2,3.0,4,1,0,0", "w_m 'abc' is not a number"),
        ("1.0,1..0,8,1,5,2,3.0,4,1,0,0", "d_m '1..0' is not a number"),
        ("1.0,1.0,8,1,5,2,,4,1,0,0", "mass '' is not a number"),
        ("nan,1.0,8,1,5,2,3.0,4,1,0,0", "w_m 'nan' is not finite"),
        ("1.0,inf,8,1,5,2,3.0,4,1,0,0", "d_m 'inf' is not finite"),
        ("1.0,1.0,8,1,5,2,nan,4,1,0,0", "mass 'nan' is not finite"),
        ("1.0,1.0,8,1,5,2,inf,4,1,0,0", "mass 'inf' is not finite"),
        ("1.0,1.0,8,1,-5,2,3.0,4,1,0,0", "params '-5' is negative"),
        ("1.0,1.0,8,1,5,-2,3.0,4,1,0,0", "macs '-2' is negative"),
        ("1.0,1.0,8,1,5,2,3.0,-4,1,0,0", "nonlinear_units '-4' is negative"),
        ("1.0,1.0,8,1,5,2,3.0,4,7,0,0", "valid '7' is not 0 or 1"),
        ("-1.0,1.0,8,1,5,2,3.0,4,1,0,0", "w_m '-1.0' is not positive"),
        ("1.0,0.0,8,1,5,2,3.0,4,1,0,0", "d_m '0.0' is not positive"),
        ("1.0,1.0,-5|8,1,5,2,3.0,4,1,0,0", "widths '-5|8' has an entry that is not positive"),
        ("1.0,1.0,8|0,1,5,2,3.0,4,1,0,0", "widths '8|0' has an entry that is not positive"),
        ("1.0,1.0,8,-3,5,2,3.0,4,1,0,0", "depths '-3' has an entry that is not positive"),
        ("1.0,1.0,8,1|0,5,2,3.0,4,1,0,0", "depths '1|0' has an entry that is not positive"),
        ("1.0,1.0,8|16,3,28000000,4500000000,6.0,4,1,0,0",
         "valid row needs one depth per stage width, got widths '8|16' and depths '3'"),
        ("1.0,1.0,,,5,2,3.0,4,1,0,0",
         "valid row needs one depth per stage width, got widths '' and depths ''"),
    ]:
        text = ",".join(S.CSV_COLUMNS) + "\n" + good + row + "\n"
        with pytest.raises(S.ScaleError, match=re.escape(f"line 3: {message}")):
            S.candidates_from_csv(text)


INVALID_ROW = "0.005,1.0,,,0,0,0.0,0,0"
VALID_ROW = "1.0,1.0,8,1,5,2,5.0,4,1"


@pytest.mark.parametrize("rows,message", [
    ([INVALID_ROW + ",1,0"], "line 2: in_budget '1' needs valid '1'"),
    ([INVALID_ROW + ",0,1"], "line 2: selected '1' needs valid '1'"),
    ([VALID_ROW + ",0,0", VALID_ROW + ",0,1"], "line 3: selected '1' needs in_budget '1'"),
    ([VALID_ROW + ",1,1", VALID_ROW + ",1,0", VALID_ROW + ",1,1"],
     "line 4: a second selected row; the first ends on line 2"),
    ([VALID_ROW + ",1,1", "", VALID_ROW + ",1,1"],
     "line 4: a second selected row; the first ends on line 2"),
], ids=["in_budget_on_invalid", "selected_on_invalid", "selected_outside_budget",
        "second_selected", "second_selected_after_blank_line"])
def test_csv_rejects_flags_no_scan_writes(rows, message):
    text = ",".join(S.CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n"
    with pytest.raises(S.ScaleError, match=re.escape(message)):
        S.candidates_from_csv(text)


def assert_same_candidates(got, want):
    assert got == want
    assert [repr(c.mass) for c in got] == [repr(c.mass) for c in want]


def test_keep_all_column_is_invalid():
    # e = 0.3 and f = 0.5 keep all 2 expanded channels at width 8, not at 12 or 16
    base = A.convnext_arch("x", (16,), (1,), expansion=0.3, resolution=32)
    base = A.restage(base, split_fraction=0.5)
    grid = S.MultiplierGrid(0.5, 1.0, 3, 1.0, 2.0, 2)
    cands = S.enumerate_candidates(base, grid)
    assert [c.valid for c in cands] == [False, False, True, True, True, True]
    assert_same_candidates(cands, [block_walk(base, w, d) for w in grid.width_values()
                                   for d in grid.depth_values()])


# Each example walks up to 36 candidates block by block, a few of them thousands of
# blocks deep.
FACTORED_PROFILE = dict(PROFILE, max_examples=40)


@settings(**FACTORED_PROFILE)
@given(stage_descriptors(), st.data())
def test_factored_scan_is_the_block_walk(descriptor, data):
    try:
        base = A.parse_arch(json.dumps(descriptor))
    except A.ArchError:
        assume(False)
    # w_m from well below the degenerate width 8 / 24; d_m up to past the depth bound
    w_min = data.draw(st.floats(0.05, 2.0))
    w_max = w_min + data.draw(st.floats(0.0, 2.0))
    d_min = data.draw(st.floats(0.1, 3.0))
    d_top = 1.25 * A.MAX_TOTAL_DEPTH / sum(base.stages.depths)
    d_max = d_min + data.draw(st.sampled_from([0.0, 1.0, d_top]))
    grid = S.MultiplierGrid(w_min, w_max, data.draw(st.integers(1, 6)),
                            d_min, d_max, data.draw(st.integers(1, 6)))
    want = [block_walk(base, w, d) for w in grid.width_values() for d in grid.depth_values()]
    assert_same_candidates(S.enumerate_candidates(base, grid), want)


def test_enumeration_runtime(grid_800):
    import time
    base = A.preset("convnext-t")
    t0 = time.time()
    S.enumerate_candidates(base, S.DEFAULT_GRID)
    assert time.time() - t0 < 5.0
