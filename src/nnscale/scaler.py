"""Training-free scaling search: enumerate a width/depth multiplier grid, evaluate
cost and NN-Mass for every candidate, filter by MAC/parameter budgets, pick the
highest-mass survivor, and compute cost-mass Pareto frontiers.

The scan is factored: a candidate's widths depend only on w_m and its depths only
on d_m, and every body block of a stage sees the same input width. So each w_m
column builds and validates one descriptor with one body block per stage and reads
each block's cost, units and mass term once; each candidate then sums them over its
stage depths.
"""

from __future__ import annotations

import io
import math
from typing import List, Optional, Sequence

from .archspec import (ArchDescriptor, ArchError, Head, NnscaleError, Record, Stem,
                       propagate_shapes, restage, scale_depths, scale_widths)


class ScaleError(NnscaleError):
    pass


# Each candidate costs a sum over its stages and one CSV row (a 400 x 200 grid is allowed).
MAX_CANDIDATES = 100_000


class MultiplierGrid(Record):
    w_min: float
    w_max: float
    w_steps: int
    d_min: float
    d_max: float
    d_steps: int

    def __post_init__(self):
        if not 0 < self.w_min <= self.w_max:
            raise ScaleError("need 0 < w_min <= w_max")
        if not 0 < self.d_min <= self.d_max:
            raise ScaleError("need 0 < d_min <= d_max")
        if self.w_steps < 1 or self.d_steps < 1:
            raise ScaleError("steps must be >= 1")
        if self.total > MAX_CANDIDATES:
            raise ScaleError(f"grid of {self.total} candidates exceeds {MAX_CANDIDATES}")

    def width_values(self) -> List[float]:
        return _linspace(self.w_min, self.w_max, self.w_steps)

    def depth_values(self) -> List[float]:
        return _linspace(self.d_min, self.d_max, self.d_steps)

    @property
    def total(self) -> int:
        return self.w_steps * self.d_steps


def _linspace(lo: float, hi: float, n: int) -> List[float]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


# 40 width x 20 depth samples over the published multiplier ranges = 800 models.
DEFAULT_GRID = MultiplierGrid(0.25, 1.6, 40, 0.6, 2.56, 20)


def check_tolerance(tolerance: float) -> None:
    """A budget's relative tolerance lies in [0, 0.25]."""
    if not 0 <= tolerance <= 0.25:
        raise ScaleError("tolerance must lie in [0, 0.25]")


class Budget(Record):
    target_macs: Optional[int] = None
    target_params: Optional[int] = None
    tolerance: float = 0.025

    def __post_init__(self):
        if self.target_macs is None and self.target_params is None:
            raise ScaleError("budget needs at least one target")
        for name in ("target_macs", "target_params"):
            target = getattr(self, name)
            if target is not None and not target > 0:
                raise ScaleError(f"{name} must be positive, got {target}")
        check_tolerance(self.tolerance)

    def admits(self, macs: int, params: int) -> bool:
        if self.target_macs is not None:
            if abs(macs - self.target_macs) > self.tolerance * self.target_macs:
                return False
        if self.target_params is not None:
            if abs(params - self.target_params) > self.tolerance * self.target_params:
                return False
        return True


class ScaleCandidate(Record):
    w_m: float
    d_m: float
    widths: tuple
    depths: tuple
    macs: int
    params: int
    mass: float
    nonlinear_units: int
    valid: bool = True


def _column(base: ArchDescriptor, w_m: float):
    """The stage widths at w_m, the (MACs, params, units) of the blocks that appear
    once (stem, downsamples, head) and the (MACs, params, units, mass term) of each
    stage's body block; None when the widths are degenerate or fail validation."""
    try:
        widths = scale_widths(base.stages.widths, w_m)
        one = restage(base, widths=widths, depths=(1,) * len(widths))
    except ArchError:
        return None
    once, body = [0, 0, 0], []
    for block, s in zip(one.blocks, propagate_shapes(one)):
        macs, params = block.cost(s)
        units = block.units(s.channels)
        if isinstance(block, (Stem, Head)):  # Downsample is a Stem; these carry no mass
            once = [once[0] + macs, once[1] + params, once[2] + units]
        else:
            body.append((macs, params, units,
                         float(block.mass_inputs(s.channels) * block.cell_density)))
    return one.stages.widths, once, body


def _candidate(w_m: float, d_m: float, column, depths) -> ScaleCandidate:
    widths, (macs, params, units), body = column
    mass = 0.0
    for (b_macs, b_params, b_units, term), d in zip(body, depths):
        macs += b_macs * d
        params += b_params * d
        units += b_units * d
        # one addition per block in block order, as nn_mass walks them, so the float
        # sum has the same bits (the blocks that appear once add 0.0)
        for _ in range(d):
            mass += term
    return ScaleCandidate(w_m, d_m, widths, depths, macs, params, mass, units, True)


def _invalid(w_m: float, d_m: float) -> ScaleCandidate:
    return ScaleCandidate(w_m, d_m, (), (), 0, 0, 0.0, 0, valid=False)


def enumerate_candidates(base: ArchDescriptor,
                         grid: MultiplierGrid = DEFAULT_GRID) -> List[ScaleCandidate]:
    """All grid samples in (w_m, d_m) ascending order; deterministic. A degenerate or
    invalid width makes its whole w_m column invalid, a total depth past
    MAX_TOTAL_DEPTH its whole d_m row."""
    if base.stages is None:
        raise ScaleError(f"base {base.name!r} is not stage-structured")
    rows = []
    for d_m in grid.depth_values():
        try:
            rows.append((d_m, scale_depths(base.stages.depths, d_m)))
        except ArchError:
            rows.append((d_m, None))
    out = []
    for w_m in grid.width_values():
        column = _column(base, w_m)
        for d_m, depths in rows:
            if column is None or depths is None:
                out.append(_invalid(w_m, d_m))
            else:
                out.append(_candidate(w_m, d_m, column, depths))
    return out


def filter_budget(cands: Sequence[ScaleCandidate], budget: Budget) -> List[ScaleCandidate]:
    """Valid candidates within the budget's relative tolerance, order preserved."""
    return [c for c in cands if c.valid and budget.admits(c.macs, c.params)]


def select_max_mass(cands: Sequence[ScaleCandidate]) -> ScaleCandidate:
    """Argmax-mass candidate; ties broken by lower macs, lower params, lower w_m."""
    if not cands:
        raise ScaleError("cannot select from an empty candidate list")
    return min(cands, key=lambda c: (-c.mass, c.macs, c.params, c.w_m))


def pareto_frontier(cands: Sequence[ScaleCandidate], cost_axis: str = "macs") -> List[ScaleCandidate]:
    """Candidates not dominated in (cost down, mass up), sorted by cost ascending with
    strictly increasing mass; exact duplicates keep their first occurrence."""
    if cost_axis not in ("macs", "params"):
        raise ScaleError(f"cost_axis must be 'macs' or 'params', got {cost_axis!r}")
    pool = [c for c in cands if c.valid]
    pool.sort(key=lambda c: (getattr(c, cost_axis), -c.mass))
    frontier = []
    best_mass = None
    for c in pool:
        if best_mass is None or c.mass > best_mass:
            frontier.append(c)
            best_mass = c.mass
    return frontier


CSV_COLUMNS = [
    "w_m", "d_m", "widths", "depths", "params", "macs",
    "mass", "nonlinear_units", "valid", "in_budget", "selected",
]


def _fields(c: ScaleCandidate) -> List[str]:
    """The text of a candidate's columns w_m to valid, as a scan writes them."""
    return [repr(c.w_m), repr(c.d_m), "|".join(map(str, c.widths)),
            "|".join(map(str, c.depths)), str(c.params), str(c.macs), repr(c.mass),
            str(c.nonlinear_units), str(int(c.valid))]


def candidates_to_csv(
    cands: Sequence[ScaleCandidate],
    in_budget: Optional[Sequence[ScaleCandidate]] = None,
    selected: Optional[ScaleCandidate] = None,
) -> str:
    import csv
    budget_set = set(id(c) for c in (in_budget or []))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_COLUMNS)
    for c in cands:
        w.writerow(_fields(c) + [int(id(c) in budget_set), int(c is selected)])
    return buf.getvalue()


def _finite(text: str, name: str, positive: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} {text!r} is not finite")
    if positive and not value > 0:
        raise ValueError(f"{name} {text!r} is not positive")
    return value


def _sizes(text: str, name: str) -> tuple:
    try:
        values = tuple(map(int, text.split("|"))) if text else ()
    except ValueError:
        raise ValueError(f"{name} {text!r} is not a '|'-separated list of integers") from None
    if values and min(values) <= 0:
        raise ValueError(f"{name} {text!r} has an entry that is not positive")
    return values


def _count(text: str, name: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"{name} {text!r} is negative")
    return value


def _rows(reader):
    """The reader's rows; a CSV error is refused with its line number."""
    import csv
    try:
        yield from reader
    except csv.Error as exc:  # such as a field past the field size limit
        raise ScaleError(f"line {reader.line_num}: {exc}") from None


def candidates_from_csv(text: str) -> List[ScaleCandidate]:
    """Parse a scan CSV back into candidates (in_budget/selected flags dropped). A row
    is refused, with the number of the line it ends on, when a flag is not 0 or 1, a
    value fails its check (a non-finite mass, a multiplier that is not finite and
    positive, a width or depth entry that is not positive, a negative count, a valid
    row without one depth per stage width), its fields w_m to valid are not as the
    writer renders the row (an invalid one as _invalid), or its flags are not ones
    a scan writes (in_budget or selected on an invalid row, selected on a row not in
    the budget, a second selected row); blank lines are skipped."""
    import csv
    reader = csv.reader(io.StringIO(text))
    rows = _rows(reader)
    header = next(rows, None)
    if header != CSV_COLUMNS:
        raise ScaleError(f"unexpected CSV header {header!r}")
    out = []
    selected_on = None  # the line the selected row ends on
    for row in rows:
        lineno = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ScaleError(f"line {lineno}: expected {len(CSV_COLUMNS)} columns")
        try:
            for name, flag in zip(CSV_COLUMNS[8:], row[8:]):
                if flag not in ("0", "1"):
                    raise ValueError(f"{name} {flag!r} is not 0 or 1")
            # checked in column order; the record takes macs before params
            w_m, d_m = _finite(row[0], "w_m", positive=True), _finite(row[1], "d_m", positive=True)
            widths, depths = _sizes(row[2], "widths"), _sizes(row[3], "depths")
            params, macs = _count(row[4], "params"), _count(row[5], "macs")
            c = ScaleCandidate(w_m, d_m, widths, depths, macs, params, _finite(row[6], "mass"),
                               _count(row[7], "nonlinear_units"), row[8] == "1")
            if c.valid and not len(c.widths) == len(c.depths) > 0:
                raise ValueError(f"valid row needs one depth per stage width, got widths "
                                 f"{row[2]!r} and depths {row[3]!r}")
            want = _fields(c if c.valid else _invalid(c.w_m, c.d_m))
            if row[:9] != want:
                i = next(i for i in range(9) if row[i] != want[i])
                raise ValueError(f"{CSV_COLUMNS[i]} {row[i]!r} should be written {want[i]!r}")
            in_budget, selected = row[9] == "1", row[10] == "1"
            if (in_budget or selected) and not c.valid:
                raise ValueError(f"{'in_budget' if in_budget else 'selected'} '1' needs valid '1'")
            if selected and not in_budget:
                raise ValueError("selected '1' needs in_budget '1'")
            if selected and selected_on is not None:
                raise ValueError(f"a second selected row; the first ends on line {selected_on}")
            if selected:
                selected_on = lineno
            out.append(c)
        except ValueError as exc:
            raise ScaleError(f"line {lineno}: {exc}") from exc
    return out
