"""Output checks for the benchmark's nnscale commands.

Every check reads only what a command wrote (stdout text or an output file)
plus the inputs the benchmark chose, and recomputes the expected answer by brute
force. None of them imports nnscale. Each returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re


def scan_rows(text: str) -> list[dict]:
    """Rows of a scan CSV (the `scale` / `pareto` output) with typed fields."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({
            "w_m": float(row["w_m"]), "d_m": float(row["d_m"]),
            "params": int(row["params"]), "macs": int(row["macs"]),
            "mass": float(row["mass"]), "valid": row["valid"] == "1",
            "in_budget": row["in_budget"] == "1", "selected": row["selected"] == "1",
        })
    return rows


def admits(row: dict, target_macs: int, target_params: int, tol: float) -> bool:
    return (abs(row["macs"] - target_macs) <= tol * target_macs
            and abs(row["params"] - target_params) <= tol * target_params)


def argmax_mass(rows: list[dict]) -> dict:
    """Highest mass; ties go to lower macs, then lower params, then lower w_m."""
    return min(rows, key=lambda r: (-r["mass"], r["macs"], r["params"], r["w_m"]))


def check_scale(text: str, target_macs: int, target_params: int, tol: float) -> list[str]:
    """The in-budget flags match the budget, and the selected row is the
    brute-force argmax over the in-budget rows."""
    rows = scan_rows(text)
    problems = []
    fits = [r for r in rows if r["valid"] and admits(r, target_macs, target_params, tol)]
    flagged = [r for r in rows if r["in_budget"]]
    if flagged != fits:
        problems.append(f"{len(flagged)} rows flagged in budget, expected {len(fits)}")
    if not fits:
        return problems + ["no row fits the budget"]
    selected = [r for r in rows if r["selected"]]
    best = argmax_mass(fits)
    if selected != [best]:
        got = [(r["w_m"], r["d_m"]) for r in selected]
        problems.append(f"selected {got}, expected {(best['w_m'], best['d_m'])}")
    return problems


def check_frontier(points: list[tuple], pool: list[tuple] | None = None) -> list[str]:
    """points are (cost, mass) pairs of a frontier. Cost and mass must strictly
    increase. With the pool of all valid (cost, mass) pairs, no pool point may
    dominate a frontier point, and every pool point must be matched or dominated
    by one."""
    problems = []
    if not points:
        return ["empty frontier"]
    for (c0, m0), (c1, m1) in zip(points, points[1:]):
        if not (c1 > c0 and m1 > m0):
            problems.append(f"frontier not strictly increasing at cost {c1}")
            break
    if pool is None:
        return problems
    for fc, fm in points:
        if any(c <= fc and m >= fm and (c < fc or m > fm) for c, m in pool):
            problems.append(f"frontier point ({fc}, {fm}) is dominated")
            break
    for c, m in pool:
        if not any(fc <= c and fm >= m for fc, fm in points):
            problems.append(f"valid point ({c}, {m}) is missing from the frontier")
            break
    return problems


def check_pareto(text: str) -> list[str]:
    rows = scan_rows(text)
    if not all(r["valid"] for r in rows):
        return ["invalid row on the frontier"]
    return check_frontier([(r["macs"], r["mass"]) for r in rows])


def check_report(stdout: str, scan_text: str, frontier_text: str,
                 budgets: list[tuple[int, int]], tol: float) -> list[str]:
    """Per budget: the candidate count and the selected (w_m, d_m) match brute
    force over the scan; the frontier file is the scan's exact MAC/mass frontier."""
    rows = scan_rows(scan_text)
    valid = [r for r in rows if r["valid"]]
    problems = []
    counts = [int(n) for n in re.findall(r": (\d+) candidates$", stdout, re.M)]
    picks = re.findall(r"^  (?:selected w_m=(\S+) d_m=(\S+)|no candidates)", stdout, re.M)
    if len(counts) != len(budgets) or len(picks) != len(budgets):
        return [f"expected {len(budgets)} budget sections"]
    for (macs, params), count, pick in zip(budgets, counts, picks):
        fits = [r for r in valid if admits(r, macs, params, tol)]
        if count != len(fits):
            problems.append(f"budget {macs}:{params}: {count} candidates, expected {len(fits)}")
        want = ("", "")
        if fits:
            best = argmax_mass(fits)
            want = (f"{best['w_m']:g}", f"{best['d_m']:g}")
        if pick != want:
            problems.append(f"budget {macs}:{params}: selected {pick}, expected {want}")
    frontier = list(csv.reader(io.StringIO(frontier_text)))
    if not frontier or frontier[0] != ["macs", "mass"]:
        return problems + ["frontier file lacks its macs,mass header"]
    points = [(int(c), float(m)) for c, m in frontier[1:]]
    return problems + check_frontier(points, [(r["macs"], r["mass"]) for r in valid])


def check_ldi(text: str, trials: int) -> list[str]:
    report = json.loads(text)
    problems = []
    if report["trials"] != trials:
        problems.append(f"trials {report['trials']} != {trials}")
    if not report["fraction_within"] >= 0.99:
        problems.append(f"fraction_within {report['fraction_within']} < 0.99")
    if not 0.85 <= report["grand_mean"] <= 1.15:
        problems.append(f"grand_mean {report['grand_mean']} outside [0.85, 1.15]")
    return problems


def check_regions(text: str, n: int, layers: list[int]) -> list[str]:
    """No depth may show more patterns than 2^X, X = n * layers ReLU units. The
    depth trend (non_decreasing) is statistical and is reported, not checked."""
    trend = json.loads(text)
    reports = trend["reports"]
    if [r["layers"] for r in reports] != layers:
        return [f"depths {[r['layers'] for r in reports]} != {layers}"]
    return [f"{r['max_patterns']} patterns at depth {depth} exceed 2^{n * depth}"
            for r, depth in zip(reports, layers) if r["max_patterns"] > 2 ** (n * depth)]


def check_collapse(text: str, trials: int, biased: bool, tol: float = 1e-10) -> list[str]:
    """Every trial passes; with biases the border pixels legitimately differ, so
    the bound applies to the interior only."""
    out = json.loads(text)
    key = "max_abs_diff_interior" if biased else "max_abs_diff_full"
    problems = []
    if out["trials"] != trials or len(out["reports"]) != trials:
        problems.append(f"{len(out['reports'])} trials reported, expected {trials}")
    if not out["all_pass"] or not all(r["pass"] for r in out["reports"]):
        problems.append("not every trial passed")
    if not out[key] <= tol:
        problems.append(f"{key} {out[key]} > {tol}")
    return problems


def check_afrb(text: str, epochs: int) -> list[str]:
    """One row per epoch, numbered in order, every value finite."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:4] != ["epoch", "loss", "acc", "reg"]:
        return ["trace lacks its epoch,loss,acc,reg header"]
    body = rows[1:]
    if [r[0] for r in body] != [str(i) for i in range(epochs)]:
        return [f"{len(body)} trace rows, expected epochs 0..{epochs - 1}"]
    if not all(math.isfinite(float(v)) for r in body for v in r[1:]):
        return ["non-finite value in the trace"]
    return []


def check_fewer_macs(text: str, base_text: str) -> list[str]:
    macs, base = json.loads(text)["total_macs"], json.loads(base_text)["total_macs"]
    return [] if macs < base else [f"restructured macs {macs} not below {base}"]
