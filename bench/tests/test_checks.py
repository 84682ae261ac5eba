"""The output checks accept what the program writes and reject tampered copies."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parents[2]
HEADER = ["w_m", "d_m", "widths", "depths", "params", "macs", "mass",
          "nonlinear_units", "valid", "in_budget", "selected"]


def scan_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(HEADER)
    for w_m, macs, params, mass, in_budget, selected in rows:
        w.writerow([w_m, 1.0, "8|16", "1|1", params, macs, repr(mass), 10, 1,
                    int(in_budget), int(selected)])
    return buf.getvalue()


# budget 100 MACs / 10 params at 10%: rows 0-2 fit, row 2 has the most mass
ROWS = [(0.5, 100, 10, 1.0, 1, 0), (0.6, 105, 10, 2.0, 1, 0), (0.7, 95, 11, 3.0, 1, 1),
        (0.8, 200, 20, 9.0, 0, 0)]


def test_scale_accepts_the_brute_force_argmax():
    assert checks.check_scale(scan_csv(ROWS), 100, 10, 0.1) == []


def test_scale_rejects_a_wrong_selected_row():
    tampered = [r[:5] + (int(i == 1),) for i, r in enumerate(ROWS)]
    assert checks.check_scale(scan_csv(tampered), 100, 10, 0.1)


def test_scale_rejects_wrong_budget_flags():
    tampered = ROWS[:3] + [ROWS[3][:4] + (1, 0)]
    assert checks.check_scale(scan_csv(tampered), 100, 10, 0.1)


def test_scale_ties_go_to_lower_macs():
    rows = [(0.5, 101, 10, 3.0, 1, 0), (0.6, 99, 10, 3.0, 1, 1)]
    assert checks.check_scale(scan_csv(rows), 100, 10, 0.1) == []


def test_frontier_checks():
    pool = [(1, 1.0), (2, 3.0), (3, 2.0), (4, 5.0)]
    assert checks.check_frontier([(1, 1.0), (2, 3.0), (4, 5.0)], pool) == []
    assert checks.check_frontier([(1, 1.0), (3, 2.0), (4, 5.0)], pool)   # (2, 3) dominates
    assert checks.check_frontier([(1, 1.0), (4, 5.0)], pool)             # (2, 3) missing
    assert checks.check_frontier([(2, 3.0), (1, 4.0)])                   # cost decreases
    assert checks.check_frontier([(1, 3.0), (2, 3.0)])                   # mass flat


def regions_json(max_patterns):
    reports = [{"layers": layers, "max_patterns": p}
               for layers, p in zip([2, 3, 4], max_patterns)]
    return json.dumps({"reports": reports, "non_decreasing": False})


def test_regions_accept_the_ceiling_and_reject_above_it():
    assert checks.check_regions(regions_json([2**8, 30, 40]), 4, [2, 3, 4]) == []
    assert checks.check_regions(regions_json([2**8 + 1, 30, 40]), 4, [2, 3, 4])


def collapse_json(full, interior, trials=3):
    reports = [{"pass": True}] * trials
    return json.dumps({"trials": trials, "all_pass": True, "max_abs_diff_full": full,
                       "max_abs_diff_interior": interior, "reports": reports})


def test_collapse_rejects_a_diff_above_1e_10():
    assert checks.check_collapse(collapse_json(5e-15, 5e-15), 3, biased=False) == []
    assert checks.check_collapse(collapse_json(2e-10, 5e-15), 3, biased=False)
    assert checks.check_collapse(collapse_json(2.7, 5e-15), 3, biased=True) == []
    assert checks.check_collapse(collapse_json(2.7, 2e-10), 3, biased=True)


def test_afrb_needs_one_finite_row_per_epoch():
    good = "epoch,loss,acc,reg,alpha_0\n0,0.5,0.5,0.0,1.0\n1,0.4,0.6,0.0,0.9\n"
    assert checks.check_afrb(good, 2) == []
    assert checks.check_afrb(good, 3)
    assert checks.check_afrb(good.replace("0.4", "nan"), 2)


def nnscale(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "nnscale.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    nnscale("scale", "--preset", "convnext-t", "--budget-macs", "4500000000",
            "--budget-params", "28000000", "--out", "scan.csv", cwd=d)
    nnscale("regions", "--trials", "2", "--layers", "2,3", "--out", "regions.json", cwd=d)
    nnscale("collapse-verify", "--trials", "5", "--out", "collapse.json", cwd=d)
    return d


def test_real_scan_passes_and_a_moved_selection_fails(outputs):
    text = (outputs / "scan.csv").read_text()
    assert checks.check_scale(text, 4_500_000_000, 28_000_000, 0.025) == []
    rows = list(csv.reader(io.StringIO(text)))
    chosen = next(i for i, r in enumerate(rows) if r[10] == "1")
    other = next(i for i, r in enumerate(rows) if r[9] == "1" and i != chosen)
    rows[chosen][10], rows[other][10] = "0", "1"
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    assert checks.check_scale(buf.getvalue(), 4_500_000_000, 28_000_000, 0.025)


def test_real_regions_pass_and_an_inflated_count_fails(outputs):
    trend = json.loads((outputs / "regions.json").read_text())
    assert checks.check_regions(json.dumps(trend), 4, [2, 3]) == []
    trend["reports"][1]["max_patterns"] = 2**12 + 1
    assert checks.check_regions(json.dumps(trend), 4, [2, 3])


def test_real_collapse_passes_and_a_large_diff_fails(outputs):
    out = json.loads((outputs / "collapse.json").read_text())
    assert checks.check_collapse(json.dumps(out), 5, biased=False) == []
    out["max_abs_diff_full"] = 1.5e-10
    assert checks.check_collapse(json.dumps(out), 5, biased=False)
