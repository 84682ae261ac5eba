"""Property tests of the CLI. The exit-code contract: every command, given flags
drawn from a small vocabulary of good, malformed and non-finite values, exits 0, 1
with `error: ...`, or 2 with a usage message, and never raises. Cross-command
consistency: a file one command writes or reports gives the same numbers under the
commands that read it."""

import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from nnscale.cli import main

from conftest import PROFILE
from test_descriptors import stage_descriptors

VALUES = ["0", "-1", "1", "2", "3", "0.5", "1e9", "nan", "inf", "1e400", "x", "2,x"]
BUDGETS = ["4e9:28e6", "1:1", "-1:5", "0:0", "nan:1", "1e400:1", "a:b", "1:2:3", "x"]

SCALE_FLAGS = ["--wmin", "--wmax", "--wsteps", "--dmin", "--dmax", "--dsteps",
               "--resolution", "--budget-macs", "--budget-params", "--tol"]
# command -> (argv that pins the costly defaults small, flags the test may override)
COMMANDS = {
    "arch-validate": (["--preset", "convnext-t"], []),
    "cost": (["--preset", "ran-i-t"], ["--resolution"]),
    "mass": (["--preset", "convnext-t"], []),
    "scale": (["--preset", "convnext-t", "--wsteps", "2", "--dsteps", "2"], SCALE_FLAGS),
    "pareto": (["--preset", "convnext-t", "--wsteps", "2", "--dsteps", "2"], SCALE_FLAGS),
    "collapse-verify": (["--trials", "2", "--size", "6"],
                        ["--trials", "--seed", "--size", "--biased"]),
    "restructure": (["--preset", "convnext-t"], ["--fraction", "--resolution"]),
    "afrb-search": (["--epochs", "2", "--samples", "16"],
                    ["--samples", "--noise", "--width", "--lam", "--lr", "--epochs",
                     "--batch", "--seed", "--variants"]),
    "ldi": (["--trials", "50", "--width", "4", "--depth", "4", "--skips", "2"],
            ["--width", "--depth", "--skips", "--q", "--trials", "--seed"]),
    "regions": (["--trials", "1", "--grid", "8", "--layers", "1,2"],
                ["--n", "--n0", "--layers", "--trials", "--grid", "--radius", "--seed"]),
    "report": ([], ["--budget", "--tol"]),
}


@pytest.fixture(scope="module")
def scan_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["scale", "--preset", "convnext-t", "--wsteps", "2", "--dsteps", "2",
                     "--out", str(path)]) == 0
    return str(path)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base, flags = COMMANDS[command]
    argv = [command, *base]
    chosen = draw(st.lists(st.sampled_from(flags), max_size=3)) if flags else []
    for flag in chosen:
        if flag == "--biased":
            argv.append(flag)
        else:
            value = draw(st.sampled_from(BUDGETS if flag == "--budget" else VALUES))
            argv.append(f"{flag}={value}")  # = keeps "-1:5" from reading as a flag
    return argv


@settings(**PROFILE)
@given(argvs())
def test_every_command_keeps_the_exit_code_contract(scan_csv, argv):
    if argv[0] == "report":
        argv = argv + ["--scan", scan_csv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = err.getvalue()
    assert "Traceback" not in text
    assert code in (0, 1, 2)
    if code == 1:
        assert text.startswith("error: ") or "\nerror: " in text
    if code == 2:
        assert "usage: nnscale" in text


# Each example below runs up to 20 commands; 100 examples keep tier-1 near 30 s.
CHAIN_PROFILE = dict(PROFILE, max_examples=100)


def _run(*argv):
    """Exit code and stdout of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(**CHAIN_PROFILE)
@given(stage_descriptors(), st.sampled_from(["0.3", "0.5", "0.6"]),
       st.sampled_from(["16", "32", "64", "224"]))
def test_restructured_file_costs_what_restructure_printed(tmp_path_factory, descriptor,
                                                          fraction, resolution):
    base = tmp_path_factory.getbasetemp()
    f, g = base / "chain-base.json", base / "chain-split.json"
    f.write_text(json.dumps(descriptor))
    for flags in ([], ["--resolution", resolution]):
        code, printed = _run("restructure", "--arch", str(f), "--fraction", fraction,
                             "--out", str(g), *flags)
        if code != 0:
            assert code == 1
            continue
        code, costed = _run("cost", "--arch", str(g))
        assert code == 0
        assert costed[costed.index(" params="):] == printed[printed.index(" params="):]


@settings(**CHAIN_PROFILE)
@given(stage_descriptors(), st.integers(1, 3), st.integers(1, 3))
def test_scan_rows_cost_and_mass_as_stage_files(tmp_path_factory, descriptor, wsteps, dsteps):
    base = tmp_path_factory.getbasetemp()
    f, g, report = base / "row-base.json", base / "row.json", base / "row-report.json"
    f.write_text(json.dumps(descriptor))
    code, scan = _run("scale", "--arch", str(f), "--wmin", "0.5", "--wmax", "2",
                      "--wsteps", str(wsteps), "--dmin", "0.5", "--dmax", "2",
                      "--dsteps", str(dsteps), "--format", "json")
    if code != 0:
        assert code == 1
        return
    for row in json.loads(scan):
        if not row["valid"]:
            continue
        g.write_text(json.dumps(dict(descriptor, stage_widths=row["widths"],
                                     stage_depths=row["depths"])))
        assert _run("cost", "--arch", str(g), "--format", "json", "--out", str(report))[0] == 0
        cost = json.loads(report.read_text())
        assert (cost["total_params"], cost["total_macs"]) == (row["params"], row["macs"])
        assert _run("mass", "--arch", str(g), "--format", "json", "--out", str(report))[0] == 0
        mass = json.loads(report.read_text())
        assert (mass["mass"], mass["nonlinear_units"]) == (row["mass"], row["nonlinear_units"])


def _grid_flags(wsteps, dsteps):
    return ["--wmin", "0.5", "--wmax", "2", "--wsteps", str(wsteps),
            "--dmin", "0.5", "--dmax", "2", "--dsteps", str(dsteps)]


# Each example below runs three commands on a grid of at most 16 candidates.
SCAN_PROFILE = dict(PROFILE, max_examples=30)


@settings(**SCAN_PROFILE)
@given(stage_descriptors(), st.integers(1, 4), st.integers(1, 4), st.data())
def test_scale_and_report_select_the_same_candidate(tmp_path_factory, descriptor, wsteps,
                                                    dsteps, data):
    base = tmp_path_factory.getbasetemp()
    f, scan = base / "select-base.json", base / "select-scan.csv"
    f.write_text(json.dumps(descriptor))
    grid = _grid_flags(wsteps, dsteps)
    code, rows = _run("scale", "--arch", str(f), *grid, "--format", "json")
    assert code in (0, 1)
    valid = [row for row in json.loads(rows) if row["valid"]] if code == 0 else []
    assume(valid)
    # a budget near a drawn candidate, so that some budgets admit several and some none
    row = data.draw(st.sampled_from(valid))
    scale = data.draw(st.sampled_from([0.8, 0.97, 1.0, 1.03]))
    macs, params = repr(row["macs"] * scale), repr(row["params"] * scale)
    tol = data.draw(st.sampled_from(["0", "0.025", "0.1", "0.25"]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["scale", "--arch", str(f), *grid, "--budget-macs", macs,
                     "--budget-params", params, "--tol", tol, "--out", str(scan)]) == 0
    code, report = _run("report", "--scan", str(scan), "--budget", f"{macs}:{params}",
                        "--tol", tol)
    assert code == 0
    section = report.splitlines()[2]
    if err.getvalue():
        assert section == "  " + err.getvalue().rstrip("\n")
    else:
        assert section == "  no candidates"


@settings(**SCAN_PROFILE)
@given(stage_descriptors(), st.integers(1, 4), st.integers(1, 4))
def test_pareto_is_the_frontier_report_writes(tmp_path_factory, descriptor, wsteps, dsteps):
    base = tmp_path_factory.getbasetemp()
    f, scan = base / "front-base.json", base / "front-scan.csv"
    frontier = base / "front.csv"
    f.write_text(json.dumps(descriptor))
    grid = _grid_flags(wsteps, dsteps)
    code, pareto = _run("pareto", "--arch", str(f), *grid)
    assert code in (0, 1)
    assume(code == 0)
    assert _run("scale", "--arch", str(f), *grid, "--out", str(scan))[0] == 0
    assert _run("report", "--scan", str(scan), "--frontier-out", str(frontier))[0] == 0
    front = [row.split(",")[5:7] for row in pareto.splitlines()[1:]]
    assert front == [row.split(",") for row in frontier.read_text().splitlines()[1:]]
