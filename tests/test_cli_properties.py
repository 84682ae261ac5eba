"""Property tests of the CLI. The exit-code contract: every command, given flags
drawn from a small vocabulary of good, malformed and non-finite values, exits 0, 1
with `error: ...`, or 2 with a usage message, and never raises. Input boundaries:
`report` accepts a scan only in the text `scale` writes, and no command accepts a
descriptor that `arch-validate` refuses. Cross-command consistency: a file one
command writes or reports gives the same numbers under the commands that read it."""

import contextlib
import csv
import io
import json
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nnscale.scaler as S
from nnscale.cli import main

from conftest import PROFILE
from test_descriptors import full_descriptors, stage_descriptors

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


@pytest.fixture(scope="module")
def mutated_scan_csv(scan_csv):
    """The scan with its first w_m, 0.25, written as 00.25."""
    with open(scan_csv, newline="") as fh:
        text = fh.read().replace("\n0.25,", "\n00.25,", 1)
    assert "\n00.25," in text
    path = scan_csv.replace("scan.csv", "mutated.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


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
@given(argvs(), st.booleans())
@example(argv=["report"], mutated=True)
def test_every_command_keeps_the_exit_code_contract(scan_csv, mutated_scan_csv, argv,
                                                     mutated):
    if argv[0] == "report":
        argv = argv + ["--scan", mutated_scan_csv if mutated else scan_csv]
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


def _run(*argv):
    """Exit code and stdout of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def edit_scan(tmp_path_factory):
    """The text of a scan that scale writes (with its \\r\\n line ends) on a 3 x 2 grid
    whose first w_m column is degenerate, so it holds invalid rows and valid ones."""
    path = tmp_path_factory.mktemp("edit") / "scan.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["scale", "--preset", "convnext-t", "--wmin", "0.005", "--wmax", "1",
                     "--wsteps", "3", "--dsteps", "2", "--out", str(path)]) == 0
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@st.composite
def one_edit(draw, text):
    """text with one character inserted, deleted or replaced after the header line."""
    start = text.index("\n") + 1
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    at = draw(st.integers(start, len(text) - (op != "insert")))
    char = "" if op == "delete" else draw(st.sampled_from("0123456789_+-.|\"e \n\u0668"))
    return text[:at] + char + text[at + (op != "insert"):]


@settings(**PROFILE)
@given(st.data())
def test_report_accepts_only_the_text_scale_writes(tmp_path_factory, edit_scan, data):
    """A scan with one edited character is refused with one `error: line N:` line for a
    line N of the file, or it is read back into candidates that the writer renders as
    the edited columns w_m to valid, with 0/1 flags."""
    path = tmp_path_factory.getbasetemp() / "edited-scan.csv"
    path.write_text(data.draw(one_edit(edit_scan)), encoding="utf-8", newline="")
    text = path.read_text(encoding="utf-8")  # with the newlines report reads
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--scan", str(path)])
    if code == 1:
        assert out.getvalue() == ""
        match = re.fullmatch(r"error: line (\d+): [^\n]*\n", err.getvalue())
        assert match, err.getvalue()
        assert 1 <= int(match[1]) <= text.count("\n") + (not text.endswith("\n"))
        return
    assert code == 0
    edited = [row for row in csv.reader(io.StringIO(text)) if row][1:]
    written = S.candidates_to_csv(S.candidates_from_csv(text))
    assert [row[:9] for row in edited] == [row[:9] for row in
                                           list(csv.reader(io.StringIO(written)))[1:]]
    assert all(row[9] in ("0", "1") and row[10] in ("0", "1") for row in edited)


# The commands that read a descriptor file; scale and pareto on the 1 x 1 grid at 1.
ONE_BY_ONE = ["--wmin", "1", "--wmax", "1", "--wsteps", "1",
              "--dmin", "1", "--dmax", "1", "--dsteps", "1"]
DESCRIPTOR_COMMANDS = [["cost"], ["restructure"], ["scale", *ONE_BY_ONE],
                       ["pareto", *ONE_BY_ONE]]


@settings(**PROFILE)
@given(st.one_of(full_descriptors(), stage_descriptors()))
def test_no_command_accepts_a_descriptor_arch_validate_refuses(tmp_path_factory,
                                                               descriptor):
    """The converse need not hold: mass and restructure refuse some files that
    arch-validate accepts, by design."""
    path = tmp_path_factory.getbasetemp() / "boundary-arch.json"
    path.write_text(json.dumps(descriptor))
    if _run("arch-validate", "--arch", str(path))[0] == 0:
        return
    for command, *flags in DESCRIPTOR_COMMANDS:
        assert _run(command, "--arch", str(path), *flags)[0] == 1, command


# Each example below runs up to 20 commands; 100 examples keep tier-1 near 30 s.
CHAIN_PROFILE = dict(PROFILE, max_examples=100)


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
