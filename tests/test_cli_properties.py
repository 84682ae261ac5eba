"""Property test of the CLI's exit-code contract: every command, given flags drawn
from a small vocabulary of good, malformed and non-finite values, exits 0, 1 with
`error: ...`, or 2 with a usage message, and never raises."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from nnscale.cli import main

from conftest import PROFILE

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
