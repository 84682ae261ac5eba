import errno
import hashlib
import importlib
import json
import math
import os
import pkgutil
import signal
import subprocess
import sys
import time

import pytest

import nnscale
import nnscale.archspec as A
import nnscale.scaler as S
import nnscale.search as search
import nnscale.verify as V
from nnscale import cli
from nnscale.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arch_validate_preset(capsys):
    code, out, _ = run(capsys, "arch-validate", "--preset", "convnext-t")
    assert code == 0
    assert "convnext-t" in out


def test_arch_validate_file(tmp_path, capsys):
    path = tmp_path / "arch.json"
    path.write_text(A.serialize_arch(A.preset("ran-i-t")))
    code, out, _ = run(capsys, "arch-validate", "--arch", str(path))
    assert code == 0
    assert "ran-i-t" in out


def test_arch_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text, message in (
        ("{", "syntax error"),
        ('{"a":' * 100000, "JSON nested too deeply"),
        (json.dumps(_stages(name={"a": 1})), "name must be a string, got {'a': 1}"),
        (json.dumps(_stages(family=["convnext"])), "family must be a string, got ['convnext']"),
        (json.dumps(_full([STEM, HEAD], name=None)), "name must be a string, got None"),
        (json.dumps(_full([STEM, HEAD], family=3)), "family must be a string, got 3"),
        (json.dumps(_stages(stage_widths=[8], expansion=0.01)),
         "block 1: expanded width rounds to 0 (expansion 0.01 at width 8)"),
        (json.dumps(_stages(family="resnet_bottleneck", stage_widths=[8], expansion=0.01)),
         "block 1: expanded width rounds to 0 (expansion 0.01 at width 8)"),
    ):
        path.write_text(text)
        for command in ("arch-validate", "cost"):
            code, out, err = run(capsys, command, "--arch", str(path))
            assert code == 1 and out == ""
            assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [["cost", "--arch"], ["report", "--scan"]])
def test_file_that_is_not_utf8_is_domain_error(tmp_path, capsys, command):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "can't decode byte 0xff" in err
    assert err.count("\n") == 1


def test_cost_summary(capsys):
    code, out, _ = run(capsys, "cost", "--preset", "convnext-t", "--resolution", "224")
    assert code == 0
    assert "params=28.59M" in out
    assert "macs=4.46B" in out


def test_mass_summary(capsys):
    code, out, _ = run(capsys, "mass", "--preset", "ran-i-t")
    assert code == 0
    assert "m=14710" in out and "X=29420" in out and "k=2" in out


def test_mass_rejects_flat_family(capsys):
    code, _, err = run(capsys, "mass", "--preset", "ran-e-supernet")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--preset", "not-a-preset"])
    assert exc.value.code == 2


def test_scale_csv_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(capsys, "scale", "--preset", "convnext-t",
                         "--wsteps", "5", "--dsteps", "3", "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_scale_marks_selection(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _, err = run(capsys, "scale", "--preset", "convnext-t",
                       "--budget-macs", "4.5e9", "--budget-params", "28e6",
                       "--tol", "0.025", "--out", str(path))
    assert code == 0
    assert "selected" in err
    lines = path.read_text().splitlines()
    assert len(lines) == 801
    assert sum(l.endswith(",1") for l in lines[1:]) == 1


def test_scale_to_report_pipeline(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    run(capsys, "scale", "--preset", "convnext-t", "--out", str(scan))
    frontier = tmp_path / "frontier.csv"
    code, out, err = run(
        capsys, "report", "--scan", str(scan),
        "--budget", "3.3e9:21e6", "--budget", "4.5e9:28e6",
        "--budget", "8.5e9:50e6", "--budget", "3.3e9:21e6",
        "--frontier-out", str(frontier),
    )
    assert code == 0
    assert "duplicate budget" in err
    assert out.count("budget macs=") == 3
    assert "no candidates" in out  # the 8.5B/50M budget is empty on this grid
    rows = frontier.read_text().splitlines()
    assert rows[0] == "macs,mass"
    assert len(rows) > 2


def test_pareto_output_strictly_increasing(tmp_path, capsys):
    path = tmp_path / "front.csv"
    code, _, _ = run(capsys, "pareto", "--preset", "convnext-t",
                     "--wsteps", "8", "--dsteps", "4", "--out", str(path))
    assert code == 0
    rows = path.read_text().splitlines()[1:]
    macs = [int(r.split(",")[5]) for r in rows]
    masses = [float(r.split(",")[6]) for r in rows]
    assert macs == sorted(macs)
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_collapse_verify_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "collapse-verify", "--trials", "6", "--seed", "1",
                     "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["all_pass"]
    assert len(data["reports"]) == 6
    for rep in data["reports"]:
        assert set(rep) == {"seed", "dims", "max_abs_diff_interior",
                            "max_abs_diff_full", "pass"}


def test_restructure_writes_arch(tmp_path, capsys):
    path = tmp_path / "model_a.json"
    code, out, _ = run(capsys, "restructure", "--preset", "convnext-t",
                       "--fraction", "0.6", "--out", str(path))
    assert code == 0
    assert "params=21.4" in out
    arch = A.parse_arch(path.read_text())
    assert arch.stages.split_fraction == 0.6


def test_afrb_search_trace(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "afrb-search", "--epochs", "5", "--seed", "0",
                       "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,acc,reg,alpha_0,alpha_1,alpha_2"
    assert len(lines) == 6
    summary = json.loads(out)
    assert set(summary) >= {"alphas", "decisions", "collapsed", "final_accuracy"}


@pytest.mark.parametrize("variants", ["a2,a2", "a3,a1"])
def test_afrb_search_residual_first_block_names_the_fix(monkeypatch, capsys, variants):
    def draw(*args, **kwargs):
        raise AssertionError("weights were drawn")

    monkeypatch.setattr(search, "generator", draw)
    code, out, err = run(capsys, "afrb-search", "--variants", variants)
    assert code == 1 and out == ""
    assert err == (f"error: block 0 ({variants[:2]}) is residual but maps width 2 to 8; "
                   "the variant list must start with a1 unless --width 2\n")


def test_afrb_search_residual_first_block_at_input_width(tmp_path, capsys):
    code, out, _ = run(capsys, "afrb-search", "--variants", "a2,a2", "--width", "2",
                       "--epochs", "3", "--out", str(tmp_path / "trace.csv"))
    assert code == 0
    assert len(json.loads(out)["alphas"]) == 2


def test_ldi_json(tmp_path, capsys):
    path = tmp_path / "ldi.json"
    code, _, _ = run(capsys, "ldi", "--width", "16", "--depth", "6", "--skips", "8",
                     "--q", "0.04166667", "--trials", "50", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["k_hat"] == 24
    assert 0 <= data["fraction_within"] <= 1


def test_regions_json(tmp_path, capsys):
    path = tmp_path / "regions.json"
    code, _, _ = run(capsys, "regions", "--layers", "2,3", "--trials", "5",
                     "--grid", "64", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data["reports"]) == 2


def test_cost_json_format(tmp_path, capsys):
    path = tmp_path / "cost.json"
    code, _, _ = run(capsys, "cost", "--preset", "ran-i-t", "--format", "json",
                     "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["total_macs"] == sum(b["macs"] for b in data["per_block"])


def test_json_writes_fractions_as_floats_and_refuses_other_values():
    from decimal import Decimal
    from fractions import Fraction

    from nnscale.cli import _json
    assert json.loads(_json({"k": Fraction(3, 4), "shape": A.Shape(1, 2, 3)})) == {
        "k": 0.75, "shape": {"channels": 1, "height": 2, "width": 3}}
    with pytest.raises(TypeError, match="^Decimal is not JSON serializable$"):
        _json({"k": Decimal("0.75")})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(A.NnscaleError, match="^cannot write JSON: Out of range float"):
            _json({"k": value})


@pytest.mark.parametrize("q", ["5e-324", "1e307"])
def test_ldi_at_extreme_variance_writes_strict_json(capsys, q):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    code, out, err = run(capsys, "ldi", "--q", q, "--width", "4", "--depth", "3",
                         "--skips", "1", "--trials", "50")
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=refuse)
    assert all(v > 0 for v in report["per_layer_mean_sv"])


def test_scale_json_format(tmp_path, capsys):
    path = tmp_path / "scan.json"
    code, _, _ = run(capsys, "scale", "--preset", "convnext-t",
                     "--wsteps", "3", "--dsteps", "2",
                     "--budget-macs", "4.5e9", "--tol", "0.25",
                     "--format", "json", "--out", str(path))
    assert code == 0
    rows = json.loads(path.read_text())
    assert len(rows) == 6
    assert {"w_m", "d_m", "macs", "params", "mass", "in_budget", "selected"} <= set(rows[0])
    assert sum(r["selected"] for r in rows) <= 1


def test_no_partial_file_on_error(tmp_path, capsys):
    target = tmp_path / "sub" / "x.csv"
    code, _, err = run(capsys, "scale", "--preset", "convnext-t",
                       "--wsteps", "2", "--dsteps", "2", "--out", str(target))
    assert code == 1  # directory does not exist
    assert not target.exists()
    assert not list(tmp_path.glob("*.nnscale-*"))


@pytest.mark.parametrize("umask", [0o022, 0o002])
@pytest.mark.parametrize("existing", [None, 0o444])
def test_out_file_gets_the_mode_open_gives(tmp_path, capsys, umask, existing):
    path = tmp_path / "cost.csv"
    if existing is not None:
        path.write_text("old\n")
        path.chmod(existing)
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "cost", "--preset", "convnext-t", "--out", str(path))
    finally:
        os.umask(old)
    assert code == 0
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_names_the_out_path(tmp_path, capsys):
    missing = tmp_path / "sub" / "x.csv"
    taken = tmp_path / "dir"
    taken.mkdir()
    for out, code in ((missing, errno.ENOENT), (taken, errno.EISDIR)):
        exit_code, _, err = run(capsys, "cost", "--preset", "convnext-t", "--out", str(out))
        assert exit_code == 1
        assert err == f"error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"
        assert ".nnscale-" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir"]


ARCH_COMMANDS = ["arch-validate", "cost", "mass", "scale", "pareto", "restructure"]


@pytest.mark.parametrize("command", ARCH_COMMANDS)
@pytest.mark.parametrize("flags, message", [
    ([], "one of the arguments --preset --arch is required"),
    (["--preset", "convnext-t", "--arch", "f.json"], "not allowed with argument"),
])
def test_preset_and_arch_are_one_required_choice(capsys, command, flags, message):
    with pytest.raises(SystemExit) as exc:
        main([command, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_regions_bad_layers_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["regions", "--layers", "2,x"])
    assert exc.value.code == 2
    assert "comma list of integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["afrb-search", "--width", "0"],
    ["regions", "--n", "0"],
    ["regions", "--n0", "0"],
    ["regions", "--trials", "0"],
    ["regions", "--grid", "0"],
    ["collapse-verify", "--trials", "0"],
    ["collapse-verify", "--size", "0"],
    ["collapse-verify", "--size", "-2"],
    ["regions", "--grid", "x"],
], ids=lambda argv: "_".join(a.strip("-") for a in argv))
def test_non_positive_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["scale", "--budget-macs", "nan"],
    ["scale", "--budget-macs", "inf"],
    ["pareto", "--wmin", "1e400"],
    ["report", "--scan", "scan.csv", "--budget", "a:b"],
    ["report", "--scan", "scan.csv", "--budget", "nan:1"],
    ["report", "--scan", "scan.csv", "--budget", "1e400:1"],
    ["report", "--scan", "scan.csv", "--budget", "1:2:3"],
    ["ldi", "--q", "nan"],
    ["ldi", "--q", "inf"],
    ["regions", "--radius", "nan"],
    ["restructure", "--fraction", "nan"],
    ["afrb-search", "--lr", "inf"],
    ["collapse-verify", "--seed", "99999999999999999999"],
], ids=lambda argv: "_".join(a.strip("-") for a in argv if a != "scan.csv"))
def test_malformed_number_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["afrb-search", "--lam", "1"], "lam must lie in [0, 1)"),
    (["afrb-search", "--lr", "0"], "bad optimizer settings"),
    (["afrb-search", "--batch", "0"], "bad optimizer settings"),
    (["afrb-search", "--epochs", "-1"], "bad optimizer settings"),
    (["ldi", "--skips", "-1"], "skip_channels must be >= 0"),
    (["ldi", "--q", "1e308", "--width", "4", "--depth", "3", "--skips", "1", "--trials", "50"],
     "q * k_hat must be finite, got 1e+308 * 5"),
    (["scale", "--preset", "convnext-t", "--wsteps", "0"], "steps must be >= 1"),
], ids=["afrb_lam", "afrb_lr", "afrb_batch", "afrb_epochs", "ldi_skips", "ldi_q_overflow",
        "scale_wsteps"])
def test_bad_setting_is_domain_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--budget-macs", "--budget-params"])
@pytest.mark.parametrize("value", ["-5", "0"])
def test_non_positive_budget_is_domain_error(capsys, flag, value):
    code, _, err = run(capsys, "scale", "--preset", "convnext-t",
                       "--wsteps", "2", "--dsteps", "2", flag, value)
    assert code == 1
    assert err.startswith("error: ") and "must be positive" in err


def test_report_non_positive_budget_is_domain_error(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    run(capsys, "scale", "--preset", "convnext-t", "--wsteps", "2", "--dsteps", "2",
        "--out", str(scan))
    code, _, err = run(capsys, "report", "--scan", str(scan), "--budget=-5:1")
    assert code == 1
    assert err.startswith("error: ") and "must be positive" in err


@pytest.mark.parametrize("budget", [[], ["--budget-macs", "4.5e9"]], ids=["no_budget", "budget"])
@pytest.mark.parametrize("command", ["scale", "pareto", "report"])
@pytest.mark.parametrize("tol", ["-1", "0.3", "-0.0001"])
def test_tolerance_out_of_range_is_domain_error(tmp_path, capsys, command, budget, tol):
    scan = tmp_path / "scan.csv"
    assert run(capsys, "scale", "--preset", "convnext-t", "--wsteps", "2", "--dsteps", "2",
               "--out", str(scan))[0] == 0
    if command == "report":
        argv = ["report", "--scan", str(scan)] + (["--budget", "4.5e9:28e6"] if budget else [])
    else:
        argv = [command, "--preset", "convnext-t", "--wsteps", "2", "--dsteps", "2", *budget]
    assert run(capsys, *argv, "--tol", tol) == (1, "", "error: tolerance must lie in [0, 0.25]\n")
    assert run(capsys, *argv, "--tol", "0.25")[0] == 0


@pytest.mark.parametrize("command", ["arch-validate", "mass", "cost"])
def test_keep_all_split_is_rejected_by_every_command(tmp_path, capsys, command):
    path = tmp_path / "split.json"
    path.write_text(json.dumps({
        "name": "convnext-t", "family": "convnext", "input_resolution": 224,
        "input_channels": 3, "stage_widths": [96, 192, 384, 768],
        "stage_depths": [3, 3, 9, 3], "split": {"fraction": 0.999},
    }))
    code, out, err = run(capsys, command, "--arch", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "keeps all 384 expanded channels" in err


def test_biased_collapse_without_interior_is_domain_error(capsys):
    code, _, err = run(capsys, "collapse-verify", "--biased", "--size", "1", "--trials", "2")
    assert code == 1
    assert err.startswith("error: ") and "no interior pixels" in err


def test_collapse_without_interior_reports_null(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "collapse-verify", "--size", "1", "--trials", "4",
                     "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["all_pass"]  # judged on the full map
    assert data["max_abs_diff_interior"] is None
    assert all(r["max_abs_diff_interior"] is None for r in data["reports"])


def test_collapse_interior_maximum_skips_nulls(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "collapse-verify", "--size", "4", "--trials", "12",
                     "--seed", "3", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    interior = [r["max_abs_diff_interior"] for r in data["reports"]]
    measured = [v for v in interior if v is not None]
    assert None in interior and measured  # a 7x7 kernel has no interior at size 4
    assert data["max_abs_diff_interior"] == max(measured)


@pytest.mark.parametrize("argv", [
    ["ldi", "--width", "256", "--depth", "16", "--skips", "32", "--trials", "50"],
    ["scale", "--preset", "convnext-t", "--wsteps", "1000", "--dsteps", "101"],
    ["pareto", "--preset", "convnext-t", "--wsteps", "400", "--dsteps", "251"],
    ["afrb-search", "--samples", "256", "--epochs", "8193"],
    ["afrb-search", "--samples", "3000000", "--epochs", "0"],
    ["afrb-search", "--width", "1024"],
    ["afrb-search", "--samples", "8193", "--width", "256", "--epochs", "1"],
    ["collapse-verify", "--size", "65"],
    ["regions", "--grid", "2048", "--trials", "1000"],
    ["collapse-verify", "--trials", "10000000"],
], ids=["ldi", "scale_grid", "pareto_grid", "afrb_epochs", "afrb_samples", "afrb_width",
        "afrb_activations", "collapse_size", "regions_lattice", "collapse_trials"])
def test_oversized_work_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "exceeds" in err


HUGE = "input_resolution must be an integer in [-2**31, 2**31], got "


@pytest.mark.parametrize("argv,message", [
    (["cost", "--resolution", "100000000000000000000000"], HUGE + "100000000000000000000000"),
    (["scale", "--resolution", "2147483680"], HUGE + "2147483680"),
    (["restructure", "--resolution", "2147483680"], HUGE + "2147483680"),
    (["cost", "--resolution", "100"], "input_resolution 100 not divisible by total stride 32"),
    (["scale", "--resolution", "0"], "input_resolution and input_channels must be positive"),
], ids=["cost_resolution", "scale_resolution", "restructure_resolution", "cost_stride",
        "scale_zero"])
def test_resolution_flag_is_checked_like_a_file(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--preset", "convnext-t")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["--n", "10000000", "--layers", "1", "--trials", "1"], "too many ReLU units"),
    (["--n", "2", "--n0", "4"], "need n >= n0 >= 1"),
    (["--layers", "2,0"], "layers must be >= 1"),
    (["--n", "3", "--n0", "3", "--layers", "1"], "1- or 2-D inputs"),
    (["--grid", "2048", "--trials", "1000"], "lattice points exceeds"),
    (["--radius", "1e308"], "box radius must be positive"),
], ids=["units", "n_below_n0", "zero_layers", "three_inputs", "lattice", "radius"])
def test_regions_checks_inputs_before_building_a_network(monkeypatch, capsys, argv, message):
    def build(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(V, "random_relu_net", build)
    start = time.perf_counter()
    code, out, err = run(capsys, "regions", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_diverging_search_prints_only_the_error():
    # a fresh interpreter, so numpy warnings reach stderr as a user would see them
    argv = ["afrb-search", "--dataset", "blobs", "--epochs", "20", "--width", "256",
            "--samples", "32"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "nnscale.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: training diverged at epoch 0: "
                           "non-finite activations in forward pass\n")


def test_interrupt_exits_130_with_one_error_line():
    # 256 x 8000 sample-epochs is inside the 2**21 bound and runs for many seconds
    argv = ["afrb-search", "--samples", "256", "--epochs", "8000"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, "-m", "nnscale.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # numpy loads only inside main's try (the descriptor modules never import
        # it), so an interrupt after that point tests main and not the start-up
        maps, deadline = f"/proc/{proc.pid}/maps", time.monotonic() + 30
        while os.path.exists(maps) and time.monotonic() < deadline:
            with open(maps) as fh:
                if "_multiarray_umath" in fh.read():
                    break
            time.sleep(0.05)
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert out == ""
    assert err == "error: interrupted\n"
    assert "Traceback" not in err


def _fresh_run(argv, stdout, unbuffered=True, preexec_fn=None):
    """`nnscale argv` started in a fresh interpreter, its stderr a text pipe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "nnscale.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            preexec_fn=preexec_fn)


def _one_error_line(proc, message):
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, f"error: {message}: '<stdout>'\n")


@pytest.mark.parametrize("argv", [["cost", "--preset", "convnext-t"],
                                  ["regions", "--trials", "2", "--grid", "16"]])
def test_closed_stdout_is_a_domain_error(argv):
    proc = _fresh_run(argv, None, preexec_fn=lambda: os.close(1))
    _one_error_line(proc, "[Errno 9] Bad file descriptor")


@pytest.mark.parametrize("argv,build", [
    (["ldi", "--trials", "200"], "build_linear_densenet"),
    (["regions", "--trials", "50"], "random_relu_net"),
], ids=["ldi", "regions"])
def test_closed_stdout_fails_before_the_trials(monkeypatch, capsys, argv, build):
    def refuse(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(V, build, refuse)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: [Errno 9] Bad file descriptor: '<stdout>'\n"


@pytest.mark.parametrize("stderr", ["closed", "broken_pipe"])
def test_stderr_that_cannot_be_written_keeps_the_exit_code(tmp_path, stderr):
    """The scale selection line, report's duplicate-budget warning and main's error
    line go to stderr best effort: with fd 2 closed (2>&-), or a pipe whose reader
    has gone, each command still exits as it would with stderr open."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv, code in (
            (["scale", "--preset", "convnext-t", "--budget-macs", "4.5e9", "--out", "s.csv"], 0),
            (["report", "--scan", "s.csv", "--budget", "4.5e9:28e6", "--budget", "4.5e9:28e6"],
             0),
            (["cost", "--arch", "missing.json"], 1),
            (["scale", "--wsteps", "x"], 2)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nnscale.cli", *argv], env=env, cwd=tmp_path,
                stdout=subprocess.DEVNULL, stderr=write_end,
                preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None)
        finally:
            os.close(write_end)
        assert proc.returncode == code, argv
    assert (tmp_path / "s.csv").read_text().startswith("w_m,")


# 454 KB of scan CSV, far more than a pipe holds, so the command is still writing when
# the reader goes
BIG_STDOUT = ["scale", "--preset", "ran-i-t", "--wsteps", "100", "--dsteps", "50"]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_that_stops_early_is_a_domain_error(unbuffered):
    """A reader that takes 10 bytes and closes the pipe: unbuffered, stdout's raw
    FileIO writes short, and the rest must not be dropped without a word."""
    read_end, write_end = os.pipe()
    try:
        proc = _fresh_run(BIG_STDOUT, write_end, unbuffered)
    finally:
        os.close(write_end)
    try:
        assert len(os.read(read_end, 10)) > 0
    finally:
        os.close(read_end)
    _one_error_line(proc, "[Errno 32] Broken pipe")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_pipe_closed_before_the_first_write_is_a_domain_error(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_run(["cost", "--preset", "convnext-t"], write_end, unbuffered)
    finally:
        os.close(write_end)
    _one_error_line(proc, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_full_device_on_stdout_is_a_domain_error(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _fresh_run(["cost", "--preset", "convnext-t"], full, unbuffered)
    _one_error_line(proc, "[Errno 28] No space left on device")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_big_stdout_to_a_pipe_arrives_whole(capsysbinary, unbuffered):
    """The process ends with os._exit (cli.run): every byte written before it, the
    CSV's CR LF line ends too, reaches the reader, the bytes main writes in-process."""
    assert main(BIG_STDOUT) == 0
    expected = capsysbinary.readouterr().out
    proc = _fresh_run(BIG_STDOUT, subprocess.PIPE, unbuffered)
    out = proc.stdout.buffer.read()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, "")
    assert len(out) == len(expected) > 400_000
    # digests, not the bytes: pytest's diff of two 454 KB outputs takes minutes
    assert hashlib.sha256(out).digest() == hashlib.sha256(expected).digest()


def _run_module_after_an_atexit_handler(argv, cwd, stdout):
    """`nnscale argv` started as `python -m nnscale.cli` does, through runpy, in a
    fresh interpreter with block-buffered stdout, after an atexit handler that prints
    one line has been registered."""
    probe = ("import atexit, runpy, sys\n"
             "atexit.register(print, 'atexit handler ran')\n"
             f"sys.argv = ['nnscale', *{argv!r}]\n"
             "runpy.run_module('nnscale.cli', run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("argv,code", [
    (["cost", "--preset", "convnext-t"], 0),
    (["ldi", "--width", "8", "--depth", "4", "--skips", "4", "--trials", "50"], 0),
    (["cost", "--arch", "missing.json"], 1),
    (["cost", "--preset", "not-a-preset"], 2),
    (["cost", "--help"], 0),
], ids=["cost", "ldi", "domain_error", "usage_error", "help"])
def test_atexit_handlers_run_before_the_process_ends(tmp_path, argv, code):
    """The handler runs once, after the command, and its line is flushed, whether the
    process ends through cli.run's os._exit or, for argparse's SystemExit, the normal
    way."""
    proc = _run_module_after_an_atexit_handler(argv, tmp_path, subprocess.PIPE)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.endswith("atexit handler ran\n")
    assert proc.stdout.count("atexit handler ran") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_that_fails_at_the_last_flush_is_a_domain_error(tmp_path):
    """The command writes only its --out file, so the handler's line is the first
    stdout byte; it waits in the buffer until cli.run flushes it to the full device:
    one error line naming <stdout> and exit 1, not a silent 0."""
    with open("/dev/full", "w") as full:
        proc = _run_module_after_an_atexit_handler(
            ["cost", "--preset", "convnext-t", "--out", "cost.csv"], tmp_path, full)
    assert (tmp_path / "cost.csv").read_text().startswith("block_index,")
    assert (proc.returncode, proc.stderr) == (
        1, "error: [Errno 28] No space left on device: '<stdout>'\n")


def test_report_rejects_non_finite_mass(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    scan.write_text("w_m,d_m,widths,depths,params,macs,mass,nonlinear_units,valid,"
                    "in_budget,selected\n"
                    "1.0,1.0,96,3,28000000,4500000000,5.0,4,1,0,0\n"
                    "1.1,1.0,96,3,28000000,4500000000,nan,4,1,0,0\n")
    code, out, err = run(capsys, "report", "--scan", str(scan), "--budget", "4.5e9:28e6",
                         "--frontier-out", str(tmp_path / "frontier.csv"))
    assert code == 1
    assert out == ""
    assert err == "error: line 3: mass 'nan' is not finite\n"
    assert not (tmp_path / "frontier.csv").exists()


def test_mass_formats(tmp_path, capsys):
    code, out, _ = run(capsys, "mass", "--preset", "ran-i-t", "--format", "text")
    assert code == 0 and out.count("\n") == 1 and out.startswith("ran-i-t: m=")
    code, out_json, _ = run(capsys, "mass", "--preset", "ran-i-t", "--format", "json")
    assert code == 0 and out_json.startswith(out)
    assert json.loads(out_json[len(out):])["mass"] == 14710
    path = tmp_path / "mass.json"
    code, out_file, _ = run(capsys, "mass", "--preset", "ran-i-t", "--out", str(path))
    assert code == 0 and out_file == out
    assert path.read_text() == out_json[len(out):]
    with pytest.raises(SystemExit) as exc:
        main(["mass", "--preset", "ran-i-t", "--format", "csv"])
    assert exc.value.code == 2


def test_cli_import_does_not_load_scipy():
    # every module, not only those the CLI imports today
    probe = ("import sys, nnscale, importlib, pkgutil\n"
             "for m in pkgutil.iter_modules(nnscale.__path__):\n"
             "    importlib.import_module('nnscale.' + m.name)\n"
             "print('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_descriptor_commands_do_not_load_numpy(tmp_path):
    """Each descriptor command, alone in a fresh interpreter, ends without numpy,
    dataclasses, inspect or nnscale.tensor loaded, nor json unless it reads or writes
    JSON, nor csv unless it reads or writes CSV (report reads the scan that scale
    wrote)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    never = {"numpy", "dataclasses", "inspect", "nnscale.tensor"}
    for argv, unused in (
            (["arch-validate", "--preset", "convnext-t"], {"json", "csv"}),
            (["cost", "--preset", "convnext-t"], {"json", "csv"}),
            (["mass", "--preset", "ran-i-t"], {"json", "csv"}),
            (["scale", "--preset", "convnext-t", "--budget-macs", "4.5e9", "--out", "s.csv"],
             {"json"}),
            (["report", "--scan", "s.csv", "--budget", "4.5e9:28e6"], {"json"}),
            (["pareto", "--preset", "ran-i-t", "--out", "front.csv"], {"json"}),
            (["restructure", "--preset", "convnext-t", "--out", "split.json"], {"csv"})):
        probe = ("import sys\n"
                 "from nnscale.cli import main\n"
                 f"assert main({argv!r}) == 0\n"
                 f"print(sorted({sorted(never | unused)!r} & sys.modules.keys()))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[]", argv


TRIAL_RUNS = [
    ["ldi", "--width", "8", "--depth", "6", "--skips", "4", "--trials", "50", "--seed", "3"],
    ["regions", "--layers", "2,3", "--trials", "3", "--grid", "64", "--seed", "2"],
]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two CPUs")
def test_trial_commands_write_the_same_bytes_on_one_cpu(tmp_path):
    """ldi and regions in fresh interpreters, pinned to one CPU and unpinned: every
    output byte is the same, so no BLAS or LAPACK thread count taken from the CPUs
    the process may use reaches the trials."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cpu = min(os.sched_getaffinity(0))
    def outputs(argv, pinned):
        directory = tmp_path / f"{argv[0]}-{len(argv)}-{pinned}"
        directory.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "nnscale.cli", *argv, "--out", "out.json"], env=env,
            cwd=directory, capture_output=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None)
        return proc.returncode, proc.stdout, proc.stderr, (directory / "out.json").read_bytes()
    for argv in TRIAL_RUNS:
        pinned = outputs(argv, True)
        assert pinned[:3] == (0, b"", b"") and pinned[3].startswith(b"{"), argv
        assert outputs(argv, False) == pinned, argv


def test_every_module_error_shares_one_base():
    modules = [importlib.import_module(f"nnscale.{m.name}")
               for m in pkgutil.iter_modules(nnscale.__path__)]
    errors = {obj for module in modules for name, obj in vars(module).items()
              if name.endswith("Error") and isinstance(obj, type)}
    assert len(errors) == 9  # the base and the eight module errors
    assert all(issubclass(e, A.NnscaleError) for e in errors)


def _full(blocks, **top):
    obj = {"name": "x", "family": "generic", "input_resolution": 32,
           "input_channels": 3, "blocks": blocks}
    obj.update(top)
    return obj


def _stages(**top):
    obj = {"name": "x", "family": "convnext", "input_resolution": 32,
           "input_channels": 3, "stage_widths": [16], "stage_depths": [1]}
    obj.update(top)
    return obj


STEM = {"kind": "stem", "kernel": 4, "stride": 4, "out_channels": 16}
HEAD = {"kind": "head", "classes": 10}
SPLIT = {"kind": "convnext_split_block", "expansion": 4.0, "dw_kernel": 7,
         "nonlinear_fraction": 0.5}


@pytest.mark.parametrize("descriptor,message", [
    (_full([dict(STEM, kernel="4"), HEAD]), "kernel must be an integer"),
    (_full([dict(STEM, out_channels=16.5), HEAD]), "out_channels must be an integer"),
    (_full([dict(STEM, stride=True), HEAD]), "stride must be an integer"),
    (_stages(expansion=1e308), "expansion must be a finite number"),
    (_stages(expansion=float("nan")), "expansion must be a finite number"),
    (_full([STEM, HEAD], input_resolution=None), "input_resolution must be an integer"),
    (_stages(stage_widths=[96.5]), "stage_widths entry must be an integer"),
    (_stages(stage_widths=["a"]), "stage_widths entry must be an integer"),
    (_full([STEM, dict(HEAD, hidden_channels=-5)]), "hidden_channels must be positive"),
    (_full([dict(STEM, kernel=0), HEAD]), "block 0: stem kernel must be >= 1"),
    (_full([STEM, {"kind": "downsample", "kernel": 0, "stride": 2, "out_channels": 32}, HEAD]),
     "block 1: downsample kernel must be >= 1"),
    (_full([STEM, dict(HEAD, hidden_channels=8, dw_kernel=-3)]),
     "block 1: head dw_kernel must be >= 1"),
    (_stages(stage_widths=[16, 32], stage_depths=[300000, 1]),
     "total stage depth 300001 exceeds 4096"),
    (_stages(stage_widths=[16, 32]), "stage widths and depths must have equal length"),
    (_stages(stage_widths=[16, 0], stage_depths=[1, 1]),
     "stage widths and depths must be positive"),
    (_stages(stage_depths=[0]), "stage widths and depths must be positive"),
    (_stages(family="resnet_bottleneck", split={"fraction": 0.5}),
     "family 'resnet_bottleneck' has no split form"),
    (_full([{"kind": "stem", "stride": 2, "out_channels": 8}, HEAD]),
     "error: block 0 (stem): missing field(s) kernel\n"),
    (_full([STEM, {"kind": "convnext_split_block", "expansion": 4.0}, HEAD]),
     "error: block 1 (convnext_split_block): missing field(s) dw_kernel, nonlinear_fraction\n"),
    (_full([STEM, {"kind": "resnet_bottleneck"}, HEAD]),
     "error: block 1 (resnet_bottleneck): missing field(s) expansion\n"),
    (_full([STEM, {"kind": "head"}]), "error: block 1 (head): missing field(s) classes\n"),
    (_full([STEM, {"kind": "ibn"}, HEAD]),
     "error: block 1 (ibn): missing field(s) expansion, dw_kernel, stride, out_channels\n"),
    ([_stages()], "error: architecture file must be a JSON object\n"),
    ({k: v for k, v in _full([STEM, HEAD]).items() if k != "name"},
     "error: missing required field 'name'\n"),
    (_full({"0": STEM}), "error: 'blocks' must be a list\n"),
    (_stages(split=0.5), "error: split must be an object\n"),
    (_stages(family="ran_e"),
     "error: stage shorthand requires a stage-structured family, got 'ran_e'\n"),
    (_stages(split={"fraction": 0.5, "branch_activation": "prelu"}),
     "error: activation 'prelu' requires its parameter field\n"),
    (_stages(stage_widths=16), "error: stage_widths must be a list of integers\n"),
    (_stages(stage_widths=[], stage_depths=[]), "error: stage_widths must be non-empty\n"),
    (_full([STEM, dict(SPLIT, branch_activation={"kind": "exp_kernel", "clamp": 0.0}),
            HEAD]), "error: exp_kernel clamp must be > 0\n"),
    (_stages(split={"fraction": 0.5,
                    "branch_activation": {"kind": "exp_kernel", "clamp": -1.0}}),
     "error: exp_kernel clamp must be > 0\n"),
    (_stages(split={"fraction": 0.5, "branch_activation": {"kind": "prelu"}}),
     "error: prelu alpha must be a finite number in [-2**31, 2**31], got None\n"),
    (_full([STEM, dict(SPLIT, branch_activation={"kind": "prelu", "alpha": 0.1, "clamp": 1}),
            HEAD]), "error: unknown field(s) in activation: clamp\n"),
    (_stages(split={"fraction": 0.5, "branch_activation": {"kind": "swish"}}),
     "error: unknown activation object kind 'swish'\n"),
    (_full([STEM, dict(SPLIT, branch_activation={"kind": []}), HEAD]),
     "error: unknown activation object kind []\n"),
    (_stages(split={"fraction": 0.5, "branch_activation": 5}),
     "error: bad activation value 5\n"),
    (_full([STEM, dict(SPLIT, branch_activation="exp_kernel"), HEAD]),
     "error: activation 'exp_kernel' requires its parameter field\n"),
    ('{"input_resolution": ' + "1" * 5000 + "}",
     "error: number too long: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5000 digits\n"),
], ids=["kernel_str", "out_channels_float", "stride_bool", "expansion_huge",
        "expansion_nan", "resolution_null", "stage_width_float", "stage_width_str",
        "hidden_channels_negative", "stem_kernel_zero", "downsample_kernel_zero",
        "head_dw_kernel_negative", "stage_depth_too_deep", "stage_lengths_differ",
        "stage_width_zero", "stage_depth_zero", "split_on_bottleneck", "one_field_missing",
        "two_fields_missing", "bottleneck_kind_only", "head_kind_only", "ibn_kind_only",
        "top_level_list", "name_missing", "blocks_not_list", "split_not_object",
        "stages_on_ran_e", "bare_prelu_string", "stage_widths_not_list", "stage_widths_empty",
        "block_exp_kernel_clamp_zero", "split_exp_kernel_clamp_negative", "prelu_without_alpha",
        "prelu_with_clamp", "unknown_activation_object", "activation_kind_not_string",
        "activation_number", "bare_exp_kernel_string", "integer_literal_too_long"])
def test_ill_typed_descriptor_is_domain_error(tmp_path, capsys, descriptor, message):
    """A descriptor given as a string is written as it is (json.dumps cannot write an
    integer past Python's digit limit)."""
    path = tmp_path / "arch.json"
    path.write_text(descriptor if isinstance(descriptor, str) else json.dumps(descriptor))
    code, out, err = run(capsys, "cost", "--arch", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


BOTTLENECK = {"kind": "resnet_bottleneck", "expansion": 0.25}
CONVNEXT = {"kind": "convnext_block"}
STEM_64 = dict(STEM, out_channels=64)


@pytest.mark.parametrize("descriptor,k", [
    (_full([STEM_64, BOTTLENECK, BOTTLENECK, HEAD], family="convnext"), "k=0.75 "),
    (_full([STEM_64, CONVNEXT, HEAD], family="resnet_bottleneck"), "k=2 "),
    (_full([STEM_64, CONVNEXT, CONVNEXT, HEAD]), "k=2 "),
    (_full([STEM_64, SPLIT, SPLIT, HEAD], family="convnext"), "k=1 "),
    (_full([STEM_64, dict(SPLIT, branch_activation="gelu"), HEAD], family="convnext"), "k=2 "),
], ids=["bottlenecks_labelled_convnext", "convnext_labelled_bottleneck", "generic_convnext",
        "split_linear_branch", "split_gelu_branch"])
def test_mass_reads_k_from_block_rules(tmp_path, capsys, descriptor, k):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(descriptor))
    code, out, err = run(capsys, "mass", "--arch", str(path), "--format", "json")
    assert code == 0, err
    line, report = out.split("\n", 1)
    assert k in line
    report = json.loads(report)
    assert abs(report["k"] * report["mass"] - report["nonlinear_units"]) <= 1e-9


def test_mass_rejects_mixed_block_rules(tmp_path, capsys):
    path = tmp_path / "arch.json"
    mix = [STEM_64, CONVNEXT, dict(BOTTLENECK, expansion=4.0), HEAD]
    path.write_text(json.dumps(_full(mix, family="convnext")))
    code, out, err = run(capsys, "mass", "--arch", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: non-uniform structure")


def test_restructure_refuses_bottleneck_stages(tmp_path, capsys):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(_stages(family="resnet_bottleneck")))
    code, out, err = run(capsys, "restructure", "--arch", str(path))
    assert code == 1 and out == ""
    assert err == "error: family 'resnet_bottleneck' has no split form\n"


def test_report_rejects_non_positive_scan_row(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    scan.write_text(",".join(S.CSV_COLUMNS) + "\n"
                    "-1.0,0.0,-5|0,-3,28000000,4500000000,5.0,4,1,0,0\n")
    code, out, err = run(capsys, "report", "--scan", str(scan), "--budget", "4.5e9:28e6")
    assert code == 1 and out == ""
    assert err == "error: line 2: w_m '-1.0' is not positive\n"


@pytest.mark.parametrize("text,message", [
    ("", "error: unexpected CSV header None\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0,96|192,3|3,28000000\n",
     f"error: line 2: expected {len(S.CSV_COLUMNS)} columns\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0," + "|".join(["8"] * 70_000)
     + ",3,5,2,3.0,4,1,0,0\n",
     "error: line 2: field larger than field limit (131072)\n"),
    ("x" * 140_000 + "\n", "error: line 1: field larger than field limit (131072)\n"),
    # a quoted in_budget field spans lines 2-3, and its row is refused on line 3
    (",".join(S.CSV_COLUMNS) + '\n1.0,1.0,8,1,5,2,5.0,4,1,"0\n",0\n'
     "1.0,1.0,8,1,-5,2,3.0,4,1,0,0\n",
     "error: line 3: in_budget '0\\n' is not 0 or 1\n"),
    (",".join(S.CSV_COLUMNS) + '\n1.0,1.0,"8\n",1,5,2,5.0,4,1,0,0\n',
     "error: line 3: widths '8\\n' should be written '8'\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0,8_0,1,5,2,5.0,4,1,0,0\n",
     "error: line 2: widths '8_0' should be written '80'\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0,8,1,1_000,2,5.0,4,1,0,0\n",
     "error: line 2: params '1_000' should be written '1000'\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0,8,+8,5,2,5.0,4,1,0,0\n",
     "error: line 2: depths '+8' should be written '8'\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0,8|16,1| 8,5,2,5.0,4,1,0,0\n",
     "error: line 2: depths '1| 8' should be written '1|8'\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0,8,1,5,2,5.0,\u0668,1,0,0\n",
     "error: line 2: nonlinear_units '\u0668' should be written '8'\n"),
    (",".join(S.CSV_COLUMNS) + "\n1.0,1.0,8,1,5,-0,5.0,4,1,0,0\n",
     "error: line 2: macs '-0' should be written '0'\n"),
], ids=["empty_file", "short_row", "oversized_field", "oversized_header",
        "row_after_multi_line_field", "newline_in_width", "underscore_in_width",
        "underscore_in_params", "plus_sign_in_depth", "space_in_depth",
        "arabic_indic_digit", "negative_zero_macs"])
def test_report_rejects_malformed_scan_file(tmp_path, capsys, text, message):
    scan = tmp_path / "scan.csv"
    scan.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "report", "--scan", str(scan), "--budget", "4.5e9:28e6")
    assert (code, out, err) == (1, "", message)


def test_report_skips_blank_lines(tmp_path, capsys):
    row = "1.0,1.0,96|192,3|3,28000000,4500000000,5.0,4,1,0,0\n"
    scan = tmp_path / "scan.csv"
    scan.write_text(",".join(S.CSV_COLUMNS) + "\n" + row + "\n" + row)
    code, out, err = run(capsys, "report", "--scan", str(scan))
    assert (code, err) == (0, "")
    assert out == f"scan: {scan} candidates=2 valid=2\n"


SMALL_SCAN = ["--preset", "convnext-t", "--wmin", "0.005", "--wmax", "1.0", "--wsteps", "4",
              "--dmin", "0.6", "--dmax", "1.2", "--dsteps", "3"]  # w_m = 0.005 is degenerate
BOTTLENECK_STAGES = _stages(family="resnet_bottleneck", stage_widths=[32, 64],
                            stage_depths=[2, 1])
CONVNEXT_STAGES = _stages(stage_widths=[16, 32], stage_depths=[2, 1])  # family defaults
DEEP_STAGES = _stages(stage_depths=[2000])  # d_m = 3 passes MAX_TOTAL_DEPTH
KEEP_ALL_STAGES = _stages(expansion=0.3, split={"fraction": 0.5})  # keeps all at width 8


def test_cost_uses_the_file_resolution(tmp_path, capsys):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(CONVNEXT_STAGES))
    code, out, _ = run(capsys, "cost", "--arch", str(path), "--per-block")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("x@32: ")
    assert lines[2] == "0,stem,3,32,32,49152,816"  # 8 * 8 * 4 * 4 * 3 * 16 MACs


BYTE_STABLE_RUNS = [
    ("arch-validate", ["arch-validate", "--preset", "convnext-t"], []),
    ("cost", ["cost", "--preset", "convnext-t"], []),
    ("cost-per-block", ["cost", "--preset", "ran-e-supernet", "--per-block"], []),
    ("cost-json", ["cost", "--preset", "ran-i-t", "--format", "json", "--out", "cost.json"],
     ["cost.json"]),
    ("mass-json", ["mass", "--preset", "ran-i-t", "--format", "json"], []),
    ("scale-csv", ["scale", *SMALL_SCAN, "--budget-macs", "3e9", "--tol", "0.25",
                   "--out", "scan.csv"], ["scan.csv"]),
    ("scale-json", ["scale", *SMALL_SCAN, "--budget-macs", "3e9", "--tol", "0.25",
                    "--format", "json", "--out", "scan.json"], ["scan.json"]),
    ("pareto-json", ["pareto", "--preset", "convnext-t", "--wsteps", "6", "--dsteps", "3",
                     "--format", "json"], []),
    ("report", ["report", "--scan", "scan.csv", "--budget", "3e9:20e6", "--budget", "1e9:1e6",
                "--tol", "0.25", "--frontier-out", "frontier.csv"], ["frontier.csv"]),
    ("restructure", ["restructure", "--preset", "convnext-t", "--activation", "exp",
                     "--out", "model.json"], ["model.json"]),
    ("mass-split", ["mass", "--arch", "model.json", "--format", "json"], []),
    ("scale-bottleneck", ["scale", "--arch", "bottleneck.json", "--wmin", "0.5", "--wmax", "1.5",
                          "--wsteps", "3", "--dmin", "1", "--dmax", "2", "--dsteps", "2",
                          "--format", "json"], []),
    ("cost-convnext-stages", ["cost", "--arch", "convnext_stages.json", "--per-block"], []),
    ("cost-convnext-stages-224", ["cost", "--arch", "convnext_stages.json", "--per-block",
                                  "--resolution", "224"], []),
    ("scale-bottleneck-224", ["scale", "--arch", "bottleneck.json", "--wmin", "0.5",
                              "--wmax", "1.5", "--wsteps", "3", "--dmin", "1", "--dmax", "2",
                              "--dsteps", "2", "--format", "json", "--resolution", "224"], []),
    ("arch-validate-supernet", ["arch-validate", "--preset", "ran-e-supernet"], []),
    ("arch-validate-stages", ["arch-validate", "--arch", "convnext_stages.json"], []),
    ("restructure-stages", ["restructure", "--arch", "convnext_stages.json", "--fraction", "0.5",
                            "--out", "split_stages.json"], ["split_stages.json"]),
    ("scale-depth-bound", ["scale", "--arch", "deep_stages.json", "--wmin", "0.5", "--wmax", "1",
                           "--wsteps", "2", "--dmin", "1", "--dmax", "3", "--dsteps", "3"], []),
    ("scale-keeps-all", ["scale", "--arch", "keep_all_stages.json", "--wmin", "0.5",
                         "--wmax", "1", "--wsteps", "3", "--dmin", "1", "--dmax", "2",
                         "--dsteps", "2", "--format", "json"], []),
    ("scale-split-stages", ["scale", "--arch", "split_stages.json", "--wmin", "0.5",
                            "--wmax", "1.5", "--wsteps", "3", "--dmin", "1", "--dmax", "2",
                            "--dsteps", "2", "--budget-macs", "9e5", "--tol", "0.1",
                            "--format", "csv", "--out", "split_scan.csv"], ["split_scan.csv"]),
    ("afrb-search-moons", ["afrb-search", "--dataset", "moons", "--epochs", "20", "--lr", "0.05",
                           "--out", "moons.csv"], ["moons.csv"]),
    ("afrb-search-tail-batch", ["afrb-search", "--variants", "a1,a2,a3", "--width", "6",
                                "--samples", "37", "--epochs", "12"], []),
    ("regions-bench", ["regions", "--n", "4", "--n0", "2", "--layers", "2,3,4", "--grid", "256",
                       "--trials", "8", "--out", "regions.json"], ["regions.json"]),
    ("regions-unsorted-repeated", ["regions", "--n", "4", "--n0", "1", "--layers", "3,1,3",
                                   "--grid", "512", "--trials", "5", "--seed", "7"], []),
    ("ldi-bench", ["ldi", "--width", "32", "--depth", "16", "--skips", "32", "--trials", "50",
                   "--out", "ldi.json"], ["ldi.json"]),
]

# SHA-256 of each run's stdout, non-empty stderr and written files. Only the afrb-search
# and regions runs touch BLAS (small float64 matrix products) and only the ldi run
# touches LAPACK (eigvalsh of its skip layers' Gram matrices and SVD of its square
# layers), so only their bytes may depend on the BLAS/LAPACK build and CPU; the digests
# here were taken with numpy 2.4's bundled OpenBLAS.
BYTE_STABLE_DIGESTS = {
    "arch-validate:stdout": "e94cd79cbf7ca367074043ffdb43c2ec04215f96c17cfbfef5e9b223281b3b68",
    "cost:stdout": "2e506ce42fc843866f2bb7bf6025ccc29ee3d7ffb9876e19142bd65b7c371f93",
    "cost-per-block:stdout": "60a54ba4badda29a3d90c4f6bfb3a44403513c924fdce0e14cad2d55c99efd3c",
    "cost-json:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cost-json:cost.json": "59f3cbc1240fcadcf82a18054228ea3ab9da875484dccc7881f51102647568b2",
    "mass-json:stdout": "6eb0118dfe0cff62057e2bd2bfedd4b42c1e1692a7e85dba3f355fb56b8b85cb",
    "scale-csv:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "scale-csv:stderr": "915ea970a9ce857b219f05b6fd1e5d3b4f99624a7c03b5a137dfa4d45c4bfaab",
    "scale-csv:scan.csv": "a3f1717a95661591d9a345c6f1816fbd28ce22f2a4c4ce7bf7a619b3d8c8c93e",
    "scale-json:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "scale-json:stderr": "915ea970a9ce857b219f05b6fd1e5d3b4f99624a7c03b5a137dfa4d45c4bfaab",
    "scale-json:scan.json": "e886f604809bc785571dd9e03a26ef1206cf8dd4fff7b0041288a45cbfda3c9d",
    "pareto-json:stdout": "18bb825dcfe62385e444caf2afb87dd40fb6e0d812d340f6dc9ad8bfa272b2da",
    "report:stdout": "ffc5c3e6578f350532bbcb3eb25d090c9f22e05cbbb9b25477a91a4b8d5044fc",
    "report:frontier.csv": "3cbae1e584c0d0b523d56d8c87b6268ea409649bc9a7d70000b1f556a83b85fa",
    "restructure:stdout": "2c9d48743c6e716f803187985dfb01f64cddd0d7280e66448128a8bbf3061f8a",
    "restructure:model.json": "50785a08c6df214766b84460e006d9e8d173ed2328c0b531c1a4c26411525416",
    "mass-split:stdout": "93a7712cf4c2cde8d5c58ffe54e88243dff5e28cf17b743dbddaafc336b61809",
    "scale-bottleneck:stdout": "46b658b825754479052112915025dcc9a0d564da602a8f5e8b60b93d53011c06",
    "cost-convnext-stages:stdout":
        "a550142c15627e3efdea78d9bdfd31bdfbf7a79a0b85d05597efcf3dd029b747",
    "cost-convnext-stages-224:stdout":
        "59cf8745f27b1edcb0677cc6686064e460657ba97d9ced8b1274a0f7c59f79b8",
    "scale-bottleneck-224:stdout":
        "81e332bfda95cf1071e46840ab1f6301cd4b8e9af066ca3b8689514f7781bfa2",
    "arch-validate-supernet:stdout":
        "e495f1e36bbea6562dbc7cd3622efc2d8eaabf271928ad6b70728f04388539d4",
    "arch-validate-stages:stdout":
        "483e1a379ae3b1f3c2396155db207a1e223702b091816f0142948f6e02f0a1fd",
    "restructure-stages:stdout":
        "5f699ff0bba59e6d88ca1eea2f149b3e835f2ce4546a430bac4c06a89c1a1e2a",
    "restructure-stages:split_stages.json":
        "eddcc3197dc97324c80835ab34c3b683b3a1423950907c8acb75fbb3cfd5500e",
    "scale-depth-bound:stdout":
        "a498008464ef5727c0e530e673bee78db6f0a2190ce84e0f35078aa5ffaed47e",
    "scale-keeps-all:stdout":
        "eb7cc8b103976fc7cd92384a4ec8805052226d82a526e3c9ea2ffb04c216a492",
    "scale-split-stages:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "scale-split-stages:stderr":
        "aadd8848536957e41f209ee9e93c0cca47262b67f36276eb20c2f35909c9f9e8",
    "scale-split-stages:split_scan.csv":
        "4672b4cb2ad2eee0a340ce7834b9317e7cefc55b4a8f8d2df637c5240e7556ca",
    "afrb-search-moons:stdout":
        "a417b1b87fb9410581e452c2b0d6fb8bfbd294433d1f15eb2245f27c31d9c311",
    "afrb-search-moons:moons.csv":
        "0523a010b936ae4c9aea286402df92f3ba3afd3815cfa9113b787cb5c53e8675",
    "afrb-search-tail-batch:stdout":
        "2565421f1859f0270a9bcdeb973c23e74a7a1cb2ef7cb49c5fd6f7a59e2c3bf9",
    "regions-bench:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "regions-bench:regions.json":
        "d9429f51475e6fb35a005fcc56edce0a0c75f2ba518464605899dbe7dc2a6f7b",
    "regions-unsorted-repeated:stdout":
        "e6895ef8c358000e781e90b89d7c188089a7301c5749459db47af6ab57bdd3b1",
    "ldi-bench:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ldi-bench:ldi.json": "3763f48bbbacf54fe496c94018a0a6cf1fa3861cf6b78df5e404a9a76f482c8c",
}


def test_outputs_are_byte_stable(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bottleneck.json").write_text(json.dumps(BOTTLENECK_STAGES))
    (tmp_path / "convnext_stages.json").write_text(json.dumps(CONVNEXT_STAGES))
    (tmp_path / "deep_stages.json").write_text(json.dumps(DEEP_STAGES))
    (tmp_path / "keep_all_stages.json").write_text(json.dumps(KEEP_ALL_STAGES))
    digests = {}
    for name, argv, files in BYTE_STABLE_RUNS:
        code, out, err = run(capsys, *argv)
        assert code == 0, (name, err)
        digests[f"{name}:stdout"] = hashlib.sha256(out.encode()).hexdigest()
        if err:
            digests[f"{name}:stderr"] = hashlib.sha256(err.encode()).hexdigest()
        for f in files:
            digests[f"{name}:{f}"] = hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert digests == BYTE_STABLE_DIGESTS


COMMANDS = ["arch-validate", "cost", "mass", "scale", "pareto", "collapse-verify",
            "restructure", "afrb-search", "ldi", "regions", "report"]
PARSER_RUNS = [
    ("help", ["--help"]),
    *((f"{command}-help", [command, "--help"]) for command in COMMANDS),
    ("unknown-command", ["frobnicate"]),
    ("missing-required", ["cost"]),
    ("bad-choice", ["pareto", "--cost-axis", "z"]),
    ("malformed-number", ["ldi", "--trials", "x"]),
]

# Exit code and SHA-256 of stdout and stderr of each parser run at 80 columns, as
# Python 3.11's argparse lays them out.
PARSER_DIGESTS = {
    "help": [0,
        "0d52e0bc147369417ef53dd1973369c2c5e2281650a63b3939cc22b628cc95cb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "arch-validate-help": [0,
        "e68bbeff8238cf20b384259f3812dc238753975888a6f2ba4b9879c3dff0ae86",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cost-help": [0,
        "6fea8694114d495c1356b1d0e9ac6a958bcec61ff783e3cb93fedb13396d994d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mass-help": [0,
        "b909ab86357fb5da72cd26da74d7266b53361ae9b3b62cb503e5210b977d90a3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "scale-help": [0,
        "be649fb5eb01a52c590d37fafab71f8038af33fff99147f144112c4c7ff262bb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "pareto-help": [0,
        "58c4d74e2d990c6436807334d4bdec535e56de2b31071f85db859f6d9b47ea98",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "collapse-verify-help": [0,
        "9f22f2ead2998ac31c9d7dc974478d452244c9748de9711b62af1ed251535556",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "restructure-help": [0,
        "8142cd6343d5d348ed643eae7ace2f5cf0250712d86cd6f9d0ff78513a02d508",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "afrb-search-help": [0,
        "dd989b13c3ab30e264db3954783de494f4497ec987b5d58b620b5739441f1c16",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "ldi-help": [0,
        "a153f8234a610110946410a6b0e3d1b611de847a3453c2e0963da3fafa554d56",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "regions-help": [0,
        "58dde0845741587cdd1d15e5aa430e327118850d28b4561d076e1902452cf8b6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "report-help": [0,
        "fa0d6f1ec2fdf14414ef582990bcb40ce511b7293a677d2666b6b041bbe54727",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "unknown-command": [2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0f6f74399b2511a83acaf7fa1198084905aa907410681f4722f6340762009aa0"],
    "missing-required": [2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3e66090fec1ccc9c32de6a798b4be7b3dcea66782e6c3c0be8dd500869c16663"],
    "bad-choice": [2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "12ec0e13cfdc70b17922f15fdfa1c0bff1c5a00bf9f6b3645fd87ace0c73be75"],
    "malformed-number": [2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cf422251cdd78a588a4c7783b36bac90d86d68712a9b4dd855a9a18d345ec752"],
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests of Python 3.11's argparse")
@pytest.mark.parametrize("name, argv", PARSER_RUNS, ids=[name for name, _ in PARSER_RUNS])
def test_help_and_usage_errors_are_byte_stable(monkeypatch, capsys, name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    digests = [exc.value.code, hashlib.sha256(captured.out.encode()).hexdigest(),
               hashlib.sha256(captured.err.encode()).hexdigest()]
    assert digests == PARSER_DIGESTS[name]


def test_parser_adds_a_commands_arguments_on_its_first_use():
    """A new parser holds only -h in each subcommand until that command parses or
    formats its usage."""
    ap = cli.build_parser.__wrapped__()
    commands = ap._subparsers._group_actions[0].choices
    assert list(commands) == COMMANDS
    assert all(len(p._actions) == 1 for p in commands.values())  # only -h
    args = ap.parse_args(["cost", "--preset", "ran-i-t", "--per-block"])
    assert (args.fn, args.per_block, args.format) == (cli._cmd_cost, True, "csv")
    assert len(commands["cost"]._actions) == 7
    assert all(len(p._actions) == 1 for name, p in commands.items() if name != "cost")
    assert ap.parse_args(["cost", "--preset", "ran-i-t"]).per_block is False
    commands["ldi"].format_usage()
    assert len(commands["ldi"]._actions) == 8


def test_one_parser_runs_commands_as_fresh_processes_do(monkeypatch, capsys):
    """Commands run one after another through one cached parser, from a newly built
    one, print the bytes each prints alone in a fresh interpreter."""
    runs = [["cost", "--preset", "ran-i-t", "--per-block"],
            ["scale", "--preset", "convnext-t", "--wsteps", "3", "--dsteps", "2",
             "--budget-macs", "3e9", "--tol", "0.25"],
            ["mass", "--help"],
            ["scale", "--wsteps", "x"]]
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cli.build_parser.cache_clear()
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "nnscale.cli", *argv], env=env,
                               capture_output=True)
        assert (code, captured.out.encode(), captured.err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
