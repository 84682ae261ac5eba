"""nnscale benchmark: timed CLI sessions, output checks and fingerprints, and
per-module spans from a traced run.

    python3 bench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Run it from the repository root. A workload (bench/sessions.py) is a session of
nnscale commands, each a fresh interpreter started after the previous one ends.
The run repeats the session until --seconds have passed and reports medians.

--trace 0  end-to-end figures: set-up time (a fresh interpreter imports
           nnscale.cli and builds the parser, median of several), session wall
           time and peak child RSS. The report adds each command's wall time,
           the slowest command of a session and the failure ratio.
--trace 1  per-layer figures: untraced and traced sessions alternate. A traced
           session runs the same argv in-process through bench/tracer.py, which
           wraps every public nnscale function in a span.

Timings in "cal" units divide a wall time by that of a fixed calibration job
(bench/calibrate.py: plain Python and numpy, no nnscale), run as a fresh
process before and after each session. On a shared two-core host the speed of
the machine drifts by 25% or more over minutes; the calibration drifts with
it, so cal figures stay comparable across runs where raw seconds do not. Raw
seconds are reported beside them.

Every output is checked (bench/checks.py) and fingerprinted: the sha256 of
stdout and of each output file. Fingerprints that differ from the reference
values in bench/fingerprints.json are listed as drift, which is not a failure;
--update-fingerprints stores this run's values as the reference for its seed.
A traced command whose fingerprint differs from the untraced one is a failure.

Stdout ends with one JSON line: correct, attempted, failed, metrics. The lines
before it are the full report, also written to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import sessions
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
FINGERPRINTS = BENCH / "fingerprints.json"
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
COMMAND_TIMEOUT_S = 150
# One BLAS thread: on a two-core machine a second, spinning BLAS thread competes
# with the interpreter's own thread and makes timings noisier.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
INHERITED_THREADS = {k: os.environ.get(k) for k in BLAS_THREADS}
SETUP_SNIPPET = "import nnscale.cli as cli; cli.build_parser()"
STAMP_SNIPPET = """
import json, sys, numpy, nnscale.cli
try:
    import scipy
    scipy_version = scipy.__version__
except ImportError:
    scipy_version = None
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy_version, "blas": blas, "nnscale": nnscale.cli.__file__}))
"""

END_TO_END = {"setup_s": "s", "wall_cal": "cal", "peak_rss_mb": "MB"}
LAYERS = ("cli", "archspec", "costmodel", "topology", "scaler", "tensor", "verify",
          "restructure", "search")
# (traced function, figure) pairs reported as "<function>.<figure>".
FUNCTION_FIGURES = [
    ("archspec.scale_arch", "calls"), ("archspec.scale_arch", "self_s"),
    ("archspec.parse_arch", "self_s"),
    ("costmodel.count_arch", "calls"), ("costmodel.count_arch", "self_s"),
    ("costmodel.count_block", "calls"),
    ("topology.nn_mass", "calls"), ("topology.nn_mass", "self_s"),
    ("scaler.enumerate_candidates", "self_s"), ("scaler.enumerate_candidates", "total_s"),
    ("scaler.pareto_frontier", "self_s"), ("scaler.candidates_to_csv", "self_s"),
    ("scaler.candidates_from_csv", "self_s"),
    ("tensor.singular_values_batch", "calls"), ("tensor.singular_values_batch", "self_s"),
    ("tensor.singular_values_batch", "matrices"),
    ("tensor.conv2d", "calls"), ("tensor.conv2d", "self_s"), ("tensor.conv2d", "macs"),
    ("verify.build_linear_densenet", "self_s"),
    ("verify.count_linear_regions", "calls"), ("verify.count_linear_regions", "self_s"),
    ("verify.count_linear_regions", "points"),
    ("restructure.collapse", "calls"), ("restructure.collapse", "self_s"),
    ("restructure.restructure_arch", "self_s"),
    ("search.backward", "calls"), ("search.backward", "self_s"),
]
FIGURE_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "matrices": "count",
                "points": "count", "macs": "MAC"}
PER_LAYER = {
    "cli.import_s": "s", "cli.import_scipy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{fn}.{figure}": FIGURE_UNITS[figure] for fn, figure in FUNCTION_FIGURES},
    "scaler.candidates": "count", "scaler.valid_ratio": "ratio", "scaler.in_budget": "count",
    "search.epoch_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
}


@dataclass
class Proc:
    """One finished child process."""

    rc: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> Proc:
    """Run argv to completion, timing it from before the fork to the reap, and
    read the child's own peak RSS from wait4."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024,
                out_path.read_bytes(), err_path.read_bytes())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Session:
    traced: bool
    wall_s: float = 0.0
    procs: list[Proc] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    fingerprints: dict[str, dict] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    reference_s: float = 0.0  # calibration time around the session


def run_session(commands: list[sessions.Command], traced: bool, work: Path,
                index: int, env: dict) -> Session:
    """Run the commands one after another in a fresh directory, then check and
    fingerprint what they wrote."""
    directory = work / f"session{index}"
    logs = work / f"logs{index}"
    directory.mkdir()
    logs.mkdir()
    session = Session(traced)
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        if traced:
            prefix = [sys.executable, str(BENCH / "tracer.py"), str(logs / f"{i}.spans"), "--"]
        else:
            prefix = [sys.executable, "-m", "nnscale.cli"]
        session.procs.append(spawn(prefix + cmd.argv, directory, env, logs / str(i)))
    session.wall_s = time.perf_counter() - start

    read = sessions.reader(directory)
    for i, (cmd, proc) in enumerate(zip(commands, session.procs)):
        problems = []
        if proc.rc != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {proc.rc}: {' '.join(tail)}")
        else:
            try:
                problems += cmd.check(proc.stdout.decode(), read)
            except Exception as exc:  # a malformed output is a failed check
                problems.append(f"output could not be checked: {exc!r}")
        session.problems.append(problems)
        files = {}
        for name in cmd.outputs:
            path = directory / name
            files[name] = sha256(path.read_bytes()) if path.exists() else "missing"
        session.fingerprints[cmd.label] = {"stdout": sha256(proc.stdout), "files": files}
        if traced and proc.rc == 0:
            session.traces.append(spans.load(logs / f"{i}.spans"))
    shutil.rmtree(directory)
    shutil.rmtree(logs)
    return session


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def layer_metrics(session: Session) -> dict[str, float]:
    """Per-layer figures of one traced session, summed over its commands."""
    stats, counters = {}, {}
    for record in session.traces:
        spans.merge(stats, spans.function_stats(record))
        spans.merge(counters, record["counters"])
    figures = {fn: {**stats.get(fn, {}), **counters.get(fn, {})} for fn in stats.keys() | counters.keys()}

    def figure(fn: str, key: str) -> float:
        return figures.get(fn, {}).get(key, 0)

    imports = [r["import_s"] for r in session.traces]
    out = {"cli.import_s": statistics.median(imports) if imports else 0.0}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s["self_s"] for fn, s in stats.items()
                                     if fn.startswith(layer + "."))
    for fn, key in FUNCTION_FIGURES:
        out[f"{fn}.{key}"] = figure(fn, key)
    candidates = figure("scaler.enumerate_candidates", "candidates")
    out["scaler.candidates"] = candidates
    out["scaler.valid_ratio"] = (figure("scaler.enumerate_candidates", "valid") / candidates
                                 if candidates else 0.0)
    out["scaler.in_budget"] = figure("scaler.filter_budget", "in_budget")
    epochs = figure("search.train_search", "epochs")
    out["search.epoch_s"] = figure("search.train_search", "total_s") / epochs if epochs else 0.0
    return out


def scipy_import_s(stderr: str) -> float:
    """Seconds spent importing scipy, from -X importtime output: the cumulative
    times of the scipy entries that no other scipy entry encloses. A module's
    line follows those of the modules it imported, which are indented deeper."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    total_us = 0
    for i, (depth, name, cumulative) in enumerate(entries):
        enclosing = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if is_scipy(name) and not is_scipy(enclosing):
            total_us += cumulative
    return total_us / 1e6


def environment(args, env: dict, work: Path) -> dict:
    proc = spawn([sys.executable, "-c", STAMP_SNIPPET], ROOT, env, work / "stamp")
    if proc.rc != 0:
        raise RuntimeError(f"cannot import nnscale: {proc.stderr.decode(errors='replace')}")
    stamp = json.loads(proc.stdout)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    stamp.update({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {"used": BLAS_THREADS, "inherited": INHERITED_THREADS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
    })
    return stamp


def fingerprint_report(workload: str, seed: int, runs: list[Session]) -> dict:
    """Drift against the stored reference, plus any disagreement inside the run:
    between repeated untraced sessions, or between traced and untraced ones."""
    observed = next(s.fingerprints for s in runs if not s.traced)
    unstable = sorted({label for s in runs for label, fp in s.fingerprints.items()
                       if fp != observed[label]})
    reference = {}
    if FINGERPRINTS.exists():
        reference = json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))
    drift = None
    if reference:
        drift = sorted(label for label, fp in observed.items() if reference.get(label) != fp)
    return {"observed": observed, "reference_found": bool(reference), "drift": drift,
            "mismatch_within_run": unstable}


def store_fingerprints(workload: str, seed: int, observed: dict) -> None:
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = observed
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def measure(args, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(BENCH / ".cache" / "pycache"), **BLAS_THREADS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    stamp = environment(args, env, work)  # also fills the bytecode cache
    if not Path(stamp["nnscale"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"nnscale resolved to {stamp['nnscale']}, outside {ROOT / 'src'}")
    commands = sessions.WORKLOADS[args.workload](args.seed)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": stamp,
              "commands": [c.label for c in commands]}

    if args.trace:
        probes = [spawn([sys.executable, "-X", "importtime", "-c", "import nnscale.cli"],
                        ROOT, env, work / "importtime") for _ in range(IMPORTTIME_RUNS)]
        scipy_s = statistics.median(scipy_import_s(p.stderr.decode()) for p in probes)
    else:
        probes = [spawn([sys.executable, "-c", SETUP_SNIPPET], ROOT, env, work / "setup")
                  for _ in range(SETUP_RUNS)]
        report["setup_s"] = quartiles([p.wall_s for p in probes])
    if any(p.rc != 0 for p in probes):
        raise RuntimeError("importing nnscale.cli failed")

    def calibrate() -> float:
        return spawn([sys.executable, str(BENCH / "calibrate.py")], ROOT, env,
                     work / "calibrate").wall_s

    # Untraced runs time the calibration job before the first session and after
    # each one; a session's reference is the mean of the two around it.
    calibrations = [] if args.trace else [calibrate()]
    runs: list[Session] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_session(commands, traced, work, len(runs), env))
        if not args.trace:
            calibrations.append(calibrate())
            runs[-1].reference_s = (calibrations[-2] + calibrations[-1]) / 2
        typical = statistics.median(s.wall_s for s in runs)
        if time.perf_counter() - start + typical / 2 > args.seconds and (
                not args.trace or len(runs) >= 2):
            break
    report["measured_s"] = time.perf_counter() - start

    attempted = sum(len(s.procs) for s in runs)
    failed = sum(1 for s in runs for p in s.problems if p)
    fingerprints = fingerprint_report(args.workload, args.seed, runs)
    report.update({
        "sessions": {"untraced": sum(not s.traced for s in runs),
                     "traced": sum(s.traced for s in runs)},
        "fail_ratio": failed / attempted,
        "problems": sorted({f"{cmd.label}: {msg}" for s in runs
                            for cmd, msgs in zip(commands, s.problems) for msg in msgs}),
        "fingerprints": fingerprints,
    })
    report["correct"] = failed == 0 and not fingerprints["mismatch_within_run"]
    if args.trace:
        report.update(traced_figures(runs, scipy_s))
        metrics = {name: report["per_layer"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        report.update(timed_figures(runs, calibrations, commands))
        metrics = {name: report[name]["median"] for name in END_TO_END}
        units = END_TO_END
    if args.update_fingerprints and report["correct"]:
        store_fingerprints(args.workload, args.seed, fingerprints["observed"])
    report["result"] = {
        "correct": report["correct"], "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return report


def timed_figures(runs: list[Session], calibrations: list[float],
                  commands: list[sessions.Command]) -> dict:
    """Untraced figures. A *_cal figure divides a time by its session's
    calibration reference."""
    per_command: dict[str, list[float]] = {}
    per_command_cal: dict[str, list[float]] = {}
    for s in runs:
        for cmd, proc in zip(commands, s.procs):
            per_command.setdefault(f"{cmd.name}_s", []).append(proc.wall_s)
            per_command_cal.setdefault(f"{cmd.name}_cal", []).append(proc.wall_s / s.reference_s)
    return {
        "samples": {"calibration_s": calibrations, "session_s": [s.wall_s for s in runs],
                    "command_s": [[p.wall_s for p in s.procs] for s in runs]},
        "calibration_s": quartiles(calibrations),
        "wall_s": quartiles([s.wall_s for s in runs]),
        "wall_cal": quartiles([s.wall_s / s.reference_s for s in runs]),
        "slowest_cmd_cal": quartiles([max(p.wall_s for p in s.procs) / s.reference_s
                                      for s in runs]),
        "peak_rss_mb": quartiles([max(p.rss_mb for p in s.procs) for s in runs]),
        "per_command_s": {name: quartiles(v) for name, v in per_command.items()},
        "per_command_cal": {name: quartiles(v) for name, v in per_command_cal.items()},
    }


def traced_figures(runs: list[Session], scipy_s: float) -> dict:
    """Per-layer medians over the traced sessions, with the untraced sessions of
    the same run as the tracing-overhead baseline."""
    traced = [s for s in runs if s.traced]
    plain = [s for s in runs if not s.traced]
    per_session = [layer_metrics(s) for s in traced]
    layers = {name: statistics.median(m[name] for m in per_session) for name in per_session[0]}
    layers["cli.import_scipy_s"] = scipy_s
    layers["trace.wall_s"] = statistics.median(s.wall_s for s in traced)
    layers["trace.untraced_wall_s"] = statistics.median(s.wall_s for s in plain)
    overhead = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    # The scan's traced children should account for enumerate_candidates: what
    # is left as its own time should not exceed what tracing itself costs.
    enum_total = layers["scaler.enumerate_candidates.total_s"]
    enum_self = layers["scaler.enumerate_candidates.self_s"]
    return {"per_layer": layers, "tracing_overhead_s": overhead,
            "enumerate_candidates": {
                "children_share": 1 - enum_self / enum_total if enum_total else None,
                "self_within_tracing_overhead": enum_self <= max(overhead, 0.0),
            }}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(sessions.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--update-fingerprints", action="store_true",
                    help="store this run's fingerprints as the reference for its seed")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nnscale" / "cli.py").is_file():
        sys.stderr.write(f"error: no nnscale sources under {ROOT / 'src'}\n")
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(args, work)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "result"}, indent=1))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
