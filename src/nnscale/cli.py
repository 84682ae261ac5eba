"""Command-line front end: validation, cost and mass summaries, scaling scans,
Pareto frontiers, collapse verification, restructuring, the toy non-linearity
search, and the theory harnesses.

Exit codes: 0 success, 1 domain error, 2 usage error, 130 interrupted (Ctrl-C). File outputs are written
to a temp file and renamed so partial files never appear. Every report is
rendered here, by _json and _csv; only the scan CSV, which report reads back,
has its writer beside its reader in scaler.

Only collapse-verify, afrb-search, ldi and regions need numpy. They import the
modules that use it (restructure, search, verify) when they run, so the
descriptor commands start without loading numpy.

Start-up builds and loads only what the command uses. A subcommand's parser adds
its arguments when that command runs or shows its help. json loads to read an
--arch file or to write JSON (--format json, mass --out, restructure --out, and the
collapse-verify, afrb-search, ldi and regions reports); csv loads to write or read
CSV (cost --per-block or --out, scale and pareto in CSV, afrb-search, report). The
process ends as soon as its outputs are flushed: `nnscale` and `python -m nnscale.cli`
go through run, which runs the atexit handlers, flushes stdout and stderr and calls
os._exit, skipping interpreter teardown; main returns to an in-process caller.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import archspec, costmodel, scaler, topology
from .archspec import NONE, GELU, NnscaleError, asdict, exp_kernel, replace

DOMAIN_ERRORS = (NnscaleError, OSError, UnicodeDecodeError)


def _stdout():
    """sys.stdout, or, when fd 1 is closed, an OSError naming <stdout>."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    return sys.stdout


def _to_null(stream) -> None:
    """Point stream's file descriptor at the null device, so the flush at exit does not
    fail a second time."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _write(text: str) -> None:
    """Write text to stdout: every encoded byte through sys.stdout.buffer (a raw
    FileIO when Python runs unbuffered, which may write short), then flushed. A
    closed stdout, or a failed write (a reader that has gone, a full device), is an
    OSError naming <stdout>; fd 1 then points at the null device."""
    out = _stdout()
    if not hasattr(out, "buffer"):  # a text-only stream, such as redirect_stdout's StringIO
        out.write(text)
        return
    data = memoryview(text.encode(out.encoding, out.errors))
    try:
        while data:
            data = data[out.buffer.write(data):]
        out.buffer.flush()
    except OSError as exc:
        _to_null(out)
        raise OSError(exc.errno, exc.strerror, "<stdout>") from None


def _note(line: str) -> None:
    """Write one line to stderr, best effort: nothing when stderr is closed, and a
    failed write points fd 2 at the null device. The exit code stays the command's."""
    err = sys.stderr
    if err is None:
        return
    try:
        err.write(line + "\n")
        err.flush()
    except OSError:
        _to_null(err)


def _emit(text: str, out: str | None) -> None:
    """Write text to stdout, or to `out` through a renamed temp file that gets the
    mode open() gives a new file. A failed write names `out`, not the temp file."""
    if out is None:
        _write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nnscale-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, out)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _float_fraction(value):
    if isinstance(value, Fraction):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json(obj) -> str:
    """The one JSON rendering: records become field dicts, Fractions floats. JSON has
    no NaN or infinity, so a report holding one is a domain error."""
    import json
    try:
        text = json.dumps(asdict(obj), sort_keys=True, indent=2, default=_float_fraction,
                          allow_nan=False)
    except ValueError as exc:
        raise NnscaleError(f"cannot write JSON: {exc}") from None
    return text + "\n"


def _csv(header, rows) -> str:
    import csv
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _load_arch(args) -> archspec.ArchDescriptor:
    """The preset or file descriptor; a --resolution replaces its input_resolution
    and is checked like one read from a file."""
    if args.preset:
        arch = archspec.preset(args.preset)
    else:
        with open(args.arch, "r", encoding="utf-8") as fh:
            arch = archspec.parse_arch(fh.read())
    if getattr(args, "resolution", None) is not None:
        arch = replace(arch, input_resolution=args.resolution)
        archspec.validate_arch(arch)
    return arch


def _add_arch_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=archspec.PRESET_NAMES, help="built-in architecture")
    g.add_argument("--arch", help="architecture JSON file")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    g = scaler.DEFAULT_GRID
    p.add_argument("--wmin", type=_finite_float, default=g.w_min)
    p.add_argument("--wmax", type=_finite_float, default=g.w_max)
    p.add_argument("--wsteps", type=int, default=g.w_steps)
    p.add_argument("--dmin", type=_finite_float, default=g.d_min)
    p.add_argument("--dmax", type=_finite_float, default=g.d_max)
    p.add_argument("--dsteps", type=int, default=g.d_steps)


def _grid_from(args) -> scaler.MultiplierGrid:
    return scaler.MultiplierGrid(args.wmin, args.wmax, args.wsteps,
                                 args.dmin, args.dmax, args.dsteps)


def _arg_type(parse, ok, expected: str):
    """argparse type: parse(text) must not raise ValueError and ok(value) must hold,
    else a usage error saying what was expected."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


def _pair(text: str) -> tuple:
    macs, params = text.split(":")
    return float(macs), float(params)


_int_list = _arg_type(lambda t: [int(v) for v in t.split(",")], bool,
                      "a comma list of integers")
_positive_int = _arg_type(int, lambda v: v >= 1, "a positive integer")
# derived generator keys (seed * 100003 + trial) must fit 64 bits
_seed = _arg_type(int, lambda v: abs(v) < 2**31, "an integer seed within +-2**31")
# float() gives inf for overflowing literals such as 1e400
_finite_float = _arg_type(float, math.isfinite, "a finite number")
_budget_spec = _arg_type(_pair, lambda b: all(map(math.isfinite, b)),
                         "MACS:PARAMS with two finite numbers")


def _human(v: float) -> str:
    for unit, div in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if v >= div:
            return f"{v / div:.2f}{unit}"
    return str(int(v))


def _cmd_arch_validate(args) -> int:
    arch = _load_arch(args)
    shapes = archspec.propagate_shapes(arch)
    _write(f"{arch.name}: family={arch.family} blocks={len(arch.blocks)} "
           f"resolution={arch.input_resolution} "
           f"channels={shapes[0].channels}->{shapes[-1].channels}\n")
    return 0


def _cmd_cost(args) -> int:
    arch = _load_arch(args)
    report = costmodel.count_arch(arch)
    summary = (f"{arch.name}@{arch.input_resolution}: params={_human(report.total_params)} "
               f"macs={_human(report.total_macs)}\n")
    if args.out is None:
        _write(summary)
    if args.format == "json":
        _emit(_json(report), args.out)
    elif args.out is not None or args.per_block:
        rows = ([b.block_index, b.kind, b.in_shape.channels, b.in_shape.height,
                 b.in_shape.width, b.macs, b.params] for b in report.per_block)
        _emit(_csv(["block_index", "kind", "in_c", "in_h", "in_w", "macs", "params"], rows),
              args.out)
    return 0


def _cmd_mass(args) -> int:
    arch = _load_arch(args)
    report = topology.nn_mass(arch)
    line = (f"{arch.name}: m={report.mass:g} X={report.nonlinear_units} "
            f"k={float(report.k):g} k_hat={report.avg_degree:.2f}\n")
    _write(line)
    if args.out is not None or args.format == "json":
        _emit(_json(report), args.out)
    return 0


def _scan(args):
    scaler.check_tolerance(args.tol)
    base = _load_arch(args)
    grid = _grid_from(args)
    cands = scaler.enumerate_candidates(base, grid)
    in_budget = []
    selected = None
    if args.budget_macs is not None or args.budget_params is not None:
        budget = scaler.Budget(
            target_macs=int(args.budget_macs) if args.budget_macs is not None else None,
            target_params=int(args.budget_params) if args.budget_params is not None else None,
            tolerance=args.tol,
        )
        in_budget = scaler.filter_budget(cands, budget)
        if in_budget:
            selected = scaler.select_max_mass(in_budget)
    return cands, in_budget, selected


def _emit_candidates(args, cands, in_budget, selected) -> None:
    if args.format == "csv":
        _emit(scaler.candidates_to_csv(cands, in_budget, selected), args.out)
        return
    budget_ids = {id(c) for c in in_budget}
    _emit(_json([dict(asdict(c), in_budget=id(c) in budget_ids, selected=c is selected)
                 for c in cands]), args.out)


def _selected_line(c: scaler.ScaleCandidate) -> str:
    return (f"selected w_m={c.w_m:g} d_m={c.d_m:g} "
            f"widths={list(c.widths)} depths={list(c.depths)} "
            f"macs={_human(c.macs)} params={_human(c.params)} mass={c.mass:g}")


def _cmd_scale(args) -> int:
    cands, in_budget, selected = _scan(args)
    _emit_candidates(args, cands, in_budget, selected)
    if selected is not None:
        _note(_selected_line(selected))
    return 0


def _cmd_pareto(args) -> int:
    cands, in_budget, selected = _scan(args)
    _emit_candidates(args, scaler.pareto_frontier(cands, args.cost_axis), in_budget, selected)
    return 0


def _cmd_collapse_verify(args) -> int:
    from . import restructure
    out = restructure.collapse_verify(args.trials, args.seed, args.size, args.biased)
    _emit(_json(out), args.out)
    return 0 if out["all_pass"] else 1


def _cmd_restructure(args) -> int:
    arch = _load_arch(args)
    act = {"none": NONE, "gelu": GELU, "exp": exp_kernel()}[args.activation]
    new = archspec.restage(arch, split_fraction=args.fraction, split_activation=act)
    report = costmodel.count_arch(new)
    _write(
        f"{new.name} split(keep={args.fraction:g}, psi={args.activation}): "
        f"params={_human(report.total_params)} macs={_human(report.total_macs)}\n"
    )
    if args.out:
        _emit(archspec.serialize_arch(new), args.out)
    return 0


def _cmd_afrb_search(args) -> int:
    from . import restructure, search
    variants = args.variants.split(",")
    dims = [2] + [args.width] * len(variants)
    model = search.make_model(dims, variants, seed=args.seed)
    data = search.make_dataset(args.dataset, args.samples, args.noise, seed=args.seed + 1)
    cfg = search.SearchConfig(lam=args.lam, lr=args.lr, epochs=args.epochs,
                              batch=args.batch, seed=args.seed)
    trace = search.train_search(model, data, cfg)
    header = ["epoch", "loss", "acc", "reg"] + [f"alpha_{i}" for i in range(len(model.blocks))]
    rows = ([i] + [repr(v) for v in (trace.loss[i], trace.accuracy[i], trace.regularizer[i],
                                     *trace.alphas[i])] for i in range(len(trace)))
    _emit(_csv(header, rows), args.out)
    decisions = [restructure.afrb_decide(a) for a in model.alphas]
    summary = {
        "alphas": model.alphas,
        "decisions": decisions,
        "collapsed": sum(d == "collapse" for d in decisions),
        "final_accuracy": trace.accuracy[-1] if len(trace) else None,
        "nonlinear_units_left": search.nonlinearity_count(model),
    }
    _write(_json(summary))
    return 0


def _cmd_ldi(args) -> int:
    if args.out is None:
        _stdout()  # a closed stdout fails before the trials run
    from . import verify
    cfg = verify.LinearDensenetConfig(
        width=args.width, depth=args.depth, skip_channels=args.skips,
        q=args.q, seed=args.seed)
    report = verify.ldi_report(cfg, args.trials)
    _emit(_json(report), args.out)
    return 0


def _cmd_regions(args) -> int:
    if args.out is None:
        _stdout()  # a closed stdout fails before the trials run
    from . import verify
    trend = verify.montufar_trend(
        args.n, args.n0, args.layers, args.trials,
        grid=args.grid, box_radius=args.radius, seed=args.seed)
    _emit(_json(trend), args.out)
    return 0


def _parse_budgets(specs, tol: float):
    budgets = []
    seen = set()
    for macs, params in specs:
        if (macs, params) in seen:
            _note(f"warning: duplicate budget {macs:g}:{params:g} ignored")
            continue
        seen.add((macs, params))
        budgets.append(scaler.Budget(
            target_macs=int(macs), target_params=int(params), tolerance=tol))
    return budgets


def _cmd_report(args) -> int:
    scaler.check_tolerance(args.tol)
    with open(args.scan, "r", encoding="utf-8") as fh:
        cands = scaler.candidates_from_csv(fh.read())
    budgets = _parse_budgets(args.budget, args.tol)
    lines = [f"scan: {args.scan} candidates={len(cands)} "
             f"valid={sum(c.valid for c in cands)}"]
    for b in budgets:
        matches = scaler.filter_budget(cands, b)
        lines.append(f"budget macs={_human(b.target_macs)} "
                     f"params={_human(b.target_params)} tol={b.tolerance:g}: "
                     f"{len(matches)} candidates")
        if not matches:
            lines.append("  no candidates")
            continue
        lines.append("  " + _selected_line(scaler.select_max_mass(matches)))
    _write("\n".join(lines) + "\n")
    if args.frontier_out:
        rows = ([c.macs, repr(c.mass)] for c in scaler.pareto_frontier(cands, "macs"))
        _emit(_csv(["macs", "mass"], rows), args.frontier_out)
    return 0


RESOLUTION_HELP = "input resolution to cost at (default: the descriptor's input_resolution)"


def _cost_args(p: argparse.ArgumentParser) -> None:
    _add_arch_flags(p)
    p.add_argument("--resolution", type=int, help=RESOLUTION_HELP)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--per-block", action="store_true")
    p.add_argument("--out")


def _mass_args(p: argparse.ArgumentParser) -> None:
    _add_arch_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")


def _scale_args(p: argparse.ArgumentParser) -> None:
    _add_arch_flags(p)
    _add_grid_flags(p)
    p.add_argument("--resolution", type=int, help=RESOLUTION_HELP)
    p.add_argument("--budget-macs", type=_finite_float)
    p.add_argument("--budget-params", type=_finite_float)
    p.add_argument("--tol", type=_finite_float, default=0.025)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")


def _pareto_args(p: argparse.ArgumentParser) -> None:
    _scale_args(p)
    p.add_argument("--cost-axis", choices=["macs", "params"], default="macs")


def _collapse_verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--size", type=_positive_int, default=12)
    p.add_argument("--biased", action="store_true")
    p.add_argument("--out")


def _restructure_args(p: argparse.ArgumentParser) -> None:
    _add_arch_flags(p)
    p.add_argument("--fraction", type=_finite_float, default=0.6,
                   help="fraction of expanded channels kept non-linear")
    p.add_argument("--activation", choices=["none", "gelu", "exp"], default="none")
    p.add_argument("--resolution", type=int, help=RESOLUTION_HELP)
    p.add_argument("--out", help="write the restructured architecture file here")


def _afrb_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=["blobs", "moons", "xor"], default="blobs")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--noise", type=_finite_float, default=0.4)
    p.add_argument("--variants", default="a1,a1,a1", help="comma list of a1/a2/a3")
    p.add_argument("--width", type=_positive_int, default=8)
    p.add_argument("--lam", type=_finite_float, default=1e-3)
    p.add_argument("--lr", type=_finite_float, default=0.2)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")


def _ldi_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--depth", type=int, default=16)
    p.add_argument("--skips", type=int, default=32)
    p.add_argument("--q", type=_finite_float, default=1.0 / 64.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")


def _regions_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--n0", type=_positive_int, default=2)
    p.add_argument("--layers", type=_int_list, default="2,3,4", help="comma list of depths")
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--grid", type=_positive_int, default=256)
    p.add_argument("--radius", type=_finite_float, default=2.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scan", required=True, help="CSV produced by the scale command")
    p.add_argument("--budget", type=_budget_spec, action="append", default=[],
                   help="MACS:PARAMS, repeatable")
    p.add_argument("--tol", type=_finite_float, default=0.025)
    p.add_argument("--frontier-out")


# name, help line, the function that adds the command's arguments, the command
COMMANDS = [
    ("arch-validate", "validate an architecture file or preset", _add_arch_flags,
     _cmd_arch_validate),
    ("cost", "MAC/parameter report", _cost_args, _cmd_cost),
    ("mass", "NN-Mass summary", _mass_args, _cmd_mass),
    ("scale", "scale over a multiplier grid", _scale_args, _cmd_scale),
    ("pareto", "pareto over a multiplier grid", _pareto_args, _cmd_pareto),
    ("collapse-verify", "two-path collapse equivalence trials", _collapse_verify_args,
     _cmd_collapse_verify),
    ("restructure", "split every ConvNext block MLP", _restructure_args, _cmd_restructure),
    ("afrb-search", "toy non-linearity search on 2-D data", _afrb_search_args,
     _cmd_afrb_search),
    ("ldi", "layerwise isometry Monte-Carlo report", _ldi_args, _cmd_ldi),
    ("regions", "linear-region counting trend report", _regions_args, _cmd_regions),
    ("report", "budget sections + frontier data from a scan CSV", _report_args, _cmd_report),
]


class _Command(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments the first time it parses or
    formats its help or usage, so a run builds only the command it invokes (each
    add_argument builds a help formatter, which asks for the terminal size)."""

    def __init__(self, *args, setup, **kwargs):
        super().__init__(*args, **kwargs)
        self._setup = setup

    def _set_up(self) -> None:
        if self._setup is not None:
            setup, self._setup = self._setup, None
            setup(self)

    def parse_known_args(self, args=None, namespace=None):
        self._set_up()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self._set_up()
        return super().format_usage()

    def format_help(self) -> str:
        self._set_up()
        return super().format_help()


# parse_args adds a command's arguments on its first use and otherwise leaves a parser
# as it was, so main reuses one
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # --help shows the module docstring up to its last paragraph, on what loads when
    ap = argparse.ArgumentParser(prog="nnscale", description=__doc__.rsplit("\n\n", 1)[0])
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, help_line, setup, fn in COMMANDS:
        sub.add_parser(name, help=help_line, setup=setup).set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except DOMAIN_ERRORS as exc:
        _note(f"error: {exc}")
        return 1
    except KeyboardInterrupt:
        _note("error: interrupted")
        return 130


def run() -> None:
    """The `nnscale` program: run main, then end the process with os._exit once its
    outputs are flushed, which skips interpreter teardown (clearing every module and
    freeing every object, which writes nothing). That is safe because:

    - every --out file is closed and renamed before main returns (_emit);
    - _write flushes every write to stdout;
    - nnscale starts no thread;
    - the registered atexit handlers still run here: numpy registers none, but a site
      .pth file may.

    A stdout that fails to flush is an error naming <stdout> and exit 1, as in _write;
    the stderr flush is best effort, as in _note. A SystemExit from argparse (--help, a
    usage error) leaves the normal way."""
    import atexit
    code = main()
    atexit._run_exitfuncs()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            _note(f"error: {OSError(exc.errno, exc.strerror, '<stdout>')}")
            code = code or 1
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
