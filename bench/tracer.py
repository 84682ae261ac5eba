"""Run one nnscale CLI command in-process with every public nnscale function
wrapped in a timing span, then write the spans to a file.

    python3 bench/tracer.py SPANS_FILE -- <nnscale arguments>

A wrapper replaces each public function under every name a caller looks it up
under: ``nnscale.scaler.nn_mass`` as well as ``nnscale.topology.nn_mass``, since
``scaler`` imports it by name. Spans stay in memory, each with the id of the
span that was open when it started, and are written once the command returns.
Stdout, stderr and the exit code are the command's own, so the output can be
compared byte for byte with an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import marshal
import sys
import time
from array import array


def _conv2d_macs(result, args, kwargs):
    # out [C_out, H', W'] times the (C_in / groups) x k x k taps of each output
    w = args[1] if len(args) > 1 else kwargs["w"]
    _, cig, k, _ = w.kernel.shape
    return {"macs": result.size * cig * k * k}


def _svd_matrices(result, args, kwargs):
    return {"matrices": result.shape[0]}


def _region_points(result, args, kwargs):
    net = args[0] if args else kwargs["net"]
    return {"points": result.grid_resolution ** net.input_dim}


def _candidates(result, args, kwargs):
    return {"candidates": len(result), "valid": sum(1 for c in result if c.valid)}


def _in_budget(result, args, kwargs):
    return {"in_budget": len(result)}


def _epochs(result, args, kwargs):
    return {"epochs": len(result)}


# Work counters recorded at the boundary where the work happens, keyed by the
# span name; each hook maps (result, args, kwargs) to counter increments.
COUNTERS = {
    "tensor.conv2d": _conv2d_macs,
    "tensor.singular_values_batch": _svd_matrices,
    "verify.count_linear_regions": _region_points,
    "scaler.enumerate_candidates": _candidates,
    "scaler.filter_budget": _in_budget,
    "search.train_search": _epochs,
}


# Scalar helpers called ~10^5 times per scan: a span would cost more than the
# work it times, so their time stays in the caller's self time.
UNTRACED = {"archspec.round_half_up", "archspec.int_ceil", "archspec.block_kind"}


class Recorder:
    """Spans in parallel arrays indexed by span id: parent id (-1 for none), name
    index, start and end in perf_counter seconds. Flat arrays keep a hundred
    thousand spans cheap to record and out of the garbage collector's way."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        hook = COUNTERS.get(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(index)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                totals = self.counters.setdefault(name, {})
                for key, value in hook(result, args, kwargs).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self, package: str = "nnscale") -> None:
        """Wrap every public function defined in the package, once per function,
        and rebind it under each module-level name that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package + "."):
                    continue
                name = f"{obj.__module__[len(package) + 1:]}.{obj.__name__}"
                if name in UNTRACED:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(name, obj)
                setattr(module, attr, wrapped[obj])

    def dump(self, path: str, **extra) -> None:
        """marshal keeps the arrays as raw bytes; ``spans.load`` reads them back."""
        record = {"names": self.names, "counters": self.counters, **extra}
        for key in ("parent", "name", "start", "end"):
            record[key] = (getattr(self, key).typecode, getattr(self, key).tobytes())
        with open(path, "wb") as fh:
            marshal.dump(record, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS_FILE -- <nnscale arguments>\n")
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import nnscale.cli
    import_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install()
    code = 1
    try:
        code = nnscale.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors exit here
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path, import_s=import_s, argv=cli_args)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
