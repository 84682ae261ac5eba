"""Reading span files written by tracer.py and reducing them to per-layer figures.

A span's self time is its duration minus the part of that interval its child
spans cover. A layer is an nnscale module; its self time is the sum over the
spans of its functions.
"""

from __future__ import annotations

import marshal
from array import array
from collections import defaultdict


def load(path) -> dict:
    with open(path, "rb") as fh:
        record = marshal.load(fh)
    for key in ("parent", "name", "start", "end"):
        typecode, raw = record[key]
        record[key] = array(typecode, raw)
    return record


def self_times(parent, start, end) -> list[float]:
    """Per span: end - start minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for sid, pid in enumerate(parent):
        if pid >= 0:
            children[pid].append(sid)
    out = []
    for sid in range(len(parent)):
        lo, hi = start[sid], end[sid]
        covered, cursor = 0.0, lo
        for cid in sorted(children.get(sid, ()), key=start.__getitem__):
            a, b = max(start[cid], cursor), min(end[cid], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append(hi - lo - covered)
    return out


def function_stats(record: dict) -> dict[str, dict[str, float]]:
    """calls, self_s and total_s per traced function name. total_s counts a span
    only when no enclosing span has the same name, so recursion is not doubled."""
    parent, name, start, end = record["parent"], record["name"], record["start"], record["end"]
    own = self_times(parent, start, end)
    stats = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in record["names"]}
    for sid, index in enumerate(name):
        s = stats[record["names"][index]]
        s["calls"] += 1
        s["self_s"] += own[sid]
        pid = parent[sid]
        while pid >= 0 and name[pid] != index:
            pid = parent[pid]
        if pid < 0:
            s["total_s"] += end[sid] - start[sid]
    return stats


def merge(into: dict, stats: dict) -> dict:
    """Add one command's function_stats (or counters) into a session total."""
    for fn, values in stats.items():
        slot = into.setdefault(fn, {})
        for key, value in values.items():
            slot[key] = slot.get(key, 0) + value
    return into
