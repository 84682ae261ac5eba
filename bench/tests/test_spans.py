import sys
import types
from array import array

import spans
import tracer


def record(rows, names):
    """rows: (parent, name_index, start, end) per span, in start order."""
    parent, name, start, end = (array(t, col) for t, col in zip("qldd", zip(*rows)))
    return {"names": names, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_is_parent_minus_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    rows = [(-1, 0, 0.0, 10.0), (0, 1, 1.0, 4.0), (1, 2, 2.0, 3.0), (0, 1, 5.0, 9.0)]
    rec = record(rows, ["root", "child", "leaf"])
    assert spans.self_times(rec["parent"], rec["start"], rec["end"]) == [3.0, 2.0, 1.0, 4.0]
    stats = spans.function_stats(rec)
    assert stats["root"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert stats["child"] == {"calls": 2, "self_s": 6.0, "total_s": 7.0}
    assert stats["leaf"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}


def test_overlapping_children_are_counted_once_and_clipped():
    rows = [(-1, 0, 0.0, 10.0), (0, 1, 1.0, 5.0), (0, 1, 4.0, 6.0), (0, 1, 9.0, 12.0)]
    rec = record(rows, ["root", "child"])
    assert spans.self_times(rec["parent"], rec["start"], rec["end"])[0] == 10.0 - 5.0 - 1.0


def test_recursive_total_counts_the_outer_call_only():
    rows = [(-1, 0, 0.0, 8.0), (0, 0, 1.0, 5.0), (1, 1, 2.0, 3.0)]
    stats = spans.function_stats(record(rows, ["f", "g"]))
    assert stats["f"] == {"calls": 2, "self_s": 7.0, "total_s": 8.0}


def test_merge_adds_per_key():
    total = spans.merge({}, {"f": {"calls": 1, "self_s": 0.5}})
    spans.merge(total, {"f": {"calls": 2, "self_s": 0.25}, "g": {"calls": 1}})
    assert total == {"f": {"calls": 3, "self_s": 0.75}, "g": {"calls": 1}}


def test_wrappers_replace_every_name_a_caller_uses(monkeypatch, tmp_path):
    base = types.ModuleType("toypkg.base")
    exec("def leaf(x):\n    return x + 1\n", base.__dict__)
    user = types.ModuleType("toypkg.user")
    user.leaf = base.leaf  # as `from .base import leaf`
    exec("def outer(x):\n    return leaf(x) * 2\n", user.__dict__)
    pkg = types.ModuleType("toypkg")
    for name, module in (("toypkg", pkg), ("toypkg.base", base), ("toypkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)

    rec = tracer.Recorder()
    rec.install("toypkg")
    assert user.outer(1) == 4
    assert base.leaf is user.leaf
    path = tmp_path / "t.spans"
    rec.dump(str(path), import_s=0.0)
    loaded = spans.load(path)
    names = [loaded["names"][i] for i in loaded["name"]]
    assert names == ["user.outer", "base.leaf"]
    assert list(loaded["parent"]) == [-1, 0]
    stats = spans.function_stats(loaded)
    assert stats["user.outer"]["total_s"] >= stats["base.leaf"]["total_s"]
