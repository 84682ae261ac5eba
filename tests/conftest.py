import dataclasses
import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest

import nnscale
import nnscale.tensor as T
from nnscale.archspec import Record, asdict, fields, replace

# Hypothesis settings shared by the property tests: a fixed derivation of examples
# (no example database), no per-example deadline.
PROFILE = dict(derandomize=True, deadline=None, max_examples=150, database=None)


def traced_peak_mb(fn, *args, **kwargs) -> float:
    """Peak traced Python-heap allocation, in MB, while fn runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bn_scale(var, gamma, epsilon=1e-5):
    return gamma / np.sqrt(var + epsilon)


def batch_norm(y, mean, var, gamma, beta, epsilon=1e-5):
    """Inference batch norm of y [C, H, W], one set of statistics per channel."""
    scale = bn_scale(var, gamma, epsilon)
    return (y - mean[:, None, None]) * scale[:, None, None] + beta[:, None, None]


def fold_bn(w, mean, var, gamma, beta, epsilon=1e-5):
    """The conv that equals batch_norm after w: kernel' = kernel * s and
    bias' = (bias - mean) * s + beta, with s = gamma / sqrt(var + epsilon)."""
    scale = bn_scale(var, gamma, epsilon)
    bias = w.bias if w.bias is not None else np.zeros(w.out_channels)
    return T.ConvWeights(kernel=w.kernel * scale[:, None, None, None],
                         bias=(bias - mean) * scale + beta,
                         stride=w.stride, groups=w.groups)


def _dataclass_twin(cls):
    """A frozen dataclass with the record class's name, fields and defaults: the
    reference the record base is checked against."""
    spec = [(n, t, dataclasses.field(default=getattr(cls, n))) if hasattr(cls, n) else (n, t)
            for n, t in fields(cls).items()]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


# Every public record class of every nnscale module -> its dataclass twin.
RECORD_TWINS = {
    obj: _dataclass_twin(obj)
    for module in (importlib.import_module(f"nnscale.{m.name}")
                   for m in pkgutil.iter_modules(nnscale.__path__))
    for name, obj in vars(module).items()
    if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    and obj.__module__ == module.__name__ and not name.startswith("_")
}


def twin(value):
    """value with each record in it, in its fields and in lists, tuples and dicts
    replaced by an instance of its dataclass twin."""
    if isinstance(value, Record):
        return RECORD_TWINS[type(value)](**{n: twin(getattr(value, n)) for n in fields(value)})
    if isinstance(value, dict):
        return {k: twin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(twin, value))
    return value


def check_record_contract(a, b, changed=()):
    """Records a and b agree with their dataclass twins on ==, hash, repr, asdict and
    replace (a with the `changed` fields taken from b, when both share a class), and
    refuse field assignment and deletion as the twins do."""
    ta, tb = twin(a), twin(b)
    assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
    assert hash(a) == hash(ta)
    assert repr(a) == repr(ta)
    assert asdict(a) == dataclasses.asdict(ta)
    if type(a) is type(b):
        changes = {n: getattr(b, n) for n in changed}
        assert twin(replace(a, **changes)) == dataclasses.replace(ta, **twin(changes))
    for name in fields(a):
        for record in (a, ta):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
