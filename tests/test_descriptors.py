"""Property tests at the descriptor boundary: random, partly ill-typed architecture
files never crash the CLI, and every file that validates can be costed at its own
resolution, has non-negative integer costs and round-trips through the JSON format.
Every record (block specs, descriptors, reports) behaves as its dataclass twin."""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

import pytest

import nnscale.archspec as A
import nnscale.costmodel as C
import nnscale.scaler as S
import nnscale.search as search
import nnscale.topology as T
import nnscale.verify as V
from nnscale.cli import main

from conftest import PROFILE, RECORD_TWINS, check_record_contract

# Values that are not descriptor numbers, plus numbers at and past the bounds.
junk = st.sampled_from([
    None, True, False, "3", "a", [], [3], {}, 16.5, -0.5, 0, -3, float("nan"),
    float("inf"), -float("inf"), 1e308, 2**31 + 1, -(2**31) - 1, 10**40,
])
activation = st.one_of(
    st.sampled_from(["none", "relu", "gelu", "hswish"]),
    st.builds(lambda a: {"kind": "prelu", "alpha": a}, st.sampled_from([0.25, -1, 0])),
    st.builds(lambda c: {"kind": "exp_kernel", "clamp": c}, st.sampled_from([10.0, 3])),
)
# Well-typed values by field name, chosen so that most blocks validate.
GOOD = {
    "kernel": st.sampled_from([1, 3, 5, 7]),
    "dw_kernel": st.sampled_from([3, 5, 7]),
    "mid_kernel": st.sampled_from([1, 3]),
    "stride": st.sampled_from([1, 1, 2]),
    "out_channels": st.sampled_from([8, 16, 24]),
    "classes": st.sampled_from([2, 10]),
    "hidden_channels": st.sampled_from([None, 32]),
    "expansion": st.sampled_from([0.25, 0.3, 1, 2.5, 4, 6.0]),
    "nonlinear_fraction": st.sampled_from([0.3, 0.5, 0.6]),
    "residual": st.booleans(),
    "activation": activation,
    "branch_activation": activation,
}
# Ill-typed or out-of-range replacements, and bad activation values.
BAD = st.one_of(junk, st.sampled_from(["swish", {"kind": "prelu"}, {"kind": []}]))


@st.composite
def block_dicts(draw):
    cls = draw(st.sampled_from(list(A._KIND_TO_CLS.values())))
    obj = {"kind": cls.kind}
    for name in A.fields(cls):
        obj[name] = draw(GOOD[name])
    if draw(st.integers(0, 2)) == 0:  # spoil one field: a bad value or a missing one
        name = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            obj[name] = draw(BAD)
        else:
            del obj[name]
    return obj


def _maybe_bad(draw, good):
    return draw(BAD) if draw(st.integers(0, 7)) == 0 else draw(good)


@st.composite
def full_descriptors(draw):
    blocks = draw(st.lists(block_dicts(), min_size=1, max_size=4))
    if draw(st.booleans()):
        blocks.append({"kind": "head", "classes": 10})
    return {
        "name": "p",
        "family": _maybe_bad(draw, st.sampled_from(A.FAMILIES)),
        "input_resolution": _maybe_bad(draw, st.sampled_from([32, 64])),
        "input_channels": _maybe_bad(draw, st.sampled_from([3, 8, 16])),
        "blocks": blocks,
    }


@st.composite
def stage_descriptors(draw):
    n = draw(st.integers(1, 3))
    obj = {
        "name": "s",
        "family": draw(st.sampled_from(A.STAGE_FAMILIES)),
        "input_resolution": _maybe_bad(draw, st.sampled_from([32, 64])),
        "input_channels": 3,
        "stage_widths": [_maybe_bad(draw, st.sampled_from([8, 12, 16, 24]))
                         for _ in range(n)],
        "stage_depths": [_maybe_bad(draw, st.integers(1, 3)) for _ in range(n)],
        "expansion": _maybe_bad(draw, GOOD["expansion"]),
        "dw_kernel": _maybe_bad(draw, GOOD["dw_kernel"]),
    }
    if draw(st.booleans()):
        obj["split"] = {"fraction": _maybe_bad(draw, GOOD["nonlinear_fraction"]),
                        "branch_activation": _maybe_bad(draw, activation)}
    return obj


descriptors = st.one_of(full_descriptors(), full_descriptors(), stage_descriptors())


@settings(**PROFILE)
@given(descriptors)
def test_cost_cli_never_raises(tmp_path_factory, descriptor):
    path = tmp_path_factory.getbasetemp() / "property-arch.json"
    path.write_text(json.dumps(descriptor))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["cost", "--arch", str(path)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ")


# A split that keeps all 2 expanded channels at width 8 (e = 0.25): validation must
# reject it, since costing cannot.
KEEP_ALL_SPLIT = {
    "name": "s", "family": "convnext", "input_resolution": 32, "input_channels": 3,
    "stage_widths": [8], "stage_depths": [1], "expansion": 0.25, "dw_kernel": 3,
    "split": {"fraction": 0.6, "branch_activation": "none"},
}


@settings(**PROFILE)
@given(descriptors)
@example(KEEP_ALL_SPLIT)
def test_valid_descriptors_have_int_costs_and_round_trip(descriptor):
    try:
        arch = A.parse_arch(json.dumps(descriptor))
    except A.ArchError:
        return
    report = C.count_arch(arch)
    for b in report.per_block:
        assert type(b.macs) is int and type(b.params) is int
        assert b.macs >= 0 and b.params > 0
    text = A.serialize_arch(arch)
    assert A.parse_arch(text) == arch
    assert A.serialize_arch(A.parse_arch(text)) == text


def test_every_record_class_has_a_dataclass_twin():
    assert sorted(f"{cls.__module__}.{cls.__name__}" for cls in RECORD_TWINS) == sorted(
        [f"nnscale.archspec.{n}" for n in (
            "Activation", "Shape", "Stem", "RegularConv", "Ibn", "ConvNextBlock",
            "ConvNextSplitBlock", "ResNetBottleneckBlock", "Downsample", "Head",
            "StageFamily", "StageConfig", "ArchDescriptor")]
        + ["nnscale.costmodel.BlockCost", "nnscale.costmodel.CostReport",
           "nnscale.scaler.MultiplierGrid", "nnscale.scaler.Budget",
           "nnscale.scaler.ScaleCandidate", "nnscale.topology.BlockMass",
           "nnscale.topology.MassReport", "nnscale.topology.IsometryBounds",
           "nnscale.restructure.LinearSequence", "nnscale.tensor.ConvWeights",
           "nnscale.search.SearchConfig"]
        + [f"nnscale.verify.{n}" for n in (
            "LinearDensenetConfig", "LinearDensenet", "LdiReport", "ReluNet", "RegionCount")])


def _preset_records(name):
    arch = A.preset(name)
    records = [arch, *arch.blocks, *A.propagate_shapes(arch), C.count_arch(arch)]
    if arch.stages is not None:
        split = A.restage(arch, split_fraction=0.5, split_activation=A.prelu(0.25))
        records += [arch.stages, split, *set(split.blocks), T.nn_mass(arch),
                    *S.enumerate_candidates(arch, S.MultiplierGrid(0.5, 1.0, 2, 1.0, 1.0, 1))]
    return records


@pytest.mark.parametrize("name", A.PRESET_NAMES)
def test_preset_records_match_their_dataclass_twins(name):
    records = _preset_records(name)
    for a, b in zip(records, records[1:] + records[:1]):
        check_record_contract(a, b, changed=list(A.fields(b))[::2])
        check_record_contract(a, a, changed=list(A.fields(a))[1::2])


def test_other_records_match_their_dataclass_twins():
    records = [*A.STAGE_RULES.values(), S.DEFAULT_GRID, S.Budget(target_macs=10**9),
               S.Budget(target_params=10**6, tolerance=0.1), search.SearchConfig(),
               search.SearchConfig(lam=0.0, epochs=3), T.ldi_bounds(0.01, 8.0, 12.0),
               V.LinearDensenetConfig(4, 3, 2, 0.5), V.RegionCount(3, 8, 4), A.NONE, A.GELU,
               A.Stem(2, 2, 16), A.Downsample(2, 2, 16)]  # equal fields, different classes
    for a in records:
        for b in records:
            check_record_contract(a, b, changed=list(A.fields(b))[-1:])


@st.composite
def block_pairs(draw):
    """Two well-typed blocks of one kind and a subset of that kind's fields."""
    cls = draw(st.sampled_from(list(A._KIND_TO_CLS.values())))
    pair = [A._block_from_json({"kind": cls.kind, **{n: draw(GOOD[n]) for n in A.fields(cls)}}, 0)
            for _ in range(2)]
    return (*pair, draw(st.lists(st.sampled_from(list(A.fields(cls))), unique=True)))


@settings(**PROFILE)
@given(block_pairs())
def test_drawn_blocks_match_their_dataclass_twins(pair):
    a, b, changed = pair
    check_record_contract(a, b, changed)
    check_record_contract(b, a, changed)


@pytest.mark.parametrize("cls", sorted(RECORD_TWINS, key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_short_positional_call_is_refused_like_the_twin(cls):
    """A call that leaves out a field without a default raises TypeError naming every
    missing field, as the dataclass twin does; the defaults never fill a gap they do
    not cover."""
    names = list(A.fields(cls))
    required = [n for n in names if not hasattr(cls, n)]
    for given in range(len(required)):
        with pytest.raises(TypeError):
            RECORD_TWINS[cls](*[None] * given)
        missing = ", ".join(required[given:])
        with pytest.raises(TypeError, match=f"^missing field\\(s\\) {missing}$"):
            cls(*[None] * given)
