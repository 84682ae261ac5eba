import json

import pytest

import nnscale.archspec as A


def test_preset_convnext_t_config():
    arch = A.preset("convnext-t")
    assert arch.stages.widths == (96, 192, 384, 768)
    assert arch.stages.depths == (3, 3, 9, 3)
    assert arch.family == "convnext"
    assert arch.input_resolution == 224


def test_preset_ran_i_configs():
    t = A.preset("ran-i-t")
    assert t.stages.widths == (64, 128, 256, 511)
    assert t.stages.depths == (5, 5, 15, 5)
    b = A.preset("ran-i-b")
    assert b.stages.widths == (87, 175, 350, 699)
    assert b.stages.depths == (7, 7, 21, 7)


def test_preset_convnext_b_config():
    arch = A.preset("convnext-b")
    assert arch.stages.widths == (128, 256, 512, 1024)
    assert arch.stages.depths == (3, 3, 27, 3)


def test_preset_supernet_structure():
    arch = A.preset("ran-e-supernet")
    # stem + 17 inverted bottlenecks + head
    assert len(arch.blocks) == 19
    assert isinstance(arch.blocks[0], A.Stem)
    assert isinstance(arch.blocks[-1], A.Head)
    ibns = [b for b in arch.blocks if isinstance(b, A.Ibn)]
    assert len(ibns) == 17
    # table stage 4 row: e=6, stride 2, 64 channels
    stage4 = arch.blocks[3]
    assert (stage4.expansion, stage4.stride, stage4.out_channels) == (6, 2, 64)
    head = arch.blocks[-1]
    assert head.hidden_channels == 1344 and head.dw_kernel == 7 and head.classes == 1000


def test_unknown_preset():
    with pytest.raises(A.ArchError):
        A.preset("resnet-18")


def test_roundtrip_all_presets():
    for name in A.PRESET_NAMES:
        arch = A.preset(name)
        again = A.parse_arch(A.serialize_arch(arch))
        assert again == arch, name


def test_serialize_deterministic():
    a = A.serialize_arch(A.preset("ran-i-s"))
    b = A.serialize_arch(A.preset("ran-i-s"))
    assert a == b


def test_serialize_preserves_exp_kernel_clamp():
    arch = A.ArchDescriptor(
        name="toy",
        family="generic",
        input_resolution=32,
        input_channels=3,
        blocks=(
            A.Stem(kernel=3, stride=2, out_channels=8),
            A.RegularConv(kernel=3, stride=1, out_channels=8, activation=A.exp_kernel(10.0)),
            A.Head(classes=10),
        ),
    )
    text = A.serialize_arch(arch)
    assert '"clamp": 10.0' in text
    assert A.parse_arch(text) == arch


def test_parse_rejects_empty_blocks():
    text = json.dumps({
        "name": "x", "family": "generic", "input_resolution": 32,
        "input_channels": 3, "blocks": [],
    })
    with pytest.raises(A.ArchError, match="non-empty"):
        A.parse_arch(text)


def test_parse_rejects_residual_with_stride():
    text = json.dumps({
        "name": "x", "family": "generic", "input_resolution": 32, "input_channels": 3,
        "blocks": [
            {"kind": "stem", "kernel": 3, "stride": 2, "out_channels": 8},
            {"kind": "ibn", "expansion": 6, "dw_kernel": 3, "stride": 2,
             "out_channels": 8, "residual": True},
        ],
    })
    with pytest.raises(A.ArchError, match="residual"):
        A.parse_arch(text)


def test_parse_rejects_unknown_fields():
    text = json.dumps({
        "name": "x", "family": "generic", "input_resolution": 32, "input_channels": 3,
        "blocks": [{"kind": "stem", "kernel": 3, "stride": 2, "out_channels": 8,
                    "padding": "same"}],
    })
    with pytest.raises(A.ArchError, match="unknown field"):
        A.parse_arch(text)


def test_parse_rejects_unknown_kind():
    text = json.dumps({
        "name": "x", "family": "generic", "input_resolution": 32, "input_channels": 3,
        "blocks": [{"kind": "attention"}],
    })
    with pytest.raises(A.ArchError, match="unknown block kind"):
        A.parse_arch(text)


def test_parse_reports_syntax_position():
    with pytest.raises(A.ArchError, match=r"line \d+ column \d+"):
        A.parse_arch("{ not json")


def test_stage_shorthand_parses():
    text = json.dumps({
        "name": "mini", "family": "convnext", "input_resolution": 64,
        "input_channels": 3, "stage_widths": [16, 32], "stage_depths": [2, 2],
        "expansion": 4, "dw_kernel": 7,
    })
    arch = A.parse_arch(text)
    assert arch.stages.widths == (16, 32)
    assert sum(isinstance(b, A.ConvNextBlock) for b in arch.blocks) == 4


def test_scale_arch_reproduces_published_configs():
    base = A.preset("convnext-t")
    # widths are never snapped to a divisor: 768 x 0.666 gives 511
    assert A.scale_arch(base, 0.666, 1.65).stages.widths[-1] == 511
    for (w_m, d_m), widths, depths in [
        ((0.666, 1.65), (64, 128, 256, 511), (5, 5, 15, 5)),
        ((0.789, 1.65), (76, 151, 303, 606), (5, 5, 15, 5)),
        ((0.9105, 2.30), (87, 175, 350, 699), (7, 7, 21, 7)),
    ]:
        scaled = A.scale_arch(base, w_m, d_m)
        assert scaled.stages.widths == widths
        assert scaled.stages.depths == depths


def test_scale_arch_identity():
    base = A.preset("convnext-t")
    assert A.scale_arch(base, 1.0, 1.0) == base


def test_scale_arch_width_monotonicity():
    base = A.preset("convnext-t")
    prev = None
    for w_m in (0.3, 0.5, 0.77, 1.0, 1.31, 1.6):
        widths = A.scale_arch(base, w_m, 1.0).stages.widths
        if prev is not None:
            assert all(b >= a for a, b in zip(prev, widths))
        prev = widths


def test_scale_arch_degenerate_width():
    with pytest.raises(A.ArchError, match="degenerate width"):
        A.scale_arch(A.preset("convnext-t"), 0.05, 1.0)


def test_scale_arch_rejects_flat_families():
    with pytest.raises(A.ArchError, match="stage-structured"):
        A.scale_arch(A.preset("ran-e-supernet"), 1.2, 1.0)


def test_round_half_up_matches_published_rounding():
    assert A.round_half_up(96 * 0.666) == 64
    assert A.round_half_up(768 * 0.666) == 511
    assert A.round_half_up(9 * 1.65) == 15
    assert A.round_half_up(2.5) == 3


def test_validate_head_must_be_last():
    arch = A.ArchDescriptor(
        name="x", family="generic", input_resolution=32, input_channels=3,
        blocks=(A.Head(classes=10), A.Stem(kernel=3, stride=2, out_channels=8)),
    )
    with pytest.raises(A.ArchError, match="final block"):
        A.validate_arch(arch)


def test_validate_resolution_divisibility():
    arch = A.ArchDescriptor(
        name="x", family="generic", input_resolution=30, input_channels=3,
        blocks=(A.Stem(kernel=3, stride=4, out_channels=8),),
    )
    with pytest.raises(A.ArchError, match="divisible"):
        A.validate_arch(arch)


def test_total_stage_depth_bound():
    arch = A.convnext_arch("x", (16, 32), (4095, 1), resolution=32)
    assert sum(arch.stages.depths) == A.MAX_TOTAL_DEPTH
    with pytest.raises(A.ArchError, match="total stage depth 4097 exceeds 4096"):
        A.convnext_arch("x", (16, 32), (4096, 1), resolution=32)
