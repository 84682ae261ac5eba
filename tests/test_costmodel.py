from fractions import Fraction

import pytest

import nnscale.archspec as A
import nnscale.costmodel as C
from nnscale.cli import main


def rel_err(value, target):
    return abs(value - target) / target


# Table-stage to block-index mapping for the supernet preset: the duplicated
# 80-channel row sits at block 7, so stages 2..7 land on blocks 1..6 and
# stages 8..17 on blocks 8..17.
SUPERNET_STAGE_BLOCK = {s: s - 1 for s in range(2, 8)} | {s: s for s in range(8, 18)}


def test_supernet_shape_column():
    arch = A.preset("ran-e-supernet")
    shapes = C.propagate_shapes(arch)
    expected = {
        2: 112, 3: 112, 4: 56, 5: 28, 6: 28, 7: 14, 8: 14, 9: 14,
        10: 14, 11: 14, 12: 14, 13: 7, 14: 7, 15: 7, 16: 7, 17: 7,
    }
    for stage, side in expected.items():
        s = shapes[SUPERNET_STAGE_BLOCK[stage]]
        assert (s.height, s.width) == (side, side), f"stage {stage}"
    assert (shapes[0].height, shapes[0].width) == (224, 224)


def test_convnext_stage_resolutions():
    arch = A.preset("convnext-t")
    shapes = C.propagate_shapes(arch)
    sides = sorted({s.height for s, b in zip(shapes, arch.blocks)
                    if isinstance(b, A.ConvNextBlock)}, reverse=True)
    assert sides == [56, 28, 14, 7]


def test_stride1_conv_keeps_spatial():
    block = A.RegularConv(kernel=3, stride=1, out_channels=5)
    report = C.count_arch(A.ArchDescriptor("x", "generic", 20, 4, (block,)))
    out = report.per_block[0].out_shape
    assert (out.height, out.width) == (20, 20)


def test_non_integral_stride_errors():
    arch = A.ArchDescriptor(
        "x", "generic", 225, 3, (A.Stem(kernel=4, stride=4, out_channels=8),))
    with pytest.raises(C.CostError, match="not divisible"):
        C.propagate_shapes(arch)


def test_convnext_stem_macs_exact():
    macs, _ = A.Stem(kernel=4, stride=4, out_channels=96).cost(C.Shape(3, 224, 224))
    assert macs == 56 * 56 * 4 * 4 * 3 * 96 == 14_450_688


def test_ibn_pointwise_approximation():
    assert C.ibn_pointwise_macs(64, 6, 14, 14) == 12 * 64 * 64 * 196 == 9_633_792


def test_minimal_regular_conv():
    macs, params = A.RegularConv(kernel=1, stride=1, out_channels=1).cost(C.Shape(1, 1, 1))
    assert macs == 1


@pytest.mark.parametrize("name,params_t,macs_t,ptol,mtol", [
    ("convnext-t", 28.6e6, 4.47e9, 0.01, 0.02),
    ("ran-i-t", 20.76e6, 3.3e9, 0.01, 0.02),
    ("ran-i-s", 28.93e6, 4.59e9, 0.01, 0.02),
    ("ran-i-b", 52.89e6, 8.45e9, 0.01, 0.02),
    ("ran-e-supernet", 4.7e6, 590e6, 0.03, 0.03),
])
def test_cost_oracles(name, params_t, macs_t, ptol, mtol):
    report = C.count_arch(A.preset(name))
    assert rel_err(report.total_params, params_t) <= ptol
    assert rel_err(report.total_macs, macs_t) <= mtol


def test_totals_equal_block_sums():
    for name in ("convnext-t", "ran-e-supernet"):
        report = C.count_arch(A.preset(name))
        assert report.total_macs == sum(b.macs for b in report.per_block)
        assert report.total_params == sum(b.params for b in report.per_block)


def test_pointwise_macs_quadratic_in_width():
    # integer width multipliers avoid rounding, so 1x1 MACs scale exactly as c^2
    base = C.ibn_pointwise_macs(24, 6, 14, 14)
    for c in (2, 3, 4):
        assert C.ibn_pointwise_macs(24 * c, 6, 14, 14) == base * c * c


def test_ibn_to_conv_saving_exactly_25_percent():
    n, h, w = 80, 14, 14
    ibn = C.ibn_pointwise_macs(n, 6, h, w)
    conv, _ = A.RegularConv(kernel=3, stride=1, out_channels=n).cost(C.Shape(n, h, w))
    assert Fraction(ibn - conv, ibn) == Fraction(1, 4)


def test_ibn_equivalent_width_examples():
    assert C.ibn_equivalent_width(64, 6) == 74
    assert C.ibn_equivalent_width(96, 6) == 111
    assert C.ibn_equivalent_width(1, 6) == 1
    m = C.ibn_equivalent_width(64, 6)
    assert abs(9 * m * m - 12 * 64 * 64) / (12 * 64 * 64) <= 0.005


def test_ibn_equivalent_width_rejects_bad_e():
    with pytest.raises(C.CostError):
        C.ibn_equivalent_width(64, 0)


def test_split_block_channels_and_cost():
    block = A.ConvNextSplitBlock(expansion=4, dw_kernel=7, nonlinear_fraction=0.6)
    macs, params = block.cost(C.Shape(96, 56, 56))
    kept = 231  # ceil(0.6 * 4 * 96)
    hw = 56 * 56
    assert macs == hw * (49 * 96 + 96 * kept + kept * 96 + 96 * 96)
    plain_macs, _ = A.ConvNextBlock().cost(C.Shape(96, 56, 56))
    assert macs < plain_macs


def test_split_block_keep_all_errors():
    block = A.ConvNextSplitBlock(expansion=4, dw_kernel=7, nonlinear_fraction=0.999)
    with pytest.raises(C.CostError, match="keeps all"):
        block.cost(C.Shape(96, 56, 56))


def test_split_mlp_mac_ratio_exact():
    assert C.split_mlp_mac_ratio(Fraction(3, 5), 4) == Fraction(29, 40)
    assert float(C.split_mlp_mac_ratio(Fraction(3, 5), 4)) == 0.725


def test_csv_and_json_reports(tmp_path):
    csv_path, json_path = tmp_path / "cost.csv", tmp_path / "cost.json"
    assert main(["cost", "--preset", "convnext-t", "--out", str(csv_path)]) == 0
    assert main(["cost", "--preset", "convnext-t", "--format", "json",
                 "--out", str(json_path)]) == 0
    header, first = csv_path.read_text().splitlines()[:2]
    assert header == "block_index,kind,in_c,in_h,in_w,macs,params"
    assert first.startswith("0,stem,3,224,224,")
    assert '"total_macs"' in json_path.read_text()


# Exact regression totals for what the presets do not cover: the bottleneck-ResNet
# family, a RegularConv without activation, split blocks with a branch activation,
# heads with and without hidden channels, and every kind at a non-integer e*c.
ALL_KINDS = A.ArchDescriptor("mix", "generic", 32, 3, (
    A.Stem(kernel=3, stride=2, out_channels=24),
    A.RegularConv(kernel=3, stride=1, out_channels=40, activation=A.NONE),
    A.Ibn(expansion=2.5, dw_kernel=5, stride=2, out_channels=40),
    A.Ibn(expansion=2.5, dw_kernel=3, stride=1, out_channels=40, residual=True),
    A.Downsample(kernel=2, stride=2, out_channels=52),
    A.ConvNextBlock(expansion=0.3, dw_kernel=3),
    A.ConvNextSplitBlock(expansion=2.5, dw_kernel=5, nonlinear_fraction=0.35,
                         branch_activation=A.prelu(0.25)),
    A.ResNetBottleneckBlock(expansion=0.3, mid_kernel=3),
    A.Head(classes=10, hidden_channels=64),
))

GOLDEN_ARCHS = {
    "resnet_bottleneck": A.resnet_bottleneck_arch(
        "rb", [64, 128], [2, 3], expansion=0.25, resolution=64),
    "resnet_bottleneck_e05_k5": A.restage(A.resnet_bottleneck_arch(
        "rb2", [48, 96, 192], [1, 2, 1], expansion=0.5, resolution=64), dw_kernel=5),
    "regular_conv_none": A.ArchDescriptor("rc", "generic", 32, 3, (
        A.Stem(kernel=3, stride=2, out_channels=16),
        A.RegularConv(kernel=3, stride=1, out_channels=24, activation=A.NONE),
        A.RegularConv(kernel=5, stride=2, out_channels=32),
        A.Head(classes=10),
    )),
    "split_gelu": A.restage(A.convnext_arch("sa", [32, 64], [2, 2], resolution=64),
                            split_fraction=0.6, split_activation=A.GELU),
    "split_exp": A.restage(A.convnext_arch("se", [32, 64], [2, 2], resolution=64),
                           split_fraction=0.3, split_activation=A.exp_kernel()),
    "head_only": A.ArchDescriptor("h", "generic", 16, 8, (A.Head(classes=5),)),
    "all_kinds": ALL_KINDS,
}


@pytest.mark.parametrize("name,macs,params", [
    ("resnet_bottleneck", 8_631_296, 210_536),
    ("resnet_bottleneck_e05_k5", 19_693_056, 644_392),
    ("regular_conv_none", 2_224_448, 23_698),
    ("split_gelu", 8_280_576, 145_622),
    ("split_exp", 5_773_824, 120_816),
    ("head_only", 40, 61),
    ("all_kinds", 4_812_544, 58_716),
])
def test_golden_totals(name, macs, params):
    arch = GOLDEN_ARCHS[name]
    report = C.count_arch(arch)
    assert (report.total_macs, report.total_params) == (macs, params)


def test_golden_per_block_all_kinds():
    report = C.count_arch(ALL_KINDS)
    rows = [(b.kind, b.macs, b.params, b.out_shape.channels, b.out_shape.height)
            for b in report.per_block]
    assert rows == [
        ("stem", 165_888, 720, 24, 16),
        ("regular_conv", 2_211_840, 8_760, 40, 16),
        ("ibn", 1_440_000, 11_220, 40, 8),
        ("ibn", 569_600, 9_620, 40, 8),
        ("downsample", 133_120, 8_452, 52, 4),
        ("convnext_block", 34_112, 2_408, 52, 4),
        ("convnext_split_block", 140_608, 9_146, 52, 4),
        ("resnet_bottleneck", 63_488, 4_220, 52, 4),
        ("head", 53_888, 4_170, 10, 1),
    ]
