import math
from fractions import Fraction

import numpy as np
import pytest

import nnscale.archspec as A
import nnscale.topology as T
from nnscale.cli import main


def test_convnext_t_mass_closed_form():
    report = T.nn_mass(A.preset("convnext-t"))
    # e=4 -> block mass (2+e)/3 * w1 = 2 w1; sum w1 = 3*96+3*192+9*384+3*768 = 6624
    assert report.mass == pytest.approx(2 * 6624)
    assert report.nonlinear_units == 4 * 6624 == 26496
    assert report.k == Fraction(2)


def test_ran_i_t_mass():
    report = T.nn_mass(A.preset("ran-i-t"))
    assert report.mass == pytest.approx(14710)
    assert report.nonlinear_units == 29420


def test_single_resnet_bottleneck_mass():
    arch = A.resnet_bottleneck_arch("one", [256], [1], expansion=0.25, resolution=32)
    report = T.nn_mass(arch)
    assert report.mass == pytest.approx((1.5 * 256) / 2.25)
    block = [b for b in report.per_block if b.input_channels > 0][0]
    assert block.input_channels == int(1.5 * 256)
    assert block.cell_density == Fraction(1, Fraction(9, 4) * 4) * 4  # 1/(2+e) = 4/9
    # unit check: k * mass = X = 2 e w1
    assert float(report.k) * report.mass == pytest.approx(2 * 0.25 * 256)


def test_proportionality_constants():
    assert T.proportionality_constant("convnext", 4) == Fraction(2)
    assert T.proportionality_constant("resnet_bottleneck", Fraction(1, 4)) == Fraction(3, 4)
    with pytest.raises(T.TopologyError):
        T.proportionality_constant("convnext", 0)
    with pytest.raises(T.TopologyError):
        T.proportionality_constant("densenet", 4)


def test_mixed_expansion_rejected():
    blocks = (
        A.Stem(kernel=4, stride=4, out_channels=16),
        A.ConvNextBlock(expansion=4),
        A.ConvNextBlock(expansion=6),
        A.Head(classes=10),
    )
    arch = A.ArchDescriptor("mixed", "convnext", 32, 3, blocks)
    with pytest.raises(T.TopologyError, match="non-uniform"):
        T.nn_mass(arch)


def test_flat_family_rejected():
    with pytest.raises(T.TopologyError):
        T.nn_mass(A.preset("ran-e-supernet"))


def test_proportionality_property_1000_random_archs():
    # uniform structure premise: expanded widths e*w1 must be whole, so widths are
    # drawn as multiples of 4 (covers e down to 1/4)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        family = rng.choice(["convnext", "resnet_bottleneck"])
        stages = int(rng.integers(1, 5))
        widths = (4 * rng.integers(2, 128, size=stages)).tolist()
        depths = rng.integers(1, 12, size=stages).tolist()
        if family == "convnext":
            e = float(rng.choice([1, 2, 3, 4, 6, 8]))
            arch = A.convnext_arch("r", widths, depths, expansion=e, resolution=32)
        else:
            e = float(rng.choice([0.25, 0.5, 1, 2, 4]))
            arch = A.resnet_bottleneck_arch("r", widths, depths, expansion=e, resolution=32)
        report = T.nn_mass(arch)
        x = report.nonlinear_units
        assert x > 0
        assert abs(x - float(report.k) * report.mass) / x <= 1e-9


def test_mass_linear_in_width():
    for c in (2, 3, 5):
        base = A.convnext_arch("b", [24, 48], [2, 2], resolution=32)
        scaled = A.convnext_arch("b", [24 * c, 48 * c], [2, 2], resolution=32)
        assert T.nn_mass(scaled).mass == pytest.approx(c * T.nn_mass(base).mass)


def test_mass_additive_in_depth():
    base = A.convnext_arch("b", [24, 48], [2, 2], resolution=32)
    deeper = A.convnext_arch("b", [24, 48], [2, 3], resolution=32)
    # appending one 48-wide block adds (2+4)/3 * 48 = 96
    assert T.nn_mass(deeper).mass - T.nn_mass(base).mass == pytest.approx(2 * 48)


def test_ibn_units_12n():
    for n in (16, 64, 96):
        blocks = (
            A.Stem(kernel=3, stride=2, out_channels=n),
            A.Ibn(expansion=6, dw_kernel=3, stride=1, out_channels=n, residual=True),
            A.Head(classes=10),
        )
        arch = A.ArchDescriptor("x", "ran_e", 32, 3, blocks)
        stem_units = 0
        assert T.nonlinear_units(arch) == stem_units + 12 * n


def test_regular_conv_activation_none_counts_zero():
    blocks = (
        A.RegularConv(kernel=3, stride=1, out_channels=32, activation=A.NONE),
    )
    arch = A.ArchDescriptor("x", "generic", 32, 16, blocks)
    assert T.nonlinear_units(arch) == 0
    blocks = (
        A.RegularConv(kernel=3, stride=1, out_channels=32, activation=A.RELU),
    )
    arch = A.ArchDescriptor("x", "generic", 32, 16, blocks)
    assert T.nonlinear_units(arch) == 32


def test_split_block_units():
    blocks = (A.ConvNextSplitBlock(expansion=4, dw_kernel=7, nonlinear_fraction=0.6),)
    arch = A.ArchDescriptor("x", "convnext", 32, 96, blocks)
    assert T.nonlinear_units(arch) == 231  # ceil(0.6*384), linear branch silent
    blocks = (A.ConvNextSplitBlock(expansion=4, dw_kernel=7, nonlinear_fraction=0.6,
                                   branch_activation=A.GELU),)
    arch = A.ArchDescriptor("x", "convnext", 32, 96, blocks)
    assert T.nonlinear_units(arch) == 231 + (384 - 231)


# Exact regression values for families and blocks the presets do not cover.
@pytest.mark.parametrize("arch,mass,units", [
    (A.resnet_bottleneck_arch("rb", [64, 128], [2, 3], expansion=0.25, resolution=64),
     341.3333333333333, 256),
    (A.restage(A.resnet_bottleneck_arch("rb2", [48, 96, 192], [1, 2, 1], expansion=0.5,
                                        resolution=64), dw_kernel=5),
     345.6, 432),
    (A.restage(A.convnext_arch("sa", [32, 64], [2, 2], resolution=64), split_fraction=0.6,
               split_activation=A.GELU),
     384.0, 768),
    (A.restage(A.convnext_arch("se", [32, 64], [2, 2], resolution=64), split_fraction=0.3,
               split_activation=A.exp_kernel()),
     384.0, 768),
])
def test_golden_mass(arch, mass, units):
    report = T.nn_mass(arch)
    assert (report.mass, report.nonlinear_units) == (mass, units)


def test_golden_units_every_kind():
    blocks = (
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
    )
    assert T.nonlinear_units(A.ArchDescriptor("mix", "generic", 32, 3, blocks)) == 578


@pytest.mark.parametrize("family,block,i_b", [
    # 96 + 29 + 96: depthwise and expand see c, project sees round(0.3 * 96) = 29
    ("convnext", A.ConvNextBlock(expansion=0.3), 221),
    ("convnext", A.ConvNextSplitBlock(expansion=0.3, dw_kernel=7, nonlinear_fraction=0.5), 221),
    # 96 + 29 + 29: first 1x1 sees c, the k x k and last 1x1 see the mid width
    ("resnet_bottleneck", A.ResNetBottleneckBlock(expansion=0.3), 154),
])
def test_mass_inputs_use_the_expanded_width(family, block, i_b):
    report = T.nn_mass(A.ArchDescriptor("x", family, 8, 96, (block,)))
    assert report.per_block[0].input_channels == i_b
    assert report.mass == pytest.approx(float(i_b * block.cell_density))


def test_average_degree():
    assert T.average_degree(8, 4) == 10
    assert T.average_degree(32, 0) == 32
    assert T.average_degree(32, 64) == 64
    with pytest.raises(T.TopologyError):
        T.average_degree(0, 4)


def test_ldi_bounds_values():
    b = T.ldi_bounds(1 / 64, 32, 64)
    assert b.lower == pytest.approx(1 - math.sqrt(0.5))
    assert b.upper == pytest.approx(1 + math.sqrt(0.5))
    b = T.ldi_bounds(1 / 32, 32, 32)  # no skips: [0, 2]
    assert b.lower == pytest.approx(0)
    assert b.upper == pytest.approx(2)
    b = T.ldi_bounds(1.0, 1, 4)
    assert (b.lower, b.upper) == (1.0, 3.0)
    with pytest.raises(T.TopologyError):
        T.ldi_bounds(1.0, 4, 1)
    with pytest.raises(T.TopologyError, match="^q \\* k_hat must be finite"):
        T.ldi_bounds(1e308, 4, 5)  # q * k_hat overflows


def test_ldi_bounds_bracket_one_at_matched_variance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = int(rng.integers(2, 64))
        k_hat = w + int(rng.integers(0, 64))
        b = T.ldi_bounds(1.0 / k_hat, w, k_hat)
        assert b.lower <= 1.0 <= b.upper


def test_log2_montufar_bound_examples():
    assert T.log2_montufar_bound(4, 2, 3) == pytest.approx(8)
    assert T.log2_montufar_bound(8, 2, 2) == pytest.approx(10)
    # width-only regime when n == n0
    for n0 in (2, 4, 8):
        assert T.log2_montufar_bound(n0, n0, 5) == pytest.approx(n0 * math.log2(n0))
    with pytest.raises(T.TopologyError):
        T.log2_montufar_bound(2, 4, 3)


def test_log2_montufar_monotone():
    prev = -1.0
    for layers in range(1, 8):
        v = T.log2_montufar_bound(8, 2, layers)
        assert v >= prev
        prev = v
    prev = -1.0
    for n in (2, 4, 8, 16):
        v = T.log2_montufar_bound(n, 2, 3)
        assert v >= prev
        prev = v


def test_mass_report_json(capsys):
    assert main(["mass", "--preset", "ran-i-t", "--format", "json"]) == 0
    assert '"mass": 14710.0' in capsys.readouterr().out
