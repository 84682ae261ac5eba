import itertools
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from conftest import batch_norm, fold_bn, reference_collapse

import nnscale.archspec as A
import nnscale.cli as cli
import nnscale.costmodel as C
import nnscale.restructure as R
import nnscale.tensor as T


def seq_forward(seq, x):
    return reduce(T.conv2d, seq.layers, x)


def test_all_identity_sequence_collapses_to_delta():
    c = 3
    p1 = np.eye(c)[:, :, None, None]
    d = np.zeros((c, 1, 3, 3))
    d[:, 0, 1, 1] = 1.0
    seq = R.LinearSequence(layers=(
        T.ConvWeights(p1),
        T.ConvWeights(d, groups=c),
        T.ConvWeights(p1),
    ))
    merged = R.collapse(seq)
    assert merged.kernel.shape == (c, c, 3, 3)
    x = T.rand_normal((c, 6, 6), 1.0, seed=0)
    assert np.abs(T.conv2d(x, merged) - x).max() <= 1e-12


def test_collapse_bias_free_exact_everywhere():
    rep = R.collapse_trial(11, c_in=4, expansion=6, kernel=3, stride=1,
                           size=12, biased=False)
    assert rep["max_abs_diff_full"] <= 1e-10
    assert rep["pass"]


def test_collapse_biased_exact_on_interior():
    rep = R.collapse_trial(11, c_in=4, expansion=6, kernel=3, stride=1,
                           size=12, biased=True)
    assert rep["max_abs_diff_interior"] <= 1e-10
    # border pixels legitimately differ once biases enter the depthwise window
    assert rep["max_abs_diff_full"] > 1e-6
    assert rep["pass"]


def test_collapse_grid_200_trials():
    grid = list(itertools.product((2, 4, 8), (2, 4, 6), (3, 5, 7), (1, 2)))
    seeds = range(200)
    for seed, (c_in, e, k, stride) in zip(seeds, itertools.cycle(grid)):
        rep = R.collapse_trial(seed, c_in, e, k, stride, size=12, biased=False)
        assert rep["max_abs_diff_full"] <= 1e-10, rep["dims"]


def test_collapse_verify_bounds_work_before_any_trial(monkeypatch):
    def trial(*args, **kwargs):
        raise AssertionError("a trial ran before the work bound was checked")
    monkeypatch.setattr(R, "collapse_trial", trial)
    with pytest.raises(R.RestructureError, match="exceeds"):
        R.collapse_verify(2**20, 0, 12, False)


def test_collapse_verify_is_what_the_command_writes(tmp_path):
    path = tmp_path / "report.json"
    assert cli.main(["collapse-verify", "--trials", "3", "--size", "6", "--out", str(path)]) == 0
    assert path.read_text() == cli._json(R.collapse_verify(3, 0, 6, False))


def test_collapse_with_folded_bn():
    """A conv chain with a batch norm after every layer, each folded into its conv,
    collapses to the chain run with the norms applied explicitly."""
    gen = T.generator(21)
    c, mid = 3, 9
    def bn(n, idx):
        g2 = T.generator(21, idx)
        return (g2.standard_normal(n), g2.uniform(0.2, 2.0, n),
                g2.uniform(0.5, 1.5, n), g2.standard_normal(n))
    d = gen.standard_normal((mid, 1, 3, 3))
    layers = (
        (T.ConvWeights(gen.standard_normal((mid, c, 1, 1))), bn(mid, 1)),
        (T.ConvWeights(d, groups=mid), bn(mid, 2)),
        (T.ConvWeights(gen.standard_normal((c, mid, 1, 1))), bn(c, 3)),
    )
    x = gen.standard_normal((c, 10, 10))
    y = reduce(lambda h, layer: batch_norm(T.conv2d(h, layer[0]), *layer[1]), layers, x)
    seq = R.LinearSequence(layers=tuple(fold_bn(w, *stats) for w, stats in layers))
    z = T.conv2d(x, R.collapse(seq))
    rs, cs = R.interior_slices(10, 10, 3, 1)
    assert np.abs((y - z)[:, rs, cs]).max() <= 1e-10


def _dw(gen, c, k, multiplier=1, stride=1):
    return T.ConvWeights(gen.standard_normal((c * multiplier, 1, k, k)), stride=stride, groups=c)


def _dense(gen, c_out, c_in, k=1, stride=1):
    return T.ConvWeights(gen.standard_normal((c_out, c_in, k, k)), stride=stride)


# Each builder returns conv layers (bias-free) for a chain that starts at 3 channels.
FOLD_SEQUENCES = {
    "dw_first": lambda g: [_dw(g, 3, 3), _dense(g, 5, 3)],
    "dw_first_multiplier_2": lambda g: [_dw(g, 3, 3, multiplier=2), _dense(g, 4, 6)],
    "dense_3x3_first": lambda g: [_dense(g, 5, 3, k=3, stride=2), _dense(g, 4, 5)],
    "pw_dw_multiplier_2_pw": lambda g: [_dense(g, 4, 3), _dw(g, 4, 3, multiplier=2),
                                        _dense(g, 3, 8)],
    "pw_dw3x3_dw1x1_pw": lambda g: [_dense(g, 6, 3), _dw(g, 6, 3, stride=2), _dw(g, 6, 1),
                                    _dense(g, 3, 6)],
    "pw_dw_multiplier_2_stride_2_pw": lambda g: [_dense(g, 4, 3),
                                                 _dw(g, 4, 5, multiplier=2, stride=2),
                                                 _dense(g, 3, 8)],
    "pw_dw3x3_dw1x1_multiplier_2_pw": lambda g: [_dense(g, 4, 3), _dw(g, 4, 3),
                                                 _dw(g, 4, 1, multiplier=2), _dense(g, 3, 8)],
    "dw1x1_multiplier_2_first_dense_3x3": lambda g: [_dw(g, 3, 1, multiplier=2),
                                                     _dense(g, 4, 6, k=3, stride=2)],
    "dw_first_stride_2": lambda g: [_dw(g, 3, 5, stride=2), _dense(g, 4, 3)],
}


def assert_collapse_keeps_the_reference_bits(seq):
    merged = R.collapse(seq)
    kernel, bias = reference_collapse(seq)
    assert np.array_equal(merged.kernel, kernel)
    assert (merged.bias is None) == (bias is None)
    assert bias is None or np.array_equal(merged.bias, bias)
    return merged


@pytest.mark.parametrize("biased", [False, True])
@pytest.mark.parametrize("name", sorted(FOLD_SEQUENCES))
def test_collapse_two_path_on_any_layer_order(name, biased):
    gen = T.generator(41)
    layers = []
    for w in FOLD_SEQUENCES[name](gen):
        bias = gen.standard_normal(w.out_channels) if biased else None
        layers.append(T.ConvWeights(w.kernel, bias, w.stride, w.groups))
    seq = R.LinearSequence(layers=tuple(layers))
    x = gen.standard_normal((3, 9, 9))
    merged = assert_collapse_keeps_the_reference_bits(seq)
    diff = np.abs(seq_forward(seq, x) - T.conv2d(x, merged))
    if biased:  # biases ahead of the spatial layer differ on the border only
        k = max(w.kernel_size for w in seq.layers)
        rs, cs = R.interior_slices(9, 9, k, seq.stride)
        diff = diff[:, rs, cs]
    assert merged.groups == 1 and merged.stride == seq.stride
    assert (merged.bias is not None) == biased
    assert diff.max() <= 1e-10


@pytest.mark.parametrize("biased", [False, True])
def test_collapse_keeps_the_reference_bits_on_the_trial_grid(biased):
    """Every width, expansion, kernel and stride collapse-verify draws from."""
    grid = itertools.product((2, 4, 8), (2, 4, 6), (3, 5, 7), (1, 2))
    for seed, (c_in, e, k, stride) in enumerate(grid):
        assert_collapse_keeps_the_reference_bits(
            R.random_ibn_sequence(seed, c_in, e, k, stride, biased))


@pytest.mark.parametrize("position", [0, 1])
def test_collapse_rejects_grouped_conv_other_than_depthwise(position):
    gen = T.generator(42)
    grouped = T.ConvWeights(gen.standard_normal((4, 2, 3, 3)), groups=2)
    layers = [_dense(gen, 4, 4), _dense(gen, 4, 4)]
    layers.insert(position, grouped)
    seq = R.LinearSequence(layers=tuple(layers))
    with pytest.raises(R.RestructureError, match="grouped"):
        R.collapse(seq)


def test_collapse_stride_matches_depthwise():
    seq = R.random_ibn_sequence(5, c_in=4, expansion=4, kernel=3, stride=2, biased=False)
    assert R.collapse(seq).stride == 2


def test_collapse_rejects_two_spatial_layers():
    gen = T.generator(3)
    k1 = gen.standard_normal((4, 4, 3, 3))
    k2 = gen.standard_normal((4, 4, 3, 3))
    with pytest.raises(R.RestructureError, match="spatial"):
        R.LinearSequence(layers=(
            T.ConvWeights(k1),
            T.ConvWeights(k2),
        ))


def test_sequence_rejects_channel_mismatch():
    gen = T.generator(4)
    with pytest.raises(R.RestructureError, match="in_channels"):
        R.LinearSequence(layers=(
            T.ConvWeights(gen.standard_normal((8, 4, 1, 1))),
            T.ConvWeights(gen.standard_normal((4, 6, 1, 1))),
        ))


def test_afrb_decide_band():
    assert R.afrb_decide(1.0) == "collapse"
    assert R.afrb_decide(0.0) == "keep_ibn"
    assert R.afrb_decide(0.8) == "collapse"      # inclusive boundaries
    assert R.afrb_decide(1.3) == "collapse"
    assert R.afrb_decide(0.79999) == "keep_ibn"
    with pytest.raises(R.RestructureError):
        R.afrb_decide(float("nan"))


def test_afrb_decide_monotone_band_membership():
    alphas = np.linspace(-1, 3, 101)
    flags = [R.afrb_decide(float(a)) == "collapse" for a in alphas]
    switches = sum(flags[i] != flags[i + 1] for i in range(len(flags) - 1))
    assert switches == 2  # enter the band once, leave once


def test_restructure_arch_model_a_costs():
    arch = A.restage(A.preset("convnext-t"), split_fraction=0.6, split_activation=A.NONE)
    report = C.count_arch(arch)
    assert abs(report.total_params - 21.5e6) / 21.5e6 <= 0.01
    assert abs(report.total_macs - 3.32e9) / 3.32e9 <= 0.02


def test_restructure_arch_psi_does_not_change_cost():
    base = C.count_arch(A.restage(A.preset("convnext-t"), split_fraction=0.6,
                                  split_activation=A.NONE))
    for act in (A.GELU, A.exp_kernel()):
        r = C.count_arch(A.restage(A.preset("convnext-t"), split_fraction=0.6,
                                   split_activation=act))
        assert (r.total_params, r.total_macs) == (base.total_params, base.total_macs)


def test_restructure_arch_roundtrips_through_file():
    arch = A.restage(A.preset("convnext-t"), split_fraction=0.6, split_activation=A.exp_kernel())
    assert A.parse_arch(A.serialize_arch(arch)) == arch


def test_restructure_arch_rejects_keep_all():
    with pytest.raises(A.ArchError, match="keeps all"):
        A.restage(A.preset("convnext-t"), split_fraction=0.9999)


def test_restructure_arch_rejects_other_families():
    with pytest.raises(A.ArchError):
        A.restage(A.preset("ran-e-supernet"), split_fraction=0.6)


def test_split_linear_branch_is_one_collapsed_1x1():
    """An MLP whose non-linearity acts on the first `kept` expanded channels only
    equals its non-linear branch plus one c x c 1x1 conv: the collapse of the other
    channels' expand and project layers, the one 1x1 that the split block's cost
    charges for."""
    gen = T.generator(33)
    c, e, f = 8, 4, 0.6
    mid = e * c
    kept = int(np.ceil(f * mid))
    up, b_up = gen.standard_normal((mid, c, 1, 1)), gen.standard_normal(mid)
    down, b_down = gen.standard_normal((c, mid, 1, 1)), gen.standard_normal(c)
    h = gen.standard_normal((c, 6, 6))

    z = T.conv2d(h, T.ConvWeights(up, b_up))
    z[:kept] = np.maximum(z[:kept], 0.0)
    full = T.conv2d(z, T.ConvWeights(down, b_down))

    a = np.maximum(T.conv2d(h, T.ConvWeights(up[:kept], b_up[:kept])), 0.0)
    nonlinear = T.conv2d(a, T.ConvWeights(down[:, :kept], b_down))
    linear = R.collapse(R.LinearSequence(layers=(
        T.ConvWeights(up[kept:], b_up[kept:]),
        T.ConvWeights(down[:, kept:]),
    )))
    assert linear.kernel.shape == (c, c, 1, 1)
    assert np.abs(full - (nonlinear + T.conv2d(h, linear))).max() <= 1e-10


def test_mlp_ratio_matches_counted_blocks_in_rational_mode():
    # at widths where fraction * e * w1 is whole, counted MACs hit the exact ratio
    f, e, w1 = Fraction(3, 5), 4, 80
    block = A.ConvNextSplitBlock(expansion=e, dw_kernel=7, nonlinear_fraction=float(f))
    macs, _ = block.cost(C.Shape(w1, 10, 10))
    plain, _ = A.ConvNextBlock(expansion=e, dw_kernel=7).cost(C.Shape(w1, 10, 10))
    dw = 100 * 49 * w1
    assert Fraction(macs - dw, plain - dw) == C.split_mlp_mac_ratio(f, e) == Fraction(29, 40)
