import itertools
import math
import os

import numpy as np
import pytest
from conftest import PROFILE, batch_norm, fold_bn, traced_peak_mb
from hypothesis import given, settings, strategies as st
from scipy.signal import correlate2d

import nnscale.restructure as R
import nnscale.tensor as T
import nnscale.verify as V


def ref_conv_same(x, kernel, bias=None, stride=1):
    """Independent same-padding conv oracle built on scipy.correlate2d."""
    co, ci, k, _ = kernel.shape
    c, h, w = x.shape
    out = np.zeros((co, h, w))
    for o in range(co):
        for i in range(ci):
            out[o] += correlate2d(x[i], kernel[o, i], mode="same")
    out = out[:, ::stride, ::stride]
    if bias is not None:
        out += bias[:, None, None]
    return out


def test_identity_1x1():
    x = T.rand_normal((4, 6, 6), 1.0, seed=0)
    w = T.ConvWeights(np.eye(4)[:, :, None, None])
    assert np.array_equal(T.conv2d(x, w), x)


def test_depthwise_delta_identity():
    x = T.rand_normal((3, 8, 8), 1.0, seed=1)
    k = np.zeros((3, 1, 3, 3))
    k[:, 0, 1, 1] = 1.0
    w = T.ConvWeights(k, groups=3)
    assert np.allclose(T.conv2d(x, w), x, atol=0)


def test_conv2d_matches_scipy_oracle():
    rng = np.random.default_rng(3)
    for k in (1, 3, 5):
        x = rng.standard_normal((3, 11, 11))
        kernel = rng.standard_normal((5, 3, k, k))
        bias = rng.standard_normal(5)
        mine = T.conv2d(x, T.ConvWeights(kernel, bias))
        assert np.allclose(mine, ref_conv_same(x, kernel, bias), atol=1e-12)


def test_conv2d_stride_output_size():
    x = T.rand_normal((2, 11, 11), 1.0, seed=2)
    w = T.ConvWeights(np.ones((2, 2, 3, 3)), stride=2)
    out = T.conv2d(x, w)
    assert out.shape == (2, 6, 6)  # ceil(11/2)


def test_conv2d_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 7, 7))
    y = rng.standard_normal((3, 7, 7))
    w = T.ConvWeights(rng.standard_normal((4, 3, 3, 3)))
    lhs = T.conv2d(2.5 * x - 1.5 * y, w)
    rhs = 2.5 * T.conv2d(x, w) - 1.5 * T.conv2d(y, w)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_composition_of_1x1_is_matmul():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 5, 5))
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((3, 6))
    two_step = T.conv2d(T.conv2d(x, T.ConvWeights(a[:, :, None, None])),
                        T.ConvWeights(b[:, :, None, None]))
    one_step = T.conv2d(x, T.ConvWeights((b @ a)[:, :, None, None]))
    assert np.abs(two_step - one_step).max() <= 1e-12


def test_conv2d_shape_mismatch():
    x = T.rand_normal((3, 5, 5), 1.0, seed=6)
    with pytest.raises(T.TensorError, match="channels"):
        T.conv2d(x, T.ConvWeights(np.ones((2, 4, 1, 1))))


def einsum_conv(x, w):
    """The windowed conv2d as one optimized einsum, the expression the blocked matmul
    replaced: its bits are the reference."""
    c, h, wd = x.shape
    k, s, g = w.kernel_size, w.stride, w.groups
    ho, wo = -(-h // s), -(-wd // s)
    pad_h, pad_w = max((ho - 1) * s + k - h, 0), max((wo - 1) * s + k - wd, 0)
    xp = np.pad(x, ((0, 0), (pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    win = win[:, :ho, :wo].reshape(g, c // g, ho, wo, k, k)
    ker = w.kernel.reshape(g, w.out_channels // g, c // g, k, k)
    out = np.einsum("gihwuv,goiuv->gohw", win, ker, optimize=True)
    out = out.reshape(w.out_channels, ho, wo)
    if w.bias is not None:
        out = out + w.bias[:, None, None]
    return out


# (C_out, groups) on 8 input channels: dense, two groups, depthwise, multiplier 2
GROUPINGS = [(6, 1), (6, 2), (8, 8), (16, 8)]


@pytest.mark.parametrize("patch_entries", [T.PATCH_ENTRIES, 1])
def test_conv2d_keeps_the_bits_of_the_einsum(monkeypatch, patch_entries):
    # PATCH_ENTRIES = 1 puts each group in a block of its own
    monkeypatch.setattr(T, "PATCH_ENTRIES", patch_entries)
    rng = np.random.default_rng(8)
    cases = itertools.product(GROUPINGS, (1, 2), (3, 5, 7), (5, 9, 12, 17), (False, True))
    for (c_out, groups), stride, k, size, biased in cases:
        x = rng.standard_normal((8, size, size))
        kernel = rng.standard_normal((c_out, 8 // groups, k, k))
        bias = rng.standard_normal(c_out) if biased else None
        w = T.ConvWeights(kernel, bias, stride=stride, groups=groups)
        assert np.array_equal(T.conv2d(x, w), einsum_conv(x, w)), (c_out, groups, stride, k, size)


def test_conv2d_holds_one_patch_block():
    # a 48-channel 7x7 depthwise conv at 64 px: one group's patches are 1.5 MB, all
    # 48 groups' 73.5 MB
    x = T.rand_normal((48, 64, 64), 1.0, seed=9)
    w = T.ConvWeights(T.rand_normal((48, 1, 7, 7), 1.0, seed=10), groups=48)
    assert traced_peak_mb(T.conv2d, x, w) < 8


def test_collapse_trial_holds_one_dense_group():
    # the collapsed 8 -> 8 7x7 conv at 64 px is one group of 12.25 MB of patches
    assert traced_peak_mb(R.collapse_trial, 3, 8, 6.0, 7, 1, size=64) < 20


@pytest.mark.parametrize("seed", range(100))
def test_fold_bn_two_path_equivalence(seed):
    """conv2d honours the batch-norm folding identity: scaling each output
    channel's kernel and shifting its bias equals the affine map after the conv."""
    gen = T.generator(seed)
    c_in, c_out = 3, 5
    x = gen.standard_normal((c_in, 6, 6))
    w = T.ConvWeights(gen.standard_normal((c_out, c_in, 3, 3)),
                      bias=gen.standard_normal(c_out))
    bn = (gen.standard_normal(c_out), gen.uniform(0.1, 2.0, c_out),
          gen.uniform(0.5, 1.5, c_out), gen.standard_normal(c_out))
    bn_out = batch_norm(T.conv2d(x, w), *bn)
    folded_out = T.conv2d(x, fold_bn(w, *bn))
    assert np.abs(bn_out - folded_out).max() <= 1e-12


def sv(m):
    """Singular values of one matrix through the batch path."""
    return T.singular_values_batch(np.asarray(m)[None])[0]


def test_singular_values_identity_and_diag():
    assert np.allclose(sv(np.eye(3)), [1, 1, 1])
    assert np.allclose(sv(np.diag([3.0, 2.0, 1.0])), [3, 2, 1])


@pytest.mark.parametrize("shape", [(4, 4), (8, 3), (3, 8), (32, 64), (31, 17)])
def test_singular_values_match_lapack(shape):
    m = T.rand_normal(shape, 1.0, seed=shape[0] * 100 + shape[1])
    assert np.abs(sv(m) - np.linalg.svd(m, compute_uv=False)).max() <= 1e-10


def test_singular_values_transpose_invariant():
    m = T.rand_normal((9, 17), 1.0, seed=11)
    a = sv(m)
    b = sv(m.T)
    assert np.abs(a - b).max() <= 1e-10


def test_singular_values_batch_consistent():
    batch = T.rand_normal((6, 5, 7), 1.0, seed=12)
    out = T.singular_values_batch(batch)
    for i in range(6):
        assert np.abs(out[i] - np.linalg.svd(batch[i], compute_uv=False)).max() <= 1e-10


def test_singular_values_size_limit():
    with pytest.raises(T.TensorError, match="512"):
        sv(np.zeros((513, 4)))
    with pytest.raises(T.TensorError, match="512"):
        T.singular_values_batch(np.zeros((2, 4, 513)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_singular_values_reject_non_finite_entries(bad):
    batch = np.ones((3, 4, 4))
    batch[2, 1, 3] = bad
    with pytest.raises(T.TensorError, match="finite"):
        T.singular_values_batch(batch)
    with pytest.raises(T.TensorError, match="finite"):
        sv(batch[2])


def test_singular_values_mean_within_isometry_bounds():
    # Monte-Carlo check used by the isometry harness: random 32 x 64 entries with
    # variance q, mean singular value inside sqrt(q*64) -/+ sqrt(q*32)
    from nnscale.topology import ldi_bounds
    q = 1.0 / 64.0
    b = ldi_bounds(q, 32, 64)
    hits = 0
    trials = 200
    for s in range(trials):
        m = T.rand_normal((32, 64), q, seed=1000 + s)
        mean_sv = sv(m).mean()
        hits += b.lower <= mean_sv <= b.upper
    assert hits / trials >= 0.99


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols matrix, with repeated columns at times (rank-deficient when it has
    fewer distinct columns than its shorter side) and graded columns at times (column
    j scaled by 2^-(grade j), ill-conditioned but of full rank), scaled by a power of
    two from 2^-1070 to 2^1000."""
    distinct = draw(st.one_of(st.just(cols), st.integers(1, cols)))
    base = T.rand_normal((rows, distinct), 1.0, seed=draw(st.integers(0, 2**31 - 1)))
    base = np.ldexp(base, -draw(st.integers(0, 4)) * np.arange(distinct))
    return np.ldexp(base[:, np.arange(cols) % distinct], draw(st.integers(-1070, 1000)))


@st.composite
def non_square_matrices(draw):
    """A wide or tall matrix, near-square (one side longer by 1) at times."""
    short = draw(st.integers(1, 12))
    long = short + draw(st.one_of(st.just(1), st.integers(1, 20)))
    return draw(matrices(*((short, long) if draw(st.booleans()) else (long, short))))


@settings(**PROFILE)
@given(data=st.data())
def test_gram_route_matches_lapack_in_any_batch(data):
    """Each singular value agrees with LAPACK's SVD to 1e-10 relative, and a matrix
    gets the same bits alone as anywhere in a batch of others of its shape."""
    m = data.draw(non_square_matrices())
    want = np.linalg.svd(m, compute_uv=False)
    # Below 2^-1022 a float keeps fewer bits: each route rounds to the subnormal grid
    # and the two may land one step (2^-1074) apart.
    assert np.all(np.abs(sv(m) - want) <= 1e-10 * want + np.spacing(0.0))
    batch = data.draw(st.lists(matrices(*m.shape), max_size=3))
    at = data.draw(st.integers(0, len(batch)))
    batch.insert(at, m)
    assert T.singular_values_batch(np.stack(batch))[at].tobytes() == sv(m).tobytes()


def test_rand_tensor_deterministic():
    a = T.rand_normal((5, 5), 2.0, seed=42)
    b = T.rand_normal((5, 5), 2.0, seed=42)
    assert np.array_equal(a, b)
    c = T.rand_normal((5, 5), 2.0, seed=43)
    assert not np.array_equal(a, c)


def fresh_philox_normal(shape, var, seed, index=0):
    return math.sqrt(var) * np.random.Generator(
        np.random.Philox(key=[seed, index])).standard_normal(shape)


def test_rand_normal_is_a_fresh_philox_draw():
    """Each draw equals one from a new Philox at counter 0: also after an odd-length
    draw has left the buffer half used, for negative seeds, which Philox's key takes
    modulo 2**64, and while a generator() drawing the same key is mid-stream, which
    the draws leave alone."""
    live, twin = T.generator(5, 2), T.generator(5, 2)
    assert np.array_equal(live.standard_normal(3), twin.standard_normal(3))
    for shape, var, seed, index in [
        ((7,), 1.0, 3, 0),
        ((5,), 1.0, 3, 0),
        ((2, 3, 3), 0.25, 5, 2),
        ((4, 1, 5, 5), 2.0, -1, 0),
        ((3,), 0.5, -2**31 + 1, 7),
        ((9,), 1.0, 2**31 - 1, 2**31),
    ]:
        assert np.array_equal(T.rand_normal(shape, var, seed, index),
                              fresh_philox_normal(shape, var, seed, index))
    assert np.array_equal(live.standard_normal(6), twin.standard_normal(6))


def test_rand_tensor_zero_variance():
    a = T.rand_normal((100,), 0.0, seed=0)
    assert np.all(a == 0)


def test_rand_tensor_sample_variance():
    a = T.rand_normal((1_000_000,), 0.25, seed=9)
    assert abs(a.var() - 0.25) / 0.25 <= 0.01


@pytest.fixture(params=[1, 2, 3, 4], ids=lambda n: f"{n}cpu")
def cpus(request, monkeypatch):
    """The process sees this many CPUs; no child process may outlive the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_trials_raises_the_first_failing_item(cpus, monkeypatch):
    """ldi_report maps its trials over the seeds in order, in the caller's process,
    on any number of CPUs: the first failing trial's error comes through as it is and
    no later trial runs."""
    parent, seen = os.getpid(), []
    trial = V._mean_singular_values
    def fail_from_seed_14(cfg):
        seen.append((os.getpid(), cfg.seed))
        if cfg.seed >= 14:
            raise V.VerifyError(f"trial at seed {cfg.seed}")
        return trial(cfg)
    monkeypatch.setattr(V, "_mean_singular_values", fail_from_seed_14)
    cfg = V.LinearDensenetConfig(width=4, depth=3, skip_channels=2, q=0.5, seed=10)
    with pytest.raises(V.VerifyError, match="^trial at seed 14$"):
        V.ldi_report(cfg, 50)
    assert seen == [(parent, 10 + t) for t in range(5)]
