import copy
import math

import numpy as np
import pytest

import nnscale.search as S
from conftest import reference_backward, reference_train_search, traced_peak_mb


def best_linear_probe_accuracy(x, y):
    """Brute-force grid over direction angles and offsets."""
    best = 0.0
    for theta in np.linspace(0, np.pi, 181):
        proj = x @ np.array([math.cos(theta), math.sin(theta)])
        for b in np.linspace(proj.min(), proj.max(), 101):
            acc = max(((proj > b) == y).mean(), ((proj <= b) == y).mean())
            best = max(best, acc)
    return best


def test_blobs_linearly_separable():
    x, y = S.make_dataset("blobs", 200, noise=0.4, seed=0)
    # fixed probe: sign of the first coordinate
    assert (((x[:, 0] > 0).astype(int) == y).mean()) == 1.0


def test_moons_not_linearly_separable():
    x, y = S.make_dataset("moons", 200, noise=0.1, seed=1)
    assert best_linear_probe_accuracy(x, y) < 0.95


def test_dataset_deterministic():
    a = S.make_dataset("xor", 64, noise=0.05, seed=3)
    b = S.make_dataset("xor", 64, noise=0.05, seed=3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_dataset_rejects_tiny_n():
    with pytest.raises(S.SearchError):
        S.make_dataset("blobs", 0, noise=0.1, seed=0)


def test_forward_all_alpha_one_zero_regularizer():
    model = S.make_model([2, 8, 8], ["a1", "a2"], seed=0, alpha_init=1.0)
    x, y = S.make_dataset("blobs", 32, 0.3, seed=1)
    stats = S.forward_loss(model, (x, y), lam=1e-3)
    assert stats["regularizer"] == 0.0
    assert stats["loss"] == pytest.approx(stats["cross_entropy"])


def test_forward_all_alpha_zero_regularizer_counts_blocks():
    model = S.make_model([2, 8, 8, 8], ["a1", "a1", "a1"], seed=0, alpha_init=0.0)
    x, y = S.make_dataset("blobs", 32, 0.3, seed=1)
    stats = S.forward_loss(model, (x, y), lam=1e-3)
    assert stats["regularizer"] == pytest.approx(3.0)
    assert stats["loss"] == pytest.approx(stats["cross_entropy"] + 1e-3 * 3.0)


def test_forward_smoke_bounds():
    model = S.make_model([2, 6, 6], ["a1", "a2"], seed=5)
    x, y = S.make_dataset("moons", 32, 0.1, seed=6)
    stats = S.forward_loss(model, (x, y), lam=1e-3)
    assert math.isfinite(stats["loss"])
    assert 0.0 <= stats["accuracy"] <= 1.0


def model_params(model):
    for i, blk in enumerate(model.blocks):
        yield (f"block{i}.w_expand", blk.w_expand)
        yield (f"block{i}.w_project", blk.w_project)
    yield ("w_head", model.w_head)
    yield ("b_head", model.b_head)


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    variants = (["a1", "a2"], ["a1", "a3"], ["a1", "a1", "a2"])[seed % 3]
    dims = [2] + [6] * len(variants)
    model = S.make_model(dims, variants, seed=seed, alpha_init=0.4 + 0.02 * seed)
    x, y = S.make_dataset("moons" if seed % 2 else "blobs", 24, 0.2, seed=seed + 50)
    lam = 1e-3
    grads = S.backward(model, (x, y), lam)
    h = 1e-6

    def loss_of(m):
        return S.forward_loss(m, (x, y), lam)["loss"]

    worst = 0.0
    # alpha gradients
    for i in range(len(model.blocks)):
        m1, m2 = copy.deepcopy(model), copy.deepcopy(model)
        m1.blocks[i].alpha += h
        m2.blocks[i].alpha -= h
        fd = (loss_of(m1) - loss_of(m2)) / (2 * h)
        denom = max(abs(fd), abs(grads.alpha[i]), 1e-8)
        worst = max(worst, abs(grads.alpha[i] - fd) / denom)
    # a few weight coordinates from every parameter class
    rng = np.random.default_rng(seed)
    for name, arr in model_params(model):
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            m1, m2 = copy.deepcopy(model), copy.deepcopy(model)
            dict(model_params(m1))[name].reshape(-1)[idx] += h
            dict(model_params(m2))[name].reshape(-1)[idx] -= h
            fd = (loss_of(m1) - loss_of(m2)) / (2 * h)
            if name == "w_head":
                g = grads.w_head.reshape(-1)[idx]
            elif name == "b_head":
                g = grads.b_head.reshape(-1)[idx]
            else:
                block_i = int(name[5])
                field = name.split(".")[1]
                g = getattr(grads, field)[block_i].reshape(-1)[idx]
            denom = max(abs(fd), abs(g), 1e-8)
            worst = max(worst, abs(g - fd) / denom)
    assert worst <= 1e-5


def test_alpha_gradient_regularizer_only():
    # zero weights and dead inputs leave only the 2 lam (alpha - 1) pull
    model = S.make_model([2, 4, 4], ["a1", "a1"], seed=0, alpha_init=0.3)
    for blk in model.blocks:
        blk.w_expand[:] = 0.0
        blk.w_project[:] = 0.0
    model.w_head[:] = 0.0
    x = np.zeros((8, 2))
    y = np.array([0, 1] * 4)
    lam = 2e-3
    grads = S.backward(model, (x, y), lam)
    for a in grads.alpha:
        assert a == pytest.approx(2 * lam * (0.3 - 1.0))


def test_alpha_gradient_zero_sites_on_positive_inputs():
    model = S.make_model([2, 4, 4], ["a1", "a1"], seed=1, alpha_init=1.0)
    for blk in model.blocks:
        blk.w_expand = np.abs(blk.w_expand)
        blk.w_project = np.abs(blk.w_project)
    x = np.abs(S.make_dataset("blobs", 16, 0.2, seed=2)[0])
    y = np.zeros(16, dtype=np.int64)
    grads = S.backward(model, (x, y), lam=0.0)
    # all pre-activations positive: min(x, 0) = 0 everywhere, so site terms vanish
    for a in grads.alpha:
        assert a == pytest.approx(0.0, abs=1e-12)


def test_train_zero_lambda_zero_regularizer_trace():
    model = S.make_model([2, 6, 6], ["a1", "a2"], seed=3)
    data = S.make_dataset("blobs", 64, 0.3, seed=4)
    trace = S.train_search(model, data, S.SearchConfig(lam=0.0, epochs=5, seed=0))
    assert trace.regularizer == [0.0] * 5


def test_train_zero_epochs_noop():
    model = S.make_model([2, 6, 6], ["a1", "a2"], seed=3)
    before = copy.deepcopy(model)
    data = S.make_dataset("blobs", 64, 0.3, seed=4)
    trace = S.train_search(model, data, S.SearchConfig(epochs=0, seed=0))
    assert len(trace) == 0
    assert all(np.array_equal(a.w_expand, b.w_expand)
               for a, b in zip(model.blocks, before.blocks))


def test_train_deterministic():
    runs = []
    for _ in range(2):
        model = S.make_model([2, 6, 6], ["a1", "a2"], seed=3)
        data = S.make_dataset("blobs", 64, 0.3, seed=4)
        trace = S.train_search(model, data, S.SearchConfig(epochs=10, seed=7))
        runs.append((trace.loss, model.alphas))
    assert runs[0] == runs[1]


def test_train_loss_decreases_on_blobs():
    model = S.make_model([2, 8, 8], ["a1", "a2"], seed=0)
    data = S.make_dataset("blobs", 128, 0.4, seed=1)
    trace = S.train_search(model, data, S.SearchConfig(epochs=40, seed=0))
    assert trace.loss[-1] <= trace.loss[0]


def test_regularizer_pulls_alpha_geometrically():
    # frozen weights and dead data: alpha converges to 1 at rate (1 - 2 lr lam)
    model = S.make_model([2, 4, 4], ["a1", "a1"], seed=0, alpha_init=0.0)
    for blk in model.blocks:
        blk.w_expand[:] = 0.0
        blk.w_project[:] = 0.0
    model.w_head[:] = 0.0
    x = np.zeros((8, 2))
    y = np.array([0, 1] * 4)
    lr, lam, epochs = 0.1, 1e-2, 20
    cfg = S.SearchConfig(lam=lam, lr=lr, epochs=epochs, batch=8, seed=0)
    S.train_search(model, (x, y), cfg)
    expected = 1.0 - (1.0 - 2 * lr * lam) ** epochs
    for a in model.alphas:
        assert a == pytest.approx(expected, rel=1e-9)


def test_search_end_to_end_blobs():
    model = S.make_model([2, 8, 8, 8], ["a1", "a1", "a1"], seed=0)
    data = S.make_dataset("blobs", 256, 0.4, seed=100)
    cfg = S.SearchConfig(lam=1e-3, epochs=300, seed=0)
    trace = S.train_search(model, data, cfg)
    assert trace.accuracy[-1] >= 0.95
    in_band = sum(1 for a in model.alphas if 0.8 <= a <= 1.3)
    assert in_band >= 2


def test_nonlinearity_count():
    model = S.make_model([2, 8, 8, 8], ["a1", "a1", "a1"], seed=0, alpha_init=1.0)
    assert S.nonlinearity_count(model) == 0
    for blk in model.blocks:
        blk.alpha = 0.0
    # first block expands 2 -> 8, later blocks 8 -> 32
    assert S.nonlinearity_count(model) == 8 + 32 + 32
    model.blocks[1].alpha = 1.0
    assert S.nonlinearity_count(model) == 8 + 32


def test_nonlinearity_count_spec_example():
    model = S.make_model([8, 8, 8, 8], ["a2", "a2", "a2"], seed=0, alpha_init=0.0)
    assert S.nonlinearity_count(model) == 96  # 3 blocks x 4*8 units


def test_alpha_one_blocks_collapse_to_dense_layers():
    """At alpha = 1 the first PReLU is a ReLU and the second the identity, so on
    non-negative inputs each residual block is x + x (W_p W_e)^T: one dense layer."""
    model = S.make_model([4, 4, 4], ["a2", "a2"], seed=2, alpha_init=1.0)
    x = np.abs(S.make_dataset("blobs", 32, 0.2, seed=3)[0])
    x = np.concatenate([x, x], axis=1)  # widen to 4 features, still >= 0
    h = x
    for blk in model.blocks:
        h = h + h @ (blk.w_project @ blk.w_expand).T
        assert np.all(h >= 0)  # the next block's ReLU passes it unchanged
    ws = S._Workspace(model, len(x), train=False)
    S._forward(ws, x)
    assert np.abs(ws.logits - (h @ model.w_head.T + model.b_head)).max() <= 1e-12


def prelu(x, a):
    """S._prelu into fresh arrays -> (prelu(x; a), min(x, 0))."""
    neg, prod, out = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    return S._prelu(x, a, neg, prod, out), neg


def test_prelu_limits():
    x = np.random.default_rng(8).standard_normal(100) * 2.0
    assert np.array_equal(prelu(x, 1.0)[0], x)
    assert np.array_equal(prelu(x, 0.0)[0], np.maximum(x, 0))
    assert np.array_equal(prelu(x, 0.5)[1], np.minimum(x, 0))


def test_divergence_reports_epoch():
    model = S.make_model([2, 8, 8], ["a1", "a1"], seed=0)
    data = S.make_dataset("blobs", 64, 0.3, seed=1)
    with pytest.raises(S.SearchError, match="epoch"):
        S.train_search(model, data, S.SearchConfig(lr=50.0, epochs=20, seed=0))


def test_unknown_variant_is_refused_before_the_weight_bound():
    with pytest.raises(S.SearchError, match="^unknown variant 'zz'$"):
        S.make_model([2, 2000, 2000], ["a1", "zz"])


@pytest.mark.parametrize("dims", [[2], []])
def test_empty_variant_list_is_refused_before_any_weight_is_drawn(monkeypatch, dims):
    monkeypatch.setattr(S, "generator", lambda seed: pytest.fail("a weight was drawn"))
    with pytest.raises(S.SearchError, match="^need at least one block variant$"):
        S.make_model(dims, [])


def test_non_finite_alpha_init_is_refused():
    with pytest.raises(S.SearchError, match="^alpha must be finite$"):
        S.make_model([2, 8], ["a1"], alpha_init=float("nan"))


MIXES = ["a1,a1,a1", "a1,a2,a3", "a1,a2"]


def weights_equal(a, b):
    return all(np.array_equal(u, v) for u, v in zip(S._weights(a), S._weights(b)))


@pytest.mark.parametrize("variants", MIXES)
def test_backward_keeps_the_bits_of_the_reference(variants):
    vs = variants.split(",")
    model = S.make_model([2] + [6] * len(vs), vs, seed=21, alpha_init=0.3)
    x, y = S.make_dataset("moons", 13, 0.3, seed=22)
    got, want = S.backward(model, (x, y), 1e-3), reference_backward(model, (x, y), 1e-3)
    assert got.alpha == want.alpha
    for field in ("w_expand", "w_project"):
        assert all(np.array_equal(g, w) for g, w in zip(getattr(got, field), getattr(want, field)))
    assert np.array_equal(got.w_head, want.w_head)
    assert np.array_equal(got.b_head, want.b_head)


def test_a_training_step_allocates_no_array():
    # What a warm step still allocates (Python scalars, numpy's iterator buffers for
    # the softmax's broadcasts) does not grow with the width, while a single
    # [16, 1024] activation of the wide model would take 128 KB.
    peaks = []
    for width in (8, 256):
        model = S.make_model([2] + [width] * 3, ["a1", "a1", "a1"], seed=0)
        x, y = S.make_dataset("moons", 16, 0.3, seed=1)
        ws = S._Workspace(model, len(y))
        grads = S._grads_in(model, np.empty(sum(a.size for a in S._weights(model))))
        onehot = np.eye(2)[y]
        S._backward(ws, x, onehot, 1e-3, grads)
        peaks.append(traced_peak_mb(S._backward, ws, x, onehot, 1e-3, grads) * 2**20)
    assert peaks[1] <= peaks[0] + 1024


# 37 samples leave a last batch of 5; 256 at width 8 is the CLI's default model, and
# with moons or xor at lr 0.05 the benchmark's afrb-search. Batch 1 makes every matrix
# product a one-row product; batch 64 takes all 37 samples in one step.
REFERENCE_LOOP_CASES = [
    pytest.param(samples, variants, lam, "moons", 0.1, 8, id=f"{samples}-{variants}-{lam}")
    for samples in (37, 256) for variants in MIXES for lam in (0.0, 1e-3)
] + [pytest.param(256, "a1,a1,a1", 1e-3, dataset, 0.05, 8, id=f"bench-{dataset}")
     for dataset in ("moons", "xor")
] + [pytest.param(37, "a1,a2,a3", 1e-3, "moons", 0.1, batch, id=f"37-a1,a2,a3-batch{batch}")
     for batch in (1, 64)]


@pytest.mark.parametrize("samples,variants,lam,dataset,lr,batch", REFERENCE_LOOP_CASES)
def test_train_search_keeps_the_bits_of_the_reference_loop(samples, variants, lam, dataset, lr,
                                                           batch):
    vs = variants.split(",")
    width, epochs = (6, 12) if samples == 37 else (8, 6)
    models = [S.make_model([2] + [width] * len(vs), vs, seed=11) for _ in range(2)]
    data = S.make_dataset(dataset, samples, 0.3, seed=12)
    cfg = S.SearchConfig(lam=lam, lr=lr, epochs=epochs, batch=batch, seed=13)
    trace = S.train_search(models[0], data, cfg)
    want = reference_train_search(models[1], data, cfg)
    assert (trace.loss, trace.accuracy, trace.regularizer, trace.alphas) == want
    assert weights_equal(*models)


def test_diverging_train_search_raises_the_reference_message():
    errors = []
    for train in (S.train_search, reference_train_search):
        model = S.make_model([2, 8, 8], ["a1", "a1"], seed=0)
        data = S.make_dataset("blobs", 64, 0.3, seed=1)
        with pytest.raises(S.SearchError) as info:
            train(model, data, S.SearchConfig(lr=50.0, epochs=20, seed=0))
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("training diverged at epoch ")

