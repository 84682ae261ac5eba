import tracemalloc

import numpy as np

import nnscale.tensor as T

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
