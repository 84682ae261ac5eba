import tracemalloc

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
