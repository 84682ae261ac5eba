# Hypothesis settings shared by the property tests: a fixed derivation of examples
# (no example database), no per-example deadline.
PROFILE = dict(derandomize=True, deadline=None, max_examples=150, database=None)
