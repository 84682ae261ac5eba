"""Calibration job: a fixed mix of plain Python and small numpy operations,
uncoupled from nnscale so that no change to nnscale can move it.

    python3 bench/calibrate.py

bench/run.py times this script as a fresh process before and after every
session to gauge how fast the machine is at that moment. It takes about 0.5 s
on a 2-core Xeon VM.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pair:
    a: int
    b: float


def main() -> None:
    acc = 0
    for i in range(150_000):
        p = Pair(i, i * 0.5)
        acc += hash((p.a, p.b)) % 7
    a = np.linspace(0.0, 1.0, 400 * 32 * 32).reshape(400, 32, 32)
    for _ in range(40):
        a = np.sqrt(a * a + 0.5) - 0.25 * a.mean(axis=0)
    m = np.full((8, 8), 0.125)
    for _ in range(20_000):
        m = np.maximum(m @ m.T, 0.0) * 0.99 + 0.001


if __name__ == "__main__":
    main()
