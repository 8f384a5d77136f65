"""Kernel micro-runs: ``linalg.rank``/``rref`` on fixed matrix shapes.

The shapes span the kernel's use in the program, from the 4x6 matrices of
P^3 work to the 20x22 matrices of meets in P^21.  Each shape runs on every
backend in ``linalg.available_backends()``; all backends must return the same
results.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# (op, rows, cols, entry height, matrices per repeat)
SHAPES = (
    ("rank", 4, 6, 31, 400),
    ("rank", 12, 14, 31, 40),
    ("rref", 4, 6, 31, 400),
    ("rref", 12, 14, 9, 40),
    ("rref", 20, 22, 5, 8),
)
REPEATS = 5


def _matrices(nrows, ncols, height, count, rng):
    return [
        [[rng.randint(-height, height) for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(count)
    ]


def micro_runs(linalg, seed):
    """Median microseconds per call for each shape on each backend.

    Returns ({backend: {metric name: us}}, list of disagreements).
    """
    rng = random.Random(seed)
    cases = [(op, r, c, _matrices(r, c, h, n, rng)) for op, r, c, h, n in SHAPES]
    default = linalg.backend_name()
    timings = {}
    answers = {}
    try:
        for backend in linalg.available_backends():
            linalg.set_backend(backend)
            per_backend = timings[backend] = {}
            for op, r, c, mats in cases:
                fn = getattr(linalg, op)
                answers.setdefault((op, r, c), {})[backend] = [fn(m) for m in mats]
                samples = []
                for _ in range(REPEATS):
                    t0 = perf_counter()
                    for m in mats:
                        fn(m)
                    samples.append((perf_counter() - t0) / len(mats))
                per_backend[f"kernel.{op}_{r}x{c}.us"] = statistics.median(samples) * 1e6
    finally:
        linalg.set_backend(default)
    disagreements = [
        f"{op} {r}x{c}" for (op, r, c), by_backend in answers.items()
        if any(v != by_backend[default] for v in by_backend.values())
    ]
    return timings, disagreements
