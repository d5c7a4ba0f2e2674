"""The vector walker must stay well ahead of the scalar reference walker.

Each benchmark's ref walk, at a quarter of its length, is timed with
:class:`CFGWalker` and :class:`VecWalker` interleaved: scalar then
vector in each of three repetitions, so drift on a shared machine
charges both sides.  The best of three per side must give the vector
walker at least a 1.5x lead.  The floor is far below the measured lead
(15x on mcf and 20x on swim on a 2-core VM), so it catches a gross
regression of the hot path, such as windows that stop running, and not
timing noise.  The count-only walk (the study's train input) is held to
the same floor against the scalar walk counted from its arrays.  Byte
identity of the two walks is the differential suite's job
(``test_vecwalker_diff.py``).
"""

import time

import pytest

from repro.stochastic import CFGWalker, VecWalker
from repro.workloads import get_benchmark

from ..reference import walker_counts

#: Minimum scalar/vector time ratio of a ref walk.
MIN_SPEEDUP = 1.5


def assert_vector_leads(name, scalar, vector):
    """Best of three interleaved ``scalar()``/``vector()`` timings."""
    best_scalar = best_vector = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        scalar()
        t1 = time.perf_counter()
        vector()
        t2 = time.perf_counter()
        best_scalar = min(best_scalar, t1 - t0)
        best_vector = min(best_vector, t2 - t1)
    assert best_scalar / best_vector >= MIN_SPEEDUP, (
        f"{name}: scalar {best_scalar:.3f}s, vector {best_vector:.3f}s")


@pytest.mark.parametrize("name", ["mcf", "swim"])
def test_vector_walker_beats_scalar(name):
    bench = get_benchmark(name).scaled(0.25)
    behavior, steps, seed = bench._input("ref")
    assert_vector_leads(
        name, lambda: CFGWalker(bench.cfg, behavior, seed=seed).run(steps),
        lambda: VecWalker(bench.cfg, behavior, seed=seed).run(steps))


@pytest.mark.parametrize("name", ["mcf", "swim"])
def test_count_only_walker_beats_scalar_counting(name):
    bench = get_benchmark(name).scaled(0.25)
    behavior, steps, seed = bench._input("ref")
    assert_vector_leads(
        name, lambda: walker_counts(bench.cfg, behavior, steps, seed=seed),
        lambda: VecWalker(bench.cfg, behavior, seed=seed).count(steps))
