"""NAVEP frequency-recovery tests (the paper's Figure 4 mechanics)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_normalization
from repro.analysis.verify import (CONSERVATION_ERROR_TOL,
                                   CONSERVATION_WARN_TOL)
from repro.core import CopyRef, DuplicatedGraph, normalize_avep
from repro.dbt import DBTConfig, ReplayDBT
from repro.profiles import (BlockProfile, EdgeKind, ProfileSnapshot, Region,
                            RegionKind, avep_from_trace)
from repro.stochastic import ProgramBehavior, record_trace, steady, walk


def _frequency(navep, ref):
    """NAVEP frequency of one copy."""
    return float(navep.frequencies[navep.graph.node_index(ref)])


def _avep(block_counts):
    snapshot = ProfileSnapshot(label="AVEP", input_name="ref",
                               threshold=None)
    for block, (use, taken) in block_counts.items():
        snapshot.blocks[block] = BlockProfile(block, use=use, taken=taken)
    return snapshot


def test_known_blocks_keep_avep_frequency(nested_cfg):
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    navep = normalize_avep(graph, avep)
    # non-duplicated originals pinned exactly
    assert _frequency(navep, CopyRef(1)) == 100.0
    assert _frequency(navep, CopyRef(4)) == 100.0


def test_copies_sum_to_avep_frequency(nested_cfg):
    """The paper's conservation invariant on a solvable instance."""
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    navep = normalize_avep(graph, avep)
    assert navep.block_total(2) == pytest.approx(2000.0, rel=0.01)
    assert navep.block_total(3) == pytest.approx(1900.0, rel=0.01)
    # instance receives essentially all the flow (everything enters the
    # region through its entry).
    assert _frequency(navep, CopyRef(2, 0, 0)) == \
        pytest.approx(2000.0, rel=0.02)


def test_frequencies_never_negative(nested_cfg, nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 40_000, seed=9)
    avep = avep_from_trace(trace)
    replay = ReplayDBT(trace, nested_cfg,
                       DBTConfig(threshold=20, pool_trigger_size=3))
    inip = replay.snapshot()
    graph = DuplicatedGraph(nested_cfg, inip)
    navep = normalize_avep(graph, inip and avep)
    assert (navep.frequencies >= 0.0).all()


def test_conservation_on_real_pipeline(nested_cfg, nested_behavior):
    """End-to-end: duplicated copies of every block sum to ~AVEP."""
    trace = walk(nested_cfg, nested_behavior, 60_000, seed=21)
    avep = avep_from_trace(trace)
    replay = ReplayDBT(trace, nested_cfg,
                       DBTConfig(threshold=50, pool_trigger_size=3))
    inip = replay.snapshot()
    graph = DuplicatedGraph(nested_cfg, inip)
    navep = normalize_avep(graph, avep)
    for block in sorted(graph.duplicated_blocks()):
        expected = avep.block_frequency(block)
        if expected > 100:  # only meaningful for warm blocks
            assert navep.block_total(block) == \
                pytest.approx(expected, rel=0.05), f"block {block}"


def test_no_duplication_is_identity(nested_cfg):
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({b: (10 * (b + 1), 0) for b in range(9)})
    navep = normalize_avep(graph, avep)
    for block in range(9):
        assert _frequency(navep, CopyRef(block)) == 10 * (block + 1)


def test_clipped_negative_copies_are_counted(nested_cfg, monkeypatch):
    """A negative least-squares copy is clipped to zero as before, and
    the clip is recorded instead of hidden."""
    from repro.obs.registry import counter_value, get_registry

    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    mass = get_registry().histogram("navep.clipped_negative_mass")

    def solve():
        copies, solves = counter_value("navep.clipped_copies"), mass.count
        frequencies = normalize_avep(graph, avep).frequencies
        assert mass.count == solves + 1  # one observation per solve
        return (frequencies, counter_value("navep.clipped_copies") - copies,
                mass.values()[-1])

    clean, clean_copies, clean_mass = solve()
    # lstsq solves for the unknown copies only, in node order; force the
    # hottest of them negative.
    duplicated = graph.duplicated_blocks()
    unknown = [v for v, ref in enumerate(graph.nodes)
               if ref.is_instance or ref.block_id in duplicated]
    k = int(np.argmax(clean[unknown]))
    assert clean[unknown[k]] > 0
    real_lstsq = np.linalg.lstsq

    def negative_hottest(a, b, rcond=None):
        x, *rest = real_lstsq(a, b, rcond=rcond)
        x = x.copy()
        x[k] = -2.5
        return (x, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", negative_hottest)
    clipped, copies, clipped_mass = solve()

    assert clipped[unknown[k]] == 0.0
    others = np.arange(graph.num_nodes) != unknown[k]
    np.testing.assert_array_equal(clipped[others], clean[others])
    assert copies == clean_copies + 1
    assert clipped_mass == pytest.approx(clean_mass + 2.5)


# ---------------------------------------------------------------------------
# The paper's §3.1 invariant as a property, and the raw-solution check.
# ---------------------------------------------------------------------------

def _solve_nested(cfg, p_inner, p_diamond, p_exit, steps, seed, threshold,
                  trigger):
    behavior = ProgramBehavior()
    behavior.set(2, steady(p_inner))
    behavior.set(4, steady(p_diamond))
    behavior.set(7, steady(p_exit))
    trace = record_trace(cfg, behavior, steps, seed=seed)
    avep = avep_from_trace(trace)
    inip = ReplayDBT(trace, cfg, DBTConfig(
        threshold=threshold, pool_trigger_size=trigger)).snapshot()
    graph = DuplicatedGraph(cfg, inip)
    return graph, avep, normalize_avep(graph, avep)


@given(p_inner=st.floats(0.5, 0.98), p_diamond=st.floats(0.0, 1.0),
       p_exit=st.floats(0.0, 0.01), steps=st.integers(10_000, 40_000),
       seed=st.integers(0, 2**31 - 1),
       threshold=st.sampled_from((1, 2, 5, 10, 20, 50, 100)),
       trigger=st.integers(1, 4))
@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_copies_sum_to_avep_frequency_property(
        nested_cfg, p_inner, p_diamond, p_exit, steps, seed, threshold,
        trigger):
    """On well-mixed runs every duplicated block's copies sum to its AVEP
    frequency within the verifier's warning band, and ``--verify`` has
    nothing to say about the solve."""
    graph, avep, navep = _solve_nested(nested_cfg, p_inner, p_diamond,
                                       p_exit, steps, seed, threshold,
                                       trigger)
    for block in graph.duplicated_blocks():
        expected = avep.block_frequency(block)
        drift = abs(navep.block_total(block) - expected) / max(expected, 1)
        assert drift <= CONSERVATION_WARN_TOL, f"block {block}"
    assert not verify_normalization(navep, avep).diagnostics


@given(p_inner=st.sampled_from((0.0, 0.3, 0.5, 0.9, 0.99, 1.0)),
       p_diamond=st.floats(0.0, 1.0), p_exit=st.floats(0.0, 1.0),
       steps=st.integers(0, 5_000), seed=st.integers(0, 2**31 - 1),
       threshold=st.integers(1, 100), trigger=st.integers(1, 4))
@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_clip_bookkeeping_property(nested_cfg, p_inner, p_diamond, p_exit,
                                   steps, seed, threshold, trigger):
    """Whatever the run, stored frequencies are finite and non-negative
    and the clipped mass sits only on the copies the clip zeroed."""
    _, _, navep = _solve_nested(nested_cfg, p_inner, p_diamond, p_exit,
                                steps, seed, threshold, trigger)
    assert np.isfinite(navep.frequencies).all()
    assert (navep.frequencies >= 0.0).all()
    assert (navep.negative_mass >= 0.0).all()
    assert not (navep.negative_mass * navep.frequencies).any()


def _forced_negative(nested_cfg, monkeypatch, fraction):
    """Solve the loop-region instance with its hottest unknown copy forced
    to ``-fraction`` times its block's AVEP frequency."""
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    clean = normalize_avep(graph, avep)
    duplicated = graph.duplicated_blocks()
    unknown = [v for v, ref in enumerate(graph.nodes)
               if ref.is_instance or ref.block_id in duplicated]
    k = int(np.argmax(clean.frequencies[unknown]))
    block = graph.nodes[unknown[k]].block_id
    forced = -fraction * avep.block_frequency(block)
    real_lstsq = np.linalg.lstsq

    def negative_hottest(a, b, rcond=None):
        x, *rest = real_lstsq(a, b, rcond=rcond)
        x = x.copy()
        x[k] = forced
        return (x, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", negative_hottest)
    navep = normalize_avep(graph, avep)
    monkeypatch.undo()
    assert navep.frequencies[unknown[k]] == 0.0  # the clip still applies
    assert navep.negative_mass[unknown[k]] == -forced
    return block, avep, navep


def test_forced_negative_solution_is_a_verify_error(nested_cfg,
                                                    monkeypatch):
    block, avep, navep = _forced_negative(
        nested_cfg, monkeypatch, 2 * CONSERVATION_ERROR_TOL)
    assert navep.block_negative_mass(block) > \
        CONSERVATION_ERROR_TOL * avep.block_frequency(block)
    report = verify_normalization(navep, avep)
    assert (("navep.negative-frequency", f"block {block}")
            in {(d.code, d.where) for d in report.diagnostics})


def test_small_clip_stays_within_tolerance(nested_cfg, monkeypatch):
    """Clipped mass under ``error_tol`` of the block's frequency is solver
    noise, not a negative-frequency error."""
    _, avep, navep = _forced_negative(nested_cfg, monkeypatch,
                                      CONSERVATION_ERROR_TOL / 10)
    report = verify_normalization(navep, avep)
    assert "navep.negative-frequency" not in report.codes()


# -- solver health: residual norm and rank -----------------------------------


def _loop_region_system(nested_cfg):
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    return graph, avep


def _health_solve(graph, avep):
    """Solve once; return (residual norm, rank deficit, deficient count)
    as recorded for that solve."""
    from repro.obs.registry import counter_value, get_registry

    residuals = get_registry().histogram("navep.residual_norm")
    deficits = get_registry().histogram("navep.rank_deficit")
    solves, deficient = residuals.count, counter_value("navep.rank_deficient")
    navep = normalize_avep(graph, avep)
    assert residuals.count == deficits.count == solves + 1
    return (navep, residuals.values()[-1], deficits.values()[-1],
            counter_value("navep.rank_deficient") - deficient)


def test_full_rank_solve_reports_health(nested_cfg):
    """Every solve records its residual norm and rank deficit; the loop
    region's system has full column rank."""
    graph, avep = _loop_region_system(nested_cfg)
    _, residual, deficit, deficient = _health_solve(graph, avep)
    assert np.isfinite(residual) and residual >= 0.0
    assert deficit == 0 and deficient == 0


def test_forced_rank_deficient_system_is_counted(nested_cfg, monkeypatch):
    """With one unknown's column zeroed the system loses a rank: the
    solve counts as rank-deficient and its residual is the distance of
    that solution from the real system."""
    graph, avep = _loop_region_system(nested_cfg)
    clean, _, _, _ = _health_solve(graph, avep)
    real_lstsq = np.linalg.lstsq

    def drop_first_column(a, b, rcond=None):
        a = a.copy()
        a[:, 0] = 0.0
        return real_lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", drop_first_column)
    navep, residual, deficit, deficient = _health_solve(graph, avep)
    monkeypatch.undo()
    assert deficit == 1 and deficient == 1
    assert residual > 0.0
    assert not np.array_equal(navep.frequencies, clean.frequencies)


def test_solve_records_the_drift_the_verifier_reads(nested_cfg):
    """Each solve observes its worst relative conservation drift; the
    verifier reads the same per-block numbers, recomputed only when the
    frequencies are replaced."""
    from repro.obs.registry import get_registry

    graph, avep = _loop_region_system(nested_cfg)
    drifts = get_registry().histogram("navep.conservation_drift")
    seen = drifts.count
    navep = normalize_avep(graph, avep)
    per_block = navep.conservation_drift(avep)
    assert drifts.count == seen + 1
    assert set(per_block) == graph.duplicated_blocks()
    assert drifts.values()[-1] == max(per_block.values())
    for block, drift in per_block.items():
        expected = avep.block_frequency(block)
        assert drift == pytest.approx(
            abs(navep.block_total(block) - expected) / max(expected, 1))
    assert navep.conservation_drift(avep) is per_block
    navep.frequencies = navep.frequencies * 2.0
    assert navep.conservation_drift(avep) is not per_block


def test_study_manifest_reports_navep_health():
    """The manifest carries the run's worst NAVEP solve, and the report
    renders it."""
    from repro.harness import run_full_study
    from repro.obs.manifest import render_manifest

    results = run_full_study(names=["gzip", "mcf"], thresholds=[5, 50],
                             steps_scale=0.02, include_perf=False,
                             cache_dir=None, jobs=1)
    health = results.manifest["navep"]
    assert health["solves"] > 0
    assert health["max_residual_bench"] in ("gzip", "mcf")
    assert health["max_residual_norm"] >= 0.0
    assert health["rank_deficient"] == 0 and health["max_rank_deficit"] == 0
    assert "NAVEP health:" in render_manifest(results.manifest)


def test_study_manifest_reports_conservation_drift():
    """The manifest's navep section carries the run's worst relative
    conservation drift and its benchmark, and the report prints it."""
    from repro.harness import run_full_study
    from repro.obs.manifest import render_manifest
    from repro.obs.registry import get_registry

    seen = get_registry().histogram("navep.conservation_drift").count
    results = run_full_study(names=["gzip", "mcf"], thresholds=[5, 50],
                             steps_scale=0.02, include_perf=False,
                             cache_dir=None, jobs=1)
    health = results.manifest["navep"]
    drift = get_registry().histogram("navep.conservation_drift")
    assert drift.count - seen == health["solves"]
    assert health["max_conservation_drift"] in drift.values()
    assert 0.0 <= health["max_conservation_drift"] < 0.5
    if health["max_conservation_drift"] > 0:
        assert health["max_drift_bench"] in ("gzip", "mcf")
    line = next(line for line in render_manifest(results.manifest).split("\n")
                if line.startswith("NAVEP health:"))
    assert "conservation drift" in line
