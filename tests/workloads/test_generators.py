"""Workload-skeleton generator tests."""

import pytest

from repro.cfg import find_loops, reachable
from repro.workloads import (DRIVER_ROLE, BranchySegment, ChainSegment,
                             LoopSegment, WorkloadBuilder, build_workload)


class TestWorkloadBuilder:
    def test_chain(self):
        builder = WorkloadBuilder()
        first, last = builder.chain(3)
        exit_block = builder.block("exit", arity=0)
        builder.wire(last, 0, exit_block)
        workload = builder.finish(entry=first)
        assert workload.num_blocks == 4
        assert workload.exit_block == exit_block

    def test_unwired_slot_rejected(self):
        builder = WorkloadBuilder()
        builder.block("a", arity=1)
        with pytest.raises(ValueError, match="unwired"):
            builder.finish()

    def test_no_exit_rejected(self):
        builder = WorkloadBuilder()
        a = builder.block("a", arity=1)
        builder.wire(a, 0, a)
        with pytest.raises(ValueError, match="exit"):
            builder.finish()

    def test_duplicate_role_rejected(self):
        builder = WorkloadBuilder()
        a = builder.block("a", arity=2)
        builder.role("x", a)
        with pytest.raises(ValueError, match="duplicate role"):
            builder.role("x", a)

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            WorkloadBuilder().block(arity=3)

    def test_diamond_registers_role(self):
        builder = WorkloadBuilder()
        split, join = builder.diamond("d")
        exit_block = builder.block("exit", arity=0)
        builder.wire(join, 0, exit_block)
        workload = builder.finish(entry=split)
        assert workload.branch_roles["d"] == split
        assert workload.cfg.is_branch(split)

    def test_bottom_loop_structure(self):
        builder = WorkloadBuilder()
        entry, end = builder.chain(2)
        _, latch = builder.bottom_loop("L", entry, end)
        exit_block = builder.block("exit", arity=0)
        builder.wire(latch, 1, exit_block)
        workload = builder.finish(entry=entry)
        info = workload.loops["L"]
        assert info.header == entry
        assert info.latch == latch
        assert workload.cfg.taken_target(latch) == entry  # back edge
        forest = find_loops(workload.cfg)
        assert entry in forest.headers


class TestBuildWorkload:
    def _segments(self):
        return [
            LoopSegment("l1", diamonds=1, chain=1),
            BranchySegment("b1", diamonds=2),
            ChainSegment("c1", blocks=2),
            LoopSegment("l2", diamonds=0, chain=1, nested=True),
        ]

    def test_structure(self):
        workload = build_workload(self._segments(), seed=3)
        roles = workload.branch_roles
        assert DRIVER_ROLE in roles
        assert "l1" in roles and "l1.d0" in roles
        assert "b1.d0" in roles and "b1.d1" in roles
        assert "l2" in roles and "l2.inner" in roles
        assert set(workload.loops) == {"l1", "l2", "l2.inner", DRIVER_ROLE}

    def test_everything_reachable(self):
        workload = build_workload(self._segments(), seed=3)
        assert reachable(workload.cfg) == set(range(workload.num_blocks))

    def test_loops_detected_by_analysis(self):
        workload = build_workload(self._segments(), seed=3)
        forest = find_loops(workload.cfg)
        for name, info in workload.loops.items():
            assert info.header in forest.headers, name

    def test_nested_loop_bodies_nest(self):
        workload = build_workload(self._segments(), seed=3)
        forest = find_loops(workload.cfg)
        outer, inner = [
            next(loop for loop in forest.loops if loop.header == header)
            for header in (workload.loops["l2"].header,
                           workload.loops["l2.inner"].header)]
        assert inner.body < outer.body

    def test_inner_loop_mirrors_branchiness(self):
        plain = build_workload([LoopSegment("p", diamonds=0, chain=1,
                                            nested=True)], seed=0)
        assert "p.inner.d0" not in plain.branch_roles
        branchy = build_workload([LoopSegment("p", diamonds=2, chain=1,
                                              nested=True)], seed=0)
        assert "p.inner.d0" in branchy.branch_roles

    def test_sizes_positive(self):
        workload = build_workload(self._segments(), seed=3)
        assert (workload.sizes > 0).all()
        assert len(workload.sizes) == workload.num_blocks

    def test_duplicate_segment_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            build_workload([ChainSegment("x"), ChainSegment("x")])

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            build_workload([])

    def test_deterministic_given_seed(self):
        a = build_workload(self._segments(), seed=5)
        b = build_workload(self._segments(), seed=5)
        assert a.cfg.succs == b.cfg.succs
        assert list(a.sizes) == list(b.sizes)
