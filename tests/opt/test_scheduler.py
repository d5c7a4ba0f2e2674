"""Dependence-DAG and list-scheduler tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import instructions as ins
from repro.ir.instructions import Opcode
from repro.opt import (MachineModel, build_dag, list_schedule,
                       sequential_cycles)


class TestMachineModel:
    def test_default_latencies(self):
        machine = MachineModel()
        assert machine.latency(Opcode.ADD) == 1
        assert machine.latency(Opcode.MUL) == 3
        assert machine.latency(Opcode.FDIV) == 16

    def test_width_validated(self):
        with pytest.raises(ValueError):
            MachineModel(width=0)


class TestDAG:
    def test_raw_dependence(self):
        code = [ins.li("a", 1), ins.add("b", "a", "a")]
        dag = build_dag(code)
        assert 1 in dag.successors[0]

    def test_waw_dependence(self):
        code = [ins.li("a", 1), ins.li("a", 2)]
        dag = build_dag(code)
        assert 1 in dag.successors[0]

    def test_war_dependence(self):
        code = [ins.add("b", "a", "a"), ins.li("a", 2)]
        dag = build_dag(code)
        assert 1 in dag.successors[0]

    def test_independent_instructions_unordered(self):
        code = [ins.li("a", 1), ins.li("b", 2)]
        dag = build_dag(code)
        assert dag.successors == [[], []]

    def test_store_orders_memory(self):
        code = [ins.store("v", "p", 0), ins.load("x", "q", 0)]
        dag = build_dag(code)
        assert 1 in dag.successors[0]

    def test_loads_do_not_order_each_other(self):
        code = [ins.load("x", "p", 0), ins.load("y", "q", 0)]
        dag = build_dag(code)
        assert dag.successors == [[], []]

    def test_store_after_load_ordered(self):
        code = [ins.load("x", "p", 0), ins.store("v", "q", 0)]
        dag = build_dag(code)
        assert 1 in dag.successors[0]

    def test_call_is_barrier(self):
        code = [ins.li("a", 1), ins.call("f"), ins.li("b", 2)]
        dag = build_dag(code)
        assert 1 in dag.successors[0]
        assert 2 in dag.successors[1]


class TestListSchedule:
    def test_empty(self):
        schedule = list_schedule([])
        assert schedule.length == 0
        assert schedule.issue_cycle == []

    def test_independent_ops_pack_to_width(self):
        machine = MachineModel(width=2)
        code = [ins.li(f"r{i}", i) for i in range(4)]
        schedule = list_schedule(code, machine)
        assert schedule.length == 2
        assert sorted(schedule.issue_cycle) == [0, 0, 1, 1]

    def test_dependent_chain_serialises(self):
        code = [ins.li("a", 1), ins.add("b", "a", "a"),
                ins.add("c", "b", "b")]
        schedule = list_schedule(code, MachineModel(width=4))
        assert schedule.length == 3
        assert schedule.issue_cycle == [0, 1, 2]

    def test_latency_respected(self):
        code = [ins.mul("p", "a", "b"), ins.add("q", "p", "p")]
        schedule = list_schedule(code, MachineModel(width=4))
        # mul at 0 (latency 3) -> add at 3, completes at 4
        assert schedule.issue_cycle == [0, 3]
        assert schedule.length == 4

    def test_critical_path_prioritised(self):
        machine = MachineModel(width=1)
        # the fdiv heads a long chain: it must issue first
        code = [ins.li("x", 1),
                ins.binop(Opcode.FDIV, "d", "a", "b"),
                ins.add("e", "d", "d")]
        schedule = list_schedule(code, machine)
        assert schedule.issue_cycle[1] == 0

    def test_never_longer_than_sequential(self):
        code = [ins.li("a", 1), ins.mul("b", "a", "a"),
                ins.add("c", "b", "a"), ins.store("c", "base", 0)]
        schedule = list_schedule(code)
        assert schedule.length <= sequential_cycles(code)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["li", "add", "mul", "load"]),
                    min_size=1, max_size=20),
           st.integers(1, 6))
    def test_schedule_invariants_random(self, kinds, width):
        code = []
        regs = ["r0", "r1", "r2"]
        for i, kind in enumerate(kinds):
            rd = regs[i % 3]
            rs = regs[(i + 1) % 3]
            if kind == "li":
                code.append(ins.li(rd, i))
            elif kind == "add":
                code.append(ins.add(rd, rs, rs))
            elif kind == "mul":
                code.append(ins.mul(rd, rs, rs))
            else:
                code.append(ins.load(rd, rs, 0))
        machine = MachineModel(width=width)
        schedule = list_schedule(code, machine)
        # every instruction issued exactly once, within bounds
        assert all(c >= 0 for c in schedule.issue_cycle)
        assert schedule.length <= sequential_cycles(code, machine)
        # no more than `width` instructions share a cycle
        from collections import Counter
        per_cycle = Counter(schedule.issue_cycle)
        assert max(per_cycle.values()) <= width
        # dependences respected: consumer issues after producer completes
        dag = build_dag(code)
        for src in range(len(code)):
            done = schedule.issue_cycle[src] + \
                machine.latency(code[src].opcode)
            for dst in dag.successors[src]:
                assert schedule.issue_cycle[dst] >= done
