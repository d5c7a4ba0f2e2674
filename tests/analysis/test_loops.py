"""Program-level loop forests and irreducible-edge detection."""

from repro.analysis import irreducible_edges, program_loop_forests
from repro.analysis.loops import function_loops
from repro.cfg import ControlFlowGraph


def test_loop_program_forest(loop_program):
    forests = program_loop_forests(loop_program)
    assert set(forests) == {"main"}
    fl = forests["main"]
    assert fl.function == "main"
    assert fl.irreducible == []
    loops = fl.forest.loops
    assert len(loops) == 1
    header = fl.label_to_node["loop"]
    assert loops[0].header == header


def test_nested_cfg_finds_both_loops(nested_cfg):
    # the fixture has an inner loop (header 2) inside an outer one
    # (header 1); irreducible_edges must be empty
    assert irreducible_edges(nested_cfg) == []


def test_irreducible_cycle_is_flagged():
    # 0 branches into a 1 <-> 2 cycle at both nodes: neither cycle node
    # dominates the other, so one retreating edge is irreducible.
    cfg = ControlFlowGraph([(1, 2), (2,), (1,)])
    edges = irreducible_edges(cfg)
    assert len(edges) == 1
    tail, head = edges[0]
    assert {tail, head} == {1, 2}


def test_natural_back_edge_is_not_irreducible(diamond_cfg):
    assert irreducible_edges(diamond_cfg) == []


def test_function_loops_label_mapping(loop_program):
    fl = function_loops(loop_program, "main")
    assert set(fl.label_to_node) == {"entry", "loop", "done"}
    assert fl.cfg.num_nodes == 3
    assert fl.irreducible == []


def test_multi_function_program_gets_one_forest_each(loop_program):
    from repro.ir import ProgramBuilder
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        fb.block("entry").call("leaf").halt()
    with pb.function("leaf") as fb:
        fb.block("entry").ret()
    forests = program_loop_forests(pb.build())
    assert set(forests) == {"main", "leaf"}
    assert all(fl.irreducible == [] for fl in forests.values())
    assert all(not fl.forest.loops for fl in forests.values())
