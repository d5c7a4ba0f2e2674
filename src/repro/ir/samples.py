"""A library of sample guest programs for the VIR machine.

These are the instruction-level counterparts of the synthetic block-level
workloads: small, fully deterministic guest programs with the control
structures DBT studies care about — counted loop nests, data-dependent
branches off a PRNG, function calls, memory-walking loops.  They drive
the interpreter-based examples and tests, and give the live translator
real code to retranslate.

Every builder returns a validated :class:`~repro.ir.program.Program`; the
expected observable results are documented per function and asserted in
``tests/ir/test_samples.py``.
"""

from __future__ import annotations

from .builder import ProgramBuilder
from .instructions import Cond
from .program import Program

#: Multiplier/increment/modulus of the embedded linear congruential PRNG.
LCG_A = 1103515245
LCG_C = 12345
LCG_M = 1 << 31


def sum_loop(n: int = 100) -> Program:
    """Sum 1..n into ``acc``; final ``acc`` = n(n+1)/2.

    The canonical single counted loop: one hot block, one latch branch
    taken n-1 times.
    """
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("acc", 0).li("i", 1).li("one", 1).li("n", n)
           .jmp("loop"))
        (fb.block("loop")
           .add("acc", "acc", "i")
           .add("i", "i", "one")
           .br(Cond.LE, "i", "n", taken="loop", fall="done"))
        fb.block("done").halt()
    return pb.build()


def fibonacci(n: int = 20) -> Program:
    """Iterative Fibonacci; final ``fib`` = F(n) (F(0)=0, F(1)=1)."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("a", 0).li("b", 1).li("i", 0).li("one", 1).li("n", n)
           .br(Cond.GE, "i", "n", taken="done", fall="loop"))
        (fb.block("loop")
           .add("t", "a", "b")
           .mov("a", "b")
           .mov("b", "t")
           .add("i", "i", "one")
           .br(Cond.LT, "i", "n", taken="loop", fall="done"))
        (fb.block("done")
           .mov("fib", "a")
           .halt())
    return pb.build()


def nested_counters(outer: int = 30, inner: int = 20) -> Program:
    """A two-deep counted nest; final ``acc`` = outer × inner."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("acc", 0).li("i", 0).li("one", 1)
           .li("outer_n", outer).li("inner_n", inner)
           .jmp("outer_head"))
        fb.block("outer_head").li("j", 0).jmp("inner_head")
        (fb.block("inner_head")
           .add("acc", "acc", "one")
           .add("j", "j", "one")
           .br(Cond.LT, "j", "inner_n", taken="inner_head",
               fall="outer_latch"))
        (fb.block("outer_latch")
           .add("i", "i", "one")
           .br(Cond.LT, "i", "outer_n", taken="outer_head", fall="done"))
        fb.block("done").halt()
    return pb.build()


def sieve(limit: int = 100) -> Program:
    """Sieve of Eratosthenes over ``mem[2..limit)``.

    On exit ``mem[k]`` is 1 for composite ``k``, 0 for prime ``k``
    (k ≥ 2), and ``count`` holds the number of primes below ``limit``.
    Exercises memory-walking inner loops with data-dependent bounds.
    """
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("i", 2).li("one", 1).li("limit", limit)
           .jmp("outer_check"))
        (fb.block("outer_check")
           .mul("sq", "i", "i")
           .br(Cond.LT, "sq", "limit", taken="test_prime", fall="count"))
        (fb.block("test_prime")
           .load("flag", "i", 0)
           .br(Cond.NE, "flag", "zero", taken="next_i", fall="mark_init"))
        (fb.block("mark_init")
           .mul("j", "i", "i")
           .jmp("mark_loop"))
        (fb.block("mark_loop")
           .store("one", "j", 0)
           .add("j", "j", "i")
           .br(Cond.LT, "j", "limit", taken="mark_loop", fall="next_i"))
        (fb.block("next_i")
           .add("i", "i", "one")
           .jmp("outer_check"))
        (fb.block("count")
           .li("count", 0).li("k", 2)
           .jmp("count_loop"))
        (fb.block("count_loop")
           .load("flag", "k", 0)
           .br(Cond.NE, "flag", "zero", taken="count_next", fall="is_prime"))
        (fb.block("is_prime")
           .add("count", "count", "one")
           .jmp("count_next"))
        (fb.block("count_next")
           .add("k", "k", "one")
           .br(Cond.LT, "k", "limit", taken="count_loop", fall="done"))
        fb.block("done").halt()
    return pb.build()


def matmul(size: int = 8, a_base: int = 1000, b_base: int = 2000,
           c_base: int = 3000) -> Program:
    """Dense ``size×size`` matrix multiply ``C = A·B`` over memory.

    ``A[i][j] = i + j`` and ``B[i][j] = (i == j)`` (identity) are
    initialised by the program itself, so on exit ``C == A``.  A
    three-deep loop nest — the FP-workload shape at instruction level.
    """
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("n", size).li("one", 1).li("zero", 0)
           .li("abase", a_base).li("bbase", b_base).li("cbase", c_base)
           .li("i", 0)
           .jmp("init_i"))
        # initialisation: A[i][j] = i+j ; B[i][j] = (i==j)
        fb.block("init_i").li("j", 0).jmp("init_j")
        (fb.block("init_j")
           .mul("row", "i", "n").add("idx", "row", "j")
           .add("aaddr", "abase", "idx")
           .add("v", "i", "j").store("v", "aaddr", 0)
           .add("baddr", "bbase", "idx")
           .br(Cond.EQ, "i", "j", taken="diag", fall="offdiag"))
        fb.block("diag").store("one", "baddr", 0).jmp("init_next")
        fb.block("offdiag").store("zero", "baddr", 0).jmp("init_next")
        (fb.block("init_next")
           .add("j", "j", "one")
           .br(Cond.LT, "j", "n", taken="init_j", fall="init_i_next"))
        (fb.block("init_i_next")
           .add("i", "i", "one")
           .br(Cond.LT, "i", "n", taken="init_i", fall="mm_start"))
        # C = A * B
        fb.block("mm_start").li("i", 0).jmp("mm_i")
        fb.block("mm_i").li("j", 0).jmp("mm_j")
        fb.block("mm_j").li("sum", 0).li("k", 0).jmp("mm_k")
        (fb.block("mm_k")
           .mul("rowA", "i", "n").add("idxA", "rowA", "k")
           .add("addrA", "abase", "idxA").load("a", "addrA", 0)
           .mul("rowB", "k", "n").add("idxB", "rowB", "j")
           .add("addrB", "bbase", "idxB").load("b", "addrB", 0)
           .mul("p", "a", "b").add("sum", "sum", "p")
           .add("k", "k", "one")
           .br(Cond.LT, "k", "n", taken="mm_k", fall="mm_store"))
        (fb.block("mm_store")
           .mul("rowC", "i", "n").add("idxC", "rowC", "j")
           .add("addrC", "cbase", "idxC").store("sum", "addrC", 0)
           .add("j", "j", "one")
           .br(Cond.LT, "j", "n", taken="mm_j", fall="mm_i_next"))
        (fb.block("mm_i_next")
           .add("i", "i", "one")
           .br(Cond.LT, "i", "n", taken="mm_i", fall="done"))
        fb.block("done").halt()
    return pb.build()


def branchy_prng(iterations: int = 1000, seed: int = 12345) -> Program:
    """A data-dependent diamond driven by an LCG PRNG.

    ``hits`` counts iterations whose PRNG value falls below 3/4 of the
    modulus — a ~75%-taken branch, the INT-workload shape.  Also calls a
    helper function per iteration (exercising call/ret profiling).
    """
    pb = ProgramBuilder()
    with pb.function("step") as fb:
        (fb.block("entry")
           .mul("x", "x", "lcg_a").add("x", "x", "lcg_c")
           .mod("x", "x", "lcg_m")
           .ret())
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("x", seed).li("i", 0).li("one", 1)
           .li("n", iterations).li("hits", 0)
           .li("lcg_a", LCG_A).li("lcg_c", LCG_C).li("lcg_m", LCG_M)
           .li("threshold", LCG_M * 3 // 4)
           .jmp("loop"))
        (fb.block("loop")
           .call("step")
           .br(Cond.LT, "x", "threshold", taken="hit", fall="miss"))
        fb.block("hit").add("hits", "hits", "one").jmp("latch")
        fb.block("miss").nop(2).jmp("latch")
        (fb.block("latch")
           .add("i", "i", "one")
           .br(Cond.LT, "i", "n", taken="loop", fall="done"))
        fb.block("done").halt()
    return pb.build()


#: name -> builder, for tests/examples that want the whole set.
SAMPLES = {
    "sum_loop": sum_loop,
    "fibonacci": fibonacci,
    "nested_counters": nested_counters,
    "sieve": sieve,
    "matmul": matmul,
    "branchy_prng": branchy_prng,
}
