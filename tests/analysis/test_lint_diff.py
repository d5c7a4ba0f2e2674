"""Differential: the possibly-undefined-read lint must equal its
reference path search on random VIR programs.

:func:`repro.analysis.dataflow.possibly_undefined_reads` solves a set
fixpoint over the label graph; :func:`tests.reference.reference_undefined_reads`
searches ``(block, defined-yet)`` states register by register.  Both run
on every function of programs from the round-trip strategy, which draws
calls, loops, unreachable blocks and reads of never-written registers.
"""

from hypothesis import given

from repro.analysis.dataflow import possibly_undefined_reads

from ..ir.test_roundtrip_property import programs
from ..reference import reference_undefined_reads


@given(programs())
def test_lint_equals_path_search(program):
    for fn in program:
        assert possibly_undefined_reads(fn) == reference_undefined_reads(fn)
