"""Instruction-level interpreter for VIR programs.

The interpreter is the "profiling phase" engine of the simulated DBT: it
executes programs while emitting the block/branch event stream
(:class:`ExecutionListener`) that profilers and the live translator consume.
"""

from .events import ExecutionListener, NullListener, TeeListener
from .interpreter import DEFAULT_STEP_LIMIT, Interpreter, RunResult
from .machine import (DEFAULT_MAX_CALL_DEPTH, DEFAULT_MEMORY_WORDS, Frame,
                      MachineState)

__all__ = [
    "DEFAULT_MAX_CALL_DEPTH", "DEFAULT_MEMORY_WORDS", "DEFAULT_STEP_LIMIT",
    "ExecutionListener", "Frame", "Interpreter", "MachineState",
    "NullListener", "RunResult", "TeeListener",
]
