"""Machine state of the VIR interpreter: registers, memory, call stack."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.errors import ExecutionError

#: Default number of addressable memory words.
DEFAULT_MEMORY_WORDS = 1 << 16

#: Default maximum call-stack depth before an ExecutionError.
DEFAULT_MAX_CALL_DEPTH = 1024


@dataclass
class Frame:
    """One call-stack frame: where to resume in the caller.

    Attributes:
        function: caller function name.
        block: caller block label.
        instr_index: index of the instruction *after* the call.
    """

    function: str
    block: str
    instr_index: int


class MachineState:
    """Registers, flat word memory and the call stack.

    Registers are created on first write and read as 0 before that —
    generated code doesn't need explicit initialisation preambles.
    """

    def __init__(self, memory_words: int = DEFAULT_MEMORY_WORDS,
                 max_call_depth: int = DEFAULT_MAX_CALL_DEPTH):
        self.registers: Dict[str, float | int] = {}
        self.memory: List[float | int] = [0] * memory_words
        self.call_stack: List[Frame] = []
        self.max_call_depth = max_call_depth

    def read(self, reg: str):
        """Read register ``reg`` (0 if never written)."""
        return self.registers.get(reg, 0)

    def write(self, reg: str, value) -> None:
        """Write register ``reg``."""
        self.registers[reg] = value

    def load(self, address: int):
        """Read memory word at ``address``."""
        self._check_address(address)
        return self.memory[address]

    def store(self, address: int, value) -> None:
        """Write memory word at ``address``."""
        self._check_address(address)
        self.memory[address] = value

    def _check_address(self, address: int) -> None:
        if not isinstance(address, int):
            raise ExecutionError(f"non-integer memory address {address!r}")
        if not 0 <= address < len(self.memory):
            raise ExecutionError(
                f"memory address {address} outside [0, {len(self.memory)})")

    def push_frame(self, frame: Frame) -> None:
        """Push a return frame, enforcing the depth limit."""
        if len(self.call_stack) >= self.max_call_depth:
            raise ExecutionError(
                f"call stack exceeded {self.max_call_depth} frames")
        self.call_stack.append(frame)

    def pop_frame(self) -> Optional[Frame]:
        """Pop the return frame, or None when returning from the entry."""
        return self.call_stack.pop() if self.call_stack else None
