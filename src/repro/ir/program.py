"""Program structure: basic blocks, functions, and whole programs.

A :class:`Program` is a set of :class:`Function`\\ s, each of which is an
ordered mapping of labelled :class:`BasicBlock`\\ s.  Blocks end in exactly
one terminator and have at most two successors, so the translator's
"use"/"taken" counters attach directly to blocks.

Every block in a program also receives a dense integer *block id* (its
position in :meth:`Program.block_table`), which is what the execution
engines, the DBT and the profile structures use — strings are for humans,
ids are for the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BuildError
from .instructions import Instruction


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in one terminator.

    Attributes:
        label: block name, unique within its function.
        instructions: the body; the last element must be a terminator once
            the block is sealed.
    """

    label: str
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction:
        """The block's final (terminating) instruction.

        Raises :class:`BuildError` if the block is empty or unsealed.
        """
        if not self.instructions or not self.instructions[-1].is_terminator:
            raise BuildError(f"block {self.label!r} has no terminator")
        return self.instructions[-1]

    @property
    def is_sealed(self) -> bool:
        """True once the block ends in a terminator."""
        return bool(self.instructions) and self.instructions[-1].is_terminator

    def successor_labels(self) -> Tuple[str, ...]:
        """Labels of successor blocks; taken target first for ``br``."""
        return self.terminator.successors()

    def body(self) -> Sequence[Instruction]:
        """The non-terminator instructions."""
        return self.instructions[:-1] if self.is_sealed else self.instructions

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class Function:
    """A named function: an entry label plus labelled blocks.

    Blocks preserve insertion order; the first inserted block is the entry
    unless ``entry`` is set explicitly.
    """

    name: str
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    entry: Optional[str] = None

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Insert ``block``; the first block added becomes the entry."""
        if block.label in self.blocks:
            raise BuildError(
                f"duplicate block {block.label!r} in function {self.name!r}")
        self.blocks[block.label] = block
        if self.entry is None:
            self.entry = block.label
        return block

    @property
    def entry_block(self) -> BasicBlock:
        """The function's entry block."""
        if self.entry is None:
            raise BuildError(f"function {self.name!r} has no blocks")
        return self.blocks[self.entry]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def __len__(self) -> int:
        return len(self.blocks)


class BlockRef(Tuple[str, str]):
    """A fully qualified block reference ``(function name, block label)``."""

    __slots__ = ()

    def __new__(cls, function: str, label: str) -> "BlockRef":
        return super().__new__(cls, (function, label))

    @property
    def function(self) -> str:
        return self[0]

    @property
    def label(self) -> str:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.function}:{self.label}"


@dataclass
class Program:
    """A complete VIR program.

    Attributes:
        functions: name -> :class:`Function`, insertion-ordered.
        entry: name of the function where execution starts (default "main").
    """

    functions: Dict[str, Function] = field(default_factory=dict)
    entry: str = "main"

    def add_function(self, function: Function) -> Function:
        """Insert ``function`` into the program."""
        if function.name in self.functions:
            raise BuildError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    @property
    def entry_function(self) -> Function:
        """The function named by :attr:`entry`."""
        if self.entry not in self.functions:
            raise BuildError(f"entry function {self.entry!r} is not defined")
        return self.functions[self.entry]

    # -- dense block id space ------------------------------------------------

    def block_table(self) -> List[Tuple[BlockRef, BasicBlock]]:
        """All blocks in deterministic order, paired with their refs.

        The index of a block in this list is its dense *block id*; the
        ordering is (function insertion order, block insertion order), so it
        is stable across runs for the same construction sequence.
        """
        table: List[Tuple[BlockRef, BasicBlock]] = []
        for fn in self.functions.values():
            for block in fn:
                table.append((BlockRef(fn.name, block.label), block))
        return table

    def block_ids(self) -> Dict[BlockRef, int]:
        """Mapping from block ref to dense block id."""
        return {ref: i for i, (ref, _) in enumerate(self.block_table())}

    def block(self, ref: BlockRef) -> BasicBlock:
        """Look up a block by fully qualified reference."""
        return self.functions[ref.function].blocks[ref.label]

    def num_blocks(self) -> int:
        """Total number of basic blocks in the program."""
        return sum(len(fn) for fn in self.functions.values())

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())
