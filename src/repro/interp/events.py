"""Instrumentation event protocol of the interpreter.

The profiling phase of a two-phase DBT observes exactly two things per
block: that the block executed (**use**) and, if it ends in a conditional
branch, whether the branch was **taken**.  The interpreter reports both
through the :class:`ExecutionListener` protocol; anything implementing it
(profilers, trace recorders, the live DBT) can be attached.
"""

from __future__ import annotations

from typing import Protocol


class ExecutionListener(Protocol):
    """Receiver of block-level execution events."""

    def on_block(self, block_id: int) -> None:
        """Block ``block_id`` started executing (one *use*)."""

    def on_branch(self, block_id: int, taken: bool) -> None:
        """Block ``block_id``'s conditional branch resolved to ``taken``."""


class NullListener:
    """A listener that ignores everything (the default)."""

    def on_block(self, block_id: int) -> None:  # noqa: D102
        pass

    def on_branch(self, block_id: int, taken: bool) -> None:  # noqa: D102
        pass


class TeeListener:
    """Fans one event stream out to several listeners in order."""

    def __init__(self, *listeners: ExecutionListener):
        self.listeners = list(listeners)

    def on_block(self, block_id: int) -> None:  # noqa: D102
        for listener in self.listeners:
            listener.on_block(block_id)

    def on_branch(self, block_id: int, taken: bool) -> None:  # noqa: D102
        for listener in self.listeners:
            listener.on_branch(block_id, taken)
