"""Instrumentation event protocol of the interpreter.

The profiling phase of a two-phase DBT observes exactly two things per
block: that the block executed (**use**) and, if it ends in a conditional
branch, whether the branch was **taken**.  The interpreter reports both
through the :class:`ExecutionListener` protocol; anything implementing it
(profilers, trace recorders, the live DBT) can be attached.

Scalar listeners pay one Python call per event, which caps the throughput
of SPEC-scale runs.  :class:`EventBatch` is the array form of the same
stream — one chunk of parallel ``blocks``/``taken`` arrays.  A batch
stream and the scalar stream it encodes are interchangeable:
:meth:`EventBatch.scatter` replays a batch through any scalar listener,
and :func:`iter_trace_batches` slices a recorded trace into batches (as
:meth:`~repro.stochastic.vecwalker.VecWalker.run_batches` does with the
trace it records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Protocol, Tuple

import numpy as np

#: Sentinel in a batch's ``taken`` array for non-branch block executions
#: (mirrors :data:`repro.stochastic.trace.NO_BRANCH` without importing the
#: stochastic layer into the event protocol).
NO_BRANCH_OUTCOME = -1


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


class RecordingListener:
    """Accumulates the raw event stream — handy in tests and examples.

    Attributes:
        blocks: block ids in execution order.
        branches: ``(block_id, taken)`` tuples in resolution order.
    """

    def __init__(self) -> None:
        self.blocks: List[int] = []
        self.branches: List[Tuple[int, bool]] = []

    def on_block(self, block_id: int) -> None:  # noqa: D102
        self.blocks.append(block_id)

    def on_branch(self, block_id: int, taken: bool) -> None:  # noqa: D102
        self.branches.append((block_id, taken))


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


@dataclass(frozen=True)
class EventBatch:
    """One chunk of the execution event stream in array form.

    ``blocks[i]`` is the block that executed at the chunk's *i*-th step;
    ``taken[i]`` is ``1``/``0`` for a resolved conditional branch at that
    step and :data:`NO_BRANCH_OUTCOME` for a plain block.  Concatenating a
    run's batches in order yields exactly the arrays of the equivalent
    :class:`repro.stochastic.trace.ExecutionTrace` — batching changes the
    delivery granularity, never the event content.

    Attributes:
        blocks: ``int32`` block ids, one per step.
        taken: ``int8`` branch outcomes, parallel to ``blocks``.
    """

    blocks: np.ndarray
    taken: np.ndarray

    def __post_init__(self) -> None:
        if self.blocks.shape != self.taken.shape:
            raise ValueError(
                f"blocks/taken length mismatch: "
                f"{self.blocks.shape} vs {self.taken.shape}")

    def __len__(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def num_branches(self) -> int:
        """How many steps in the chunk resolved a conditional branch."""
        return int(np.count_nonzero(self.taken != NO_BRANCH_OUTCOME))

    def scatter(self, listener: ExecutionListener) -> None:
        """Replay the chunk through a scalar listener, event by event.

        The bridge back to the per-event protocol: a batch producer can
        drive any legacy listener at the cost of re-scalarising.
        """
        on_block = listener.on_block
        on_branch = listener.on_branch
        for block, outcome in zip(self.blocks.tolist(), self.taken.tolist()):
            on_block(block)
            if outcome != NO_BRANCH_OUTCOME:
                on_branch(block, outcome == 1)


class BatchListener(Protocol):
    """Receiver of chunked execution events."""

    def on_batch(self, batch: EventBatch) -> None:
        """One chunk of the event stream, in execution order."""


def iter_trace_batches(trace: "ExecutionTraceLike",
                       chunk_steps: int = 65536) -> Iterator[EventBatch]:
    """Slice a recorded trace into :class:`EventBatch` chunks.

    Lets batch consumers (a :class:`BatchListener`, or
    :func:`replay_batches` into a scalar listener) run off any recorded
    trace; every batch but the last holds ``chunk_steps`` steps, which
    must be positive.
    """
    if chunk_steps < 1:
        raise ValueError(f"chunk_steps must be >= 1, got {chunk_steps}")
    blocks = trace.blocks
    taken = trace.taken
    for lo in range(0, len(blocks), chunk_steps):
        hi = lo + chunk_steps
        yield EventBatch(blocks=blocks[lo:hi], taken=taken[lo:hi])


def replay_batches(batches: Iterable[EventBatch],
                   listener: ExecutionListener) -> int:
    """Scatter a whole batch stream through a scalar listener.

    Returns the number of steps replayed.
    """
    steps = 0
    for batch in batches:
        batch.scatter(listener)
        steps += len(batch)
    return steps


class ExecutionTraceLike(Protocol):
    """Anything with parallel ``blocks``/``taken`` arrays (duck-typed so
    the event protocol stays free of stochastic-layer imports)."""

    blocks: np.ndarray
    taken: np.ndarray
