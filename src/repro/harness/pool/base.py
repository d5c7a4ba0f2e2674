"""The pool-backend interface every execution strategy implements.

A backend owns exactly one concern: *run this batch of jobs somewhere
and hand back a future*.  Everything above the interface — retries,
backoff, timeouts, pool rebuilds, quarantine, fault-token accounting
and dispatch telemetry — lives in the dispatcher and is inherited by
every backend for free.  The hierarchy is modeled on the
``Pool``/``ProcessPool``/``PrunPool`` split in vusec's
instrumentation-infra: the dispatcher picks an execution strategy from
the worker count, the study engine never changes.

A batch future resolves to one :class:`~.worker.BatchItem` per member
in submission order — a :class:`~.worker.WorkerOutput` on success or a
:class:`~.worker.BatchItemFailure` on a caught failure.  Uncaught
process death (segfault, ``os._exit``) surfaces as
``BrokenProcessPool`` from the future itself, which the dispatcher
treats as a pool break.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Future
from typing import List, Sequence

from .worker import BatchItem, Job


class PoolBackend(ABC):
    """Where and how study jobs execute; the dispatcher's substrate.

    Lifecycle: ``start()`` once before the first submission,
    ``submit()`` any number of times, then either ``shutdown()``
    (graceful; may park warm workers for reuse) or ``kill()`` (hard
    teardown after a hang — never parks).  After ``kill()`` the
    dispatcher calls ``start()`` again to continue on fresh workers.

    Class attributes:
        name: the label stamped on every
            :class:`~repro.obs.dispatch.JobTimeline` and on the manifest.
        is_inline: jobs run in the parent process — submission blocks,
            futures arrive already resolved, and the retry engine
            quarantines without an inline fallback (it *is* inline).
        supports_timeout: the dispatcher may enforce ``job_timeout`` by
            tearing workers down; inline execution cannot be interrupted.
    """

    name: str = ""
    is_inline: bool = False
    supports_timeout: bool = False

    def __init__(self, workers: int, profile: bool = False):
        self.workers = workers
        self.profile = profile

    @abstractmethod
    def start(self) -> None:
        """Acquire execution resources (may adopt parked warm workers)."""

    @abstractmethod
    def submit(self, jobs: Sequence[Job]) -> "Future[List[BatchItem]]":
        """Ship one batch; the future resolves to one item per member."""

    @abstractmethod
    def kill(self) -> None:
        """Hard-stop everything now (hung worker reclaim); never park."""

    @abstractmethod
    def shutdown(self) -> None:
        """Release resources gracefully; warm backends park for reuse."""
