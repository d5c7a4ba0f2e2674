"""The process-pool backend: warm persistent workers.

:class:`ProcessPool` wraps ``concurrent.futures.ProcessPoolExecutor``
with a *warm registry*: on graceful shutdown the executor is parked
(keyed by worker count) instead of destroyed, and the next pool of the
same width adopts it — workers are spawned once, import the study
machinery once, and are reused across dispatches.  ``kill()`` never
parks: a pool torn down to reclaim a hung worker, or one that broke
under a crashed job, is discarded so the warm registry only ever holds
healthy executors.

Warm reuse is safe across runs with different profiling settings
because the worker entry point re-arms profiling per job; fault
injection is parent-side (tokens are drawn before submission), so a
warm worker carries no fault state either.
"""

from __future__ import annotations

import atexit
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict

from ...obs import log as obslog
from ...obs.registry import inc
from .worker import Job, WorkerOutput, pool_worker_init, run_study_job

_log = obslog.get_logger("repro.harness.pool.process")

#: Parked executors awaiting reuse, keyed by worker count.  One slot
#: per width is enough: the study engine runs one dispatch at a time.
_WARM: Dict[int, ProcessPoolExecutor] = {}


def shutdown_warm_pools() -> None:
    """Terminate every parked warm executor (atexit, test teardown)."""
    while _WARM:
        _, executor = _WARM.popitem()
        executor.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_warm_pools)


class ProcessPool:
    """Persistent worker processes with warm reuse across dispatches.

    Lifecycle: ``start()`` once before the first submission,
    ``submit()`` any number of times, then either ``shutdown()``
    (graceful; parks the executor for reuse) or ``kill()`` (hard
    teardown after a hang or a break — never parks).  After ``kill()``
    the dispatcher calls ``start()`` again to continue on fresh workers.
    A worker that dies outright (segfault, ``os._exit``) surfaces as
    ``BrokenProcessPool`` from its future.
    """

    name = "process"
    is_inline = False
    supports_timeout = True

    def __init__(self, workers: int, profile: bool = False):
        self.workers = workers
        self.profile = profile
        self._executor: ProcessPoolExecutor = None  # type: ignore[assignment]

    def start(self) -> None:
        warm = _WARM.pop(self.workers, None)
        if warm is not None:
            inc("pool.warm_hit")
            _log.debug("adopted warm process pool", workers=self.workers)
            self._executor = warm
            return
        inc("pool.warm_miss")
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, initializer=pool_worker_init,
            initargs=(self.profile,))

    def submit(self, job: Job) -> "Future[WorkerOutput]":
        return self._executor.submit(run_study_job, job)

    def kill(self) -> None:
        """Terminate worker processes and discard the executor.

        ``ProcessPoolExecutor`` offers no per-worker kill, so reclaiming
        one hung worker means tearing the whole pool down (``_processes``
        is private but stable since 3.7; guarded anyway).
        """
        processes = list(
            (getattr(self._executor, "_processes", None) or {}).values())
        for process in processes:
            process.terminate()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Park the executor for the next same-width pool to adopt."""
        stale = _WARM.pop(self.workers, None)
        if stale is not None:  # defensive: never leak a displaced pool
            stale.shutdown(wait=False, cancel_futures=True)
        _WARM[self.workers] = self._executor

