"""The process-pool backend: a fresh worker pool for every dispatch.

:class:`ProcessPool` wraps ``concurrent.futures.ProcessPoolExecutor`` on
an explicit ``fork`` context: workers inherit the parent's imported
study machinery for free, whatever the interpreter's default start
method (Python 3.14 makes it ``forkserver``, which re-pays the imports
in every cold pool).

Every exit joins.  ``shutdown()`` and ``kill()`` return only once every
worker process and every executor thread (the manager thread, the call
queue's feeder) is gone, so the next ``start()`` — a rebuild after a
crash or a timeout, or the next dispatch — forks with no other thread
alive.  A child forked while another thread holds a lock inherits that
lock held and can wait on it forever.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor

from .worker import Job, WorkerOutput, pool_worker_init, run_study_job

#: Seconds a terminated worker gets to exit before it is SIGKILLed.
_TERMINATE_GRACE = 5.0


class ProcessPool:
    """Forked worker processes for one dispatch.

    Lifecycle: ``start()`` before the first submission, ``submit()`` any
    number of times, then either ``shutdown()`` (graceful) or ``kill()``
    (hard teardown after a hang or a break).  After ``kill()`` the
    dispatcher calls ``start()`` again to continue on fresh workers.
    A worker that dies outright (segfault, ``os._exit``) surfaces as
    ``BrokenProcessPool`` from its future.
    """

    name = "process"
    is_inline = False
    supports_timeout = True

    def __init__(self, workers: int):
        self.workers = workers
        self._executor: ProcessPoolExecutor = None  # type: ignore[assignment]

    def start(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=pool_worker_init)

    def submit(self, job: Job) -> "Future[WorkerOutput]":
        return self._executor.submit(run_study_job, job)

    def kill(self) -> None:
        """Terminate the workers, reap them, and join the executor.

        ``ProcessPoolExecutor`` offers no per-worker kill, so reclaiming
        one hung worker means tearing the whole pool down (``_processes``
        is private but stable since 3.7; guarded anyway).
        """
        processes = list(
            (getattr(self._executor, "_processes", None) or {}).values())
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(_TERMINATE_GRACE)
            if process.is_alive():
                process.kill()
                process.join()
        self._executor.shutdown(wait=True, cancel_futures=True)

    def shutdown(self) -> None:
        """Let the workers finish and join them."""
        self._executor.shutdown(wait=True)
