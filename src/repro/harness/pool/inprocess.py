"""The in-process backend: jobs run inline in the parent, serially.

This is the ``jobs=1`` path: ``submit`` runs the job synchronously
under worker-grade state isolation (:func:`~.worker.run_job_inprocess`)
and returns an already-resolved future.  No processes, no pickling, no
transport — which is exactly why the dispatcher's inline-fallback and
byte-identity guarantees are anchored to it.
"""

from __future__ import annotations

from concurrent.futures import Future

from .worker import Job, WorkerOutput, run_job_inprocess


class InProcessPool:
    """Serial inline execution with the process pool's lifecycle.

    ``is_inline`` tells the dispatcher that submission blocks, futures
    arrive already resolved, and exhausted jobs quarantine without an
    inline fallback (they already ran inline); ``supports_timeout`` is
    off because inline execution cannot be interrupted.
    """

    name = "inprocess"
    is_inline = True
    supports_timeout = False
    workers = 1

    def start(self) -> None:
        pass

    def submit(self, job: Job) -> "Future[WorkerOutput]":
        future: "Future[WorkerOutput]" = Future()
        try:
            future.set_result(run_job_inprocess(job))
        except Exception as exc:  # delivered like a worker's failure
            future.set_exception(exc)
        return future

    def kill(self) -> None:
        pass

    def shutdown(self) -> None:
        pass
