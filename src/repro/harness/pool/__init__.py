"""Pool backends for the study dispatcher.

* :mod:`~repro.harness.pool.worker` — the worker-side protocol (jobs,
  outputs, the failure envelope, state isolation);
* :mod:`~repro.harness.pool.inprocess` / :mod:`~repro.harness.pool.process`
  — the backends: serial inline for one worker, a warm process pool for
  more;
* :mod:`~repro.harness.pool.dispatcher` — the backend-agnostic
  retry/timeout/quarantine/telemetry engine and
  :func:`dispatch_study_jobs`, the one entry point callers use.
"""

from .dispatcher import (DispatchResult, Dispatcher, JobFailure, RetryPolicy,
                         dedupe_names, dispatch_study_jobs)
from .inprocess import InProcessPool
from .process import ProcessPool, shutdown_warm_pools
from .worker import (Job, WorkerJobError, WorkerOutput, run_job_inprocess,
                     run_study_job)

__all__ = [
    "DispatchResult", "Dispatcher", "InProcessPool", "Job", "JobFailure",
    "ProcessPool", "RetryPolicy", "WorkerJobError", "WorkerOutput",
    "dedupe_names", "dispatch_study_jobs", "run_job_inprocess",
    "run_study_job", "shutdown_warm_pools",
]
