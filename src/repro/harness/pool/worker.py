"""The worker-side protocol shared by every pool backend.

A *job* is one benchmark's study as shipped to a worker: its name, the
resolved :class:`~repro.harness.studyspec.StudySpec` and the fault kind
the parent drew for the attempt.  Workers run jobs under strict
state isolation — the (fork-inherited, or warm-pool-retained) metrics
registry, span buffer and flight ring are reset before each job and the
job's signals travel back only inside the returned
:class:`WorkerOutput` — so the parent can merge observability
deterministically and a retried attempt is never double-counted.
A job that raises comes back as one :class:`WorkerJobError`.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ... import blas
from ...obs import flightrec
from ...obs import log as obslog
from ...obs import profile as obsprofile
from ...obs import registry as obsregistry
from ...obs import spans as obsspans
from ...workloads.spec import get_benchmark
from .. import faults
from ..results import BenchmarkResult
from ..studyspec import StudySpec

_log = obslog.get_logger("repro.harness.pool.worker")

#: A study job as shipped to a worker (everything here pickles):
#: (name, spec, inject) — ``inject`` is the fault kind the parent drew
#: for this attempt.
Job = Tuple[str, StudySpec, Optional[str]]

#: perf_counter() at pool-worker initialisation (None in the parent).
_WORKER_SPAWNED_AT: Optional[float] = None


@dataclass
class WorkerOutput:
    """One benchmark's study result plus the worker's observability.

    The three timestamps come from ``time.perf_counter()`` —
    CLOCK_MONOTONIC on Linux, shared between parent and (forked or
    spawned) worker — so the parent can subtract them from its own
    clock readings to split queue wait, spawn cost and result transfer
    out of the job's wall time.
    """

    name: str
    result: BenchmarkResult
    seconds: float
    metrics: Dict[str, Dict]
    spans: List[Dict[str, Any]]
    pid: int = 0
    spawned_at: Optional[float] = None  # worker-init perf_counter
    started_at: float = 0.0             # job start in the worker
    finished_at: float = 0.0            # job end in the worker


class WorkerJobError(RuntimeError):
    """A study job failed inside a worker, as picklable plain data.

    Arbitrary worker exceptions do not always survive pickling back to
    the parent, and even when they do they arrive without the worker's
    recent history.  The worker entry point wraps every failure in this
    envelope: the original error rendered as text, the worker's
    flight-recorder ring and the formatted traceback (everything the
    parent needs to write a diagnosis dump), plus the attempt's own
    clock readings and pid.  ``fault_fired`` names the injected fault
    that actually fired: the parent refunds the drawn token when the
    attempt died of an unrelated cause before its fault could do its
    work, keeping the injection schedule deterministic.
    """

    def __init__(self, message: str,
                 flight: Optional[List[Dict[str, Any]]] = None,
                 traceback_text: str = "",
                 fault_fired: Optional[str] = None, pid: int = 0,
                 started_at: float = 0.0, finished_at: float = 0.0):
        super().__init__(message)
        self.message = message
        self.flight = flight or []
        self.traceback_text = traceback_text
        self.fault_fired = fault_fired
        self.pid = pid
        self.started_at = started_at
        self.finished_at = finished_at

    def __reduce__(self):
        return (WorkerJobError,
                (self.message, self.flight, self.traceback_text,
                 self.fault_fired, self.pid, self.started_at,
                 self.finished_at))


def pool_worker_init(profile: bool = False) -> None:
    """Pool initializer: stamp spawn time, arm faults and profiling,
    and pin OpenBLAS to one thread so workers do not oversubscribe the
    cores (see :mod:`repro.blas`).

    Also pre-imports the study machinery so a *warm* worker pays the
    import bill exactly once, at spawn — under the default fork start
    method the modules are inherited for free, but a spawn-started or
    long-lived worker would otherwise re-pay it on its first job.
    """
    global _WORKER_SPAWNED_AT
    _WORKER_SPAWNED_AT = time.perf_counter()
    faults.mark_worker_process()
    obsprofile.set_profiling(profile)
    blas.set_threads(1)
    from .. import runner  # noqa: F401  (import once per worker, not per job)


def run_study_job(job: Job) -> WorkerOutput:
    """Run one benchmark's study in a worker process."""
    name, spec, inject = job
    fired: Optional[str] = None
    started = time.perf_counter()
    try:
        # A forked worker inherits the parent's registry/trace contents
        # (and a warm pool worker keeps state across jobs) — start each
        # job clean so the returned state is exactly this benchmark's.
        obsregistry.reset_metrics()
        obsspans.clear_trace()
        flightrec.clear()
        obsprofile.set_profiling(spec.profile)
        obsprofile.reset_sampling()
        # First breadcrumb after the reset: even a job that dies
        # instantly ships a ring that says which benchmark it was running.
        _log.debug("job start", bench=name, pid=os.getpid())
        if inject is not None:
            fired = inject
            faults.fire(inject, name)
        from ..runner import study_benchmark  # late: runner imports us

        with obsspans.span("workload.build", bench=name):
            benchmark = get_benchmark(name)
        result = study_benchmark(benchmark, **spec.result_fields())
    except Exception as exc:
        # Injected crashes (os._exit) and hangs never reach this point.
        raise WorkerJobError(f"{exc.__class__.__name__}: {exc}",
                             flight=flightrec.export(),
                             traceback_text=traceback.format_exc(),
                             fault_fired=fired, pid=os.getpid(),
                             started_at=started,
                             finished_at=time.perf_counter())
    finished = time.perf_counter()
    return WorkerOutput(name=name, result=result,
                        seconds=finished - started,
                        metrics=obsregistry.export_state(),
                        spans=obsspans.trace_events(),
                        pid=os.getpid(), spawned_at=_WORKER_SPAWNED_AT,
                        started_at=started, finished_at=finished)


def run_job_inprocess(job: Job) -> WorkerOutput:
    """Run :func:`run_study_job` inline under worker-grade state isolation.

    The global registry, trace buffer and flight ring are snapshotted,
    handed to the attempt (which resets them), and restored afterwards
    whether the attempt succeeded or not.  The attempt's signals travel
    only inside the returned :class:`WorkerOutput` — exactly the worker
    protocol — so a failed attempt leaves no trace in the parent's
    metrics and a retried benchmark is never double-counted.
    """
    parent_metrics = obsregistry.export_state()
    parent_trace = obsspans.trace_events()
    parent_flight = flightrec.export()
    parent_profiling = obsprofile.profiling_enabled()
    try:
        return run_study_job(job)
    finally:
        obsregistry.reset_metrics()
        obsregistry.merge_state(parent_metrics)
        obsspans.clear_trace()
        obsspans.extend_trace(parent_trace)
        flightrec.restore(parent_flight)
        obsprofile.set_profiling(parent_profiling)
