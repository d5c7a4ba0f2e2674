"""The worker-side protocol shared by every pool backend.

A *job* is one benchmark's study as shipped to a worker: a plain tuple
of picklable arguments ending with the profiling flag and the fault
kind the parent drew for the attempt.  Workers run jobs under strict
state isolation — the (fork-inherited, or warm-pool-retained) metrics
registry, span buffer and flight ring are reset before each job and the
job's signals travel back only inside the returned
:class:`WorkerOutput` — so the parent can merge observability
deterministically and a retried attempt is never double-counted.

Batched dispatch coarsens the unit of transport, not the unit of
isolation: :func:`run_job_batch` runs each member under the same
per-job reset, and a member that raises becomes a
:class:`BatchItemFailure` in the returned list instead of poisoning its
batch-mates.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ...dbt.config import DBTConfig
from ...obs import flightrec
from ...obs import log as obslog
from ...obs import profile as obsprofile
from ...obs import registry as obsregistry
from ...obs import spans as obsspans
from ...perfmodel.costs import CostModel
from ...workloads.spec import get_benchmark
from .. import faults
from ..results import BenchmarkResult

_log = obslog.get_logger("repro.harness.pool.worker")

#: A study job as shipped to a worker (everything here pickles):
#: (name, thresholds, config, costs, steps_scale, include_perf, verify,
#: profile, inject) — the last two elements are the profiling flag and
#: the fault kind the parent drew for this attempt.
Job = Tuple[str, Tuple[int, ...], DBTConfig, CostModel, float, bool,
            bool, bool, Optional[str]]

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
    """A study job failed inside a worker; carries its flight ring.

    Arbitrary worker exceptions do not always survive pickling back to
    the parent, and even when they do they arrive without the worker's
    recent history.  The worker entry point wraps every failure in this
    (explicitly picklable) envelope: the original error rendered as
    text, the worker's flight-recorder ring, and the formatted
    traceback — everything the parent needs to write a diagnosis dump.
    """

    def __init__(self, message: str,
                 flight: Optional[List[Dict[str, Any]]] = None,
                 traceback_text: str = ""):
        super().__init__(message)
        self.message = message
        self.flight = flight or []
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (WorkerJobError,
                (self.message, self.flight, self.traceback_text))


@dataclass
class BatchItemFailure:
    """One failed member of a dispatched batch, as plain picklable data.

    Raising out of a batch would charge every batch-mate for one
    member's failure, so the batch runner catches per-member exceptions
    into this envelope instead.  ``fault_fired`` records which injected
    fault (if any) actually fired during the attempt — the parent
    refunds the drawn token when the attempt died of an unrelated cause
    before its fault could do its work, keeping the injection schedule
    deterministic.
    """

    name: str
    message: str
    traceback_text: str = ""
    flight: Optional[List[Dict[str, Any]]] = None
    fault_fired: Optional[str] = None
    pid: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0


#: What a batch future resolves to, one entry per member in order.
BatchItem = Union[WorkerOutput, BatchItemFailure]


def _error_text(exc: BaseException) -> str:
    """A failure's display string, unwrapping the worker envelope."""
    if isinstance(exc, WorkerJobError):
        return exc.message
    return f"{exc.__class__.__name__}: {exc}"


def _flight_of(exc: BaseException) -> Optional[List[Dict[str, Any]]]:
    """The worker flight ring shipped with a failure, if any."""
    if isinstance(exc, WorkerJobError):
        return exc.flight
    return None


def pool_worker_init(profile: bool = False) -> None:
    """Pool initializer: stamp spawn time, arm faults and profiling.

    Also pre-imports the study machinery so a *warm* worker pays the
    import bill exactly once, at spawn — under the default fork start
    method the modules are inherited for free, but a spawn-started or
    long-lived worker would otherwise re-pay it on its first job.
    """
    global _WORKER_SPAWNED_AT
    _WORKER_SPAWNED_AT = time.perf_counter()
    faults.mark_worker_process()
    obsprofile.set_profiling(profile)
    from .. import runner  # noqa: F401  (import once per worker, not per job)


def run_study_job(job: Job) -> WorkerOutput:
    """Run one benchmark's study in a worker process."""
    (name, thresholds, config, costs, steps_scale, include_perf, verify,
     profile, inject) = job
    # A forked worker inherits the parent's registry/trace contents (and
    # a warm pool worker keeps state across jobs) — start each job clean
    # so the returned state is exactly this benchmark's signals.
    obsregistry.reset_metrics()
    obsspans.clear_trace()
    flightrec.clear()
    obsprofile.set_profiling(profile)
    obsprofile.reset_sampling()
    # First breadcrumb after the reset: even a job that dies instantly
    # ships a ring that says which benchmark it was running.
    _log.debug("job start", bench=name, pid=os.getpid())
    started = time.perf_counter()
    try:
        if inject is not None:
            faults.fire(inject, name)
        from ..runner import study_benchmark  # late: runner imports us

        with obsspans.span("workload.build", bench=name):
            benchmark = get_benchmark(name)
        result = study_benchmark(benchmark, thresholds, config=config,
                                 costs=costs, steps_scale=steps_scale,
                                 include_perf=include_perf, verify=verify)
    except Exception as exc:
        # Ship the failure in a picklable envelope with the flight ring;
        # injected crashes (os._exit) and hangs never reach this point.
        raise WorkerJobError(f"{exc.__class__.__name__}: {exc}",
                             flight=flightrec.export(),
                             traceback_text=traceback.format_exc())
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


def run_batch(jobs: Sequence[Job],
              run_one: Callable[[Job], WorkerOutput]) -> List[BatchItem]:
    """Run a batch of jobs, capturing per-member failures in place."""
    items: List[BatchItem] = []
    for job in jobs:
        faults.clear_fired()
        started = time.perf_counter()
        try:
            items.append(run_one(job))
        except Exception as exc:
            items.append(BatchItemFailure(
                name=job[0], message=_error_text(exc),
                traceback_text=getattr(exc, "traceback_text", "")
                or traceback.format_exc(),
                flight=_flight_of(exc), fault_fired=faults.pop_fired(),
                pid=os.getpid(), started_at=started,
                finished_at=time.perf_counter()))
    return items


def run_job_batch(jobs: Sequence[Job]) -> List[BatchItem]:
    """The pool-worker batch entry point (must be a module-level name)."""
    return run_batch(jobs, run_study_job)
