"""The backend-agnostic dispatch engine: retries, timeouts, telemetry.

``run_full_study`` is embarrassingly parallel across benchmarks: each
:func:`~repro.harness.runner.study_benchmark` call depends only on its
benchmark name and the run configuration.  This module fans those jobs
out inline or over a warm process pool — and keeps the run alive when
workers misbehave:

* a worker **crash** (segfault, OOM kill, ``os._exit``) breaks the whole
  pool; the dispatcher rebuilds it and resubmits only the jobs that were
  in flight, charging each one attempt of its retry budget (the culprit
  cannot be told apart from its pool-mates — all of them were running in
  the dead executor);
* a **hung** job (``job_timeout`` exceeded) is quarantined immediately
  — retrying a deterministic hang just burns another timeout window —
  and the pool is torn down and rebuilt to reclaim the stuck worker.
  Innocent jobs caught in the teardown are resubmitted without touching
  their budget;
* a job that **raises** is retried with exponential backoff up to
  ``retries`` times;
* jobs that exhaust their budget on a process backend fall back to one
  **in-process serial** attempt (pool pathologies — fork state,
  pickling, memory pressure — often vanish in-process) before being
  quarantined for good.  On the in-process backend the attempts *were*
  inline, so exhaustion quarantines directly.

Quarantined benchmarks land in :class:`DispatchResult.failures`; the
study completes without them instead of aborting.  Shard writes happen
in the parent as each job finishes, so nothing a worker does — or how it
dies — can corrupt the cache.

The unit of dispatch is one benchmark: each future carries one job,
retries and timeouts are per benchmark, and every attempt gets its own
:class:`~repro.obs.dispatch.JobTimeline` stamped with the backend name.
Jobs are submitted largest first (:func:`largest_first`), so each
process builds its biggest ref event index before smaller studies have
fragmented its heap; callers keep their own order for every output.
Figure data is byte-identical for any worker count — the
non-negotiable invariant the equivalence suite enforces.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ...obs import log as obslog
from ...obs.dispatch import JobTimeline
from ...obs.registry import inc
from ...obs.spans import span
from ...workloads.spec import get_benchmark
from .. import faults
from ..studyspec import DEFAULT_RETRIES, StudySpec
from .inprocess import InProcessPool
from .process import ProcessPool
from .worker import WorkerJobError, WorkerOutput, run_job_inprocess

_log = obslog.get_logger("repro.harness.pool.dispatcher")


@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatcher treats failing jobs.

    Attributes:
        retries: extra attempts granted per benchmark after its first
            failure (``0`` = fail straight to the fallback attempt).
        job_timeout: seconds before an in-flight job is declared hung
            and quarantined (``None`` = unlimited; only enforced on
            backends with ``supports_timeout`` — inline execution
            cannot be interrupted).
        backoff: base delay before retry ``k`` of a job, growing as
            ``backoff * 2**(k-1)`` up to ``backoff_cap``.
    """

    retries: int = DEFAULT_RETRIES
    job_timeout: Optional[float] = None
    backoff: float = 0.05
    backoff_cap: float = 2.0

    def delay(self, attempts: int) -> float:
        """Backoff before resubmitting a job that failed ``attempts`` times."""
        if self.backoff <= 0 or attempts <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff * 2 ** (attempts - 1))


@dataclass
class JobFailure:
    """Why a quarantined benchmark was given up on."""

    name: str
    reason: str  #: ``"timeout"`` | ``"crash"`` | ``"error"``
    attempts: int
    error: str
    flight_record: Optional[str] = None  #: path of the diagnosis dump


@dataclass
class DispatchResult:
    """Everything the dispatcher produced: successes and quarantines."""

    outputs: Dict[str, WorkerOutput] = field(default_factory=dict)
    failures: Dict[str, JobFailure] = field(default_factory=dict)
    #: Per-attempt dispatch timelines, in completion order.
    records: List[JobTimeline] = field(default_factory=list)
    #: Worker flight rings shipped with failures, keyed by benchmark.
    flights: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: The backend that executed the run.
    backend: str = ""
    #: Benchmark names in submission order (see :func:`largest_first`).
    order: List[str] = field(default_factory=list)


def dedupe_names(names: Sequence[str]) -> List[str]:
    """Drop duplicate benchmark names, keeping first-seen order.

    Outputs are keyed by name, so a duplicate would silently collapse
    into one result while still burning a pool job — warn instead.
    """
    unique = list(dict.fromkeys(names))
    dropped = len(names) - len(unique)
    if dropped:
        inc("study.duplicate_names", dropped)
        _log.warning("duplicate benchmark names dropped",
                     requested=len(names), unique=len(unique))
    return unique


def largest_first(names: Sequence[str], steps_scale: float) -> List[str]:
    """``names`` ordered by scaled ref step budget, largest first.

    The ref event index grows with the ref run's steps, so running the
    largest budget first lets every later, smaller benchmark reuse its
    memory instead of growing a fragmented heap.  The key is the
    registry's budget, not past run times: INT benchmarks take longer
    per step, so a time order would put them ahead of ``wupwise``.  The
    sort is stable (ties keep the caller's order); a name the registry
    does not know sorts last and fails in its own job, to be retried and
    quarantined like any other failure.
    """
    def budget(name: str) -> int:
        try:
            return get_benchmark(name).scaled(steps_scale).run_steps
        except KeyError:
            return -1

    return sorted(names, key=lambda name: -budget(name))


class _JobState:
    """Book-keeping for one benchmark across its attempts."""

    __slots__ = ("name", "attempts", "not_before", "submitted_at",
                 "inject", "submitted_pc", "serialize_seconds",
                 "payload_bytes")

    def __init__(self, name: str):
        self.name = name
        self.attempts = 0          # failed attempts so far
        self.not_before = 0.0      # monotonic time gating resubmission
        self.submitted_at = 0.0    # monotonic time of the live submission
        self.inject = None         # fault drawn for the live attempt
        self.submitted_pc = 0.0    # perf_counter at the live submission
        self.serialize_seconds = 0.0  # payload pickling time (live attempt)
        self.payload_bytes = 0     # payload size (live attempt)


class Dispatcher:
    """The retry/rebuild/quarantine engine above both pool backends."""

    def __init__(self, names: Sequence[str], spec: StudySpec,
                 backend: Union[InProcessPool, ProcessPool],
                 policy: RetryPolicy, plan: faults.FaultPlan,
                 on_output: Callable[[WorkerOutput], None]):
        self.spec = spec
        self.backend = backend
        self.policy = policy
        self.plan = plan
        self.on_output = on_output
        self.queue: deque = deque(_JobState(n) for n in names)
        self.inflight: Dict[Future, _JobState] = {}
        self.result = DispatchResult(backend=backend.name,
                                     order=list(names))
        self.fallback: List[Tuple[_JobState, str, str]] = []

    # -- pool lifecycle ----------------------------------------------------

    def _rebuild_pool(self) -> None:
        inc("faults.pool_rebuild")
        with span("pool_rebuild", workers=self.backend.workers):
            self.backend.start()

    # -- attempt accounting ------------------------------------------------

    def _submit(self, state: _JobState) -> None:
        state.inject = self.plan.draw(state.name)
        job = (state.name, self.spec, state.inject)
        state.serialize_seconds = 0.0  # inline: nothing is pickled
        state.payload_bytes = 0
        state.submitted_pc = 0.0
        if not self.backend.is_inline:
            # Measure the payload's pickling cost and size here (the
            # executor pickles again on its feeder thread, where it
            # cannot be timed); the payload is small, so paying it twice
            # is cheap.  This is also where an unpicklable job must die:
            # deferring it to the feeder thread would surface as an
            # opaque pool break.
            t0 = time.perf_counter()
            try:
                payload = pickle.dumps(job)
            except Exception as exc:
                state.serialize_seconds = time.perf_counter() - t0
                self._refund_inject(state)
                self._record_attempt(state, outcome="error")
                self._charge_failure(
                    state, "error", f"job payload failed to pickle: "
                    f"{exc.__class__.__name__}: {exc}")
                return
            state.serialize_seconds = time.perf_counter() - t0
            state.payload_bytes = len(payload)
            state.submitted_pc = time.perf_counter()
        state.submitted_at = time.monotonic()
        try:
            future = self.backend.submit(job)
        except BrokenProcessPool as exc:
            # The pool died between completions; everything in flight is
            # lost, this job never ran and is requeued for free.
            self._refund_inject(state)
            self.queue.appendleft(state)
            self._handle_pool_break(exc)
            return
        self.inflight[future] = state

    def _refund_inject(self, state: _JobState) -> None:
        """Hand an unfired fault token back to the plan (see refund)."""
        if state.inject is not None:
            self.plan.refund(state.name, state.inject)
            state.inject = None

    def _requeue(self, state: _JobState, charged: bool) -> None:
        if charged:
            state.not_before = time.monotonic() + \
                self.policy.delay(state.attempts)
        inc("retry.resubmitted")
        self.queue.append(state)

    def _charge_failure(self, state: _JobState, reason: str,
                        error: str) -> None:
        """One attempt failed: retry within budget, else fall back."""
        state.attempts += 1
        inc(f"retry.{reason}")
        if state.attempts <= self.policy.retries:
            _log.warning("benchmark attempt failed, will retry",
                         bench=state.name, reason=reason,
                         attempts=state.attempts, error=error)
            self._requeue(state, charged=True)
        elif self.backend.is_inline:
            # The attempts already ran in-process: a fallback would just
            # repeat the last one.  Quarantine directly.
            self._quarantine(state, reason, state.attempts, error)
        else:
            _log.warning("retry budget exhausted, deferring to inline "
                         "fallback", bench=state.name, reason=reason,
                         attempts=state.attempts, error=error)
            self.fallback.append((state, reason, error))

    def _quarantine(self, state: _JobState, reason: str, attempts: int,
                    error: str) -> None:
        inc("faults.quarantined")
        _log.error("benchmark quarantined", bench=state.name,
                   reason=reason, attempts=attempts, error=error)
        self.result.failures[state.name] = JobFailure(
            name=state.name, reason=reason, attempts=attempts, error=error)

    def _handle_pool_break(self, exc: BaseException) -> None:
        """The pool died: rebuild it, resubmit exactly the lost jobs."""
        lost = list(self.inflight.values())
        self.inflight.clear()
        self.backend.kill()
        _log.warning("process pool broke, rebuilding",
                     lost=[s.name for s in lost],
                     error=f"{exc.__class__.__name__}: {exc}")
        self._rebuild_pool()
        for state in lost:
            # A drawn hang/error fault cannot break a pool — the attempt
            # was collateral damage and its token goes back to the plan
            # so the injection schedule survives the interleaving.  (A
            # drawn crash is exactly what kills pools: consumed.)
            if state.inject in ("hang", "error"):
                self._refund_inject(state)
            # The culprit is indistinguishable from its pool-mates (the
            # executor reports one shared BrokenProcessPool), so every
            # lost job is charged one attempt.
            self._record_attempt(state, outcome="crash")
            self._charge_failure(state, "crash",
                                 f"worker died ({exc})")

    # -- completion handling -----------------------------------------------

    def _absorb(self, state: _JobState, output: WorkerOutput) -> None:
        self.result.outputs[state.name] = output
        self.on_output(output)

    def _record_attempt(self, state: _JobState, outcome: str,
                        output: Optional[WorkerOutput] = None,
                        mode: Optional[str] = None,
                        error: Optional[WorkerJobError] = None
                        ) -> JobTimeline:
        """Append this attempt's dispatch timeline to the result."""
        if mode is None:
            mode = "inline" if self.backend.is_inline else "pool"
        record = JobTimeline(
            bench=state.name, mode=mode, attempt=state.attempts + 1,
            payload_bytes=state.payload_bytes,
            serialize_seconds=state.serialize_seconds, outcome=outcome,
            backend=self.backend.name)
        if output is not None:
            record.worker_pid = output.pid
            record.execute_seconds = output.seconds
            if mode != "inline" and state.submitted_pc:
                queue = max(0.0, output.started_at - state.submitted_pc)
                record.queue_seconds = queue
                if output.spawned_at is not None:
                    # The slice of queue wait spent before the worker had
                    # even finished initialising: spin-up + import cost.
                    record.spawn_seconds = min(queue, max(
                        0.0, output.spawned_at - state.submitted_pc))
            record.transfer_seconds = max(
                0.0, time.perf_counter() - output.finished_at)
        elif error is not None:
            # The worker caught the failure and shipped its own clock.
            record.worker_pid = error.pid or None
            record.execute_seconds = max(
                0.0, error.finished_at - error.started_at)
        elif state.submitted_pc:
            # The worker never reported back (crash/timeout): all the
            # parent knows is how long the attempt burned.
            record.execute_seconds = max(
                0.0, time.perf_counter() - state.submitted_pc)
        self.result.records.append(record)
        return record

    def _record_error(self, state: _JobState, exc: Exception,
                      mode: Optional[str] = None) -> str:
        """Book an attempt that raised; return its error text.

        A :class:`~.worker.WorkerJobError` says which injected fault
        fired; any other exception (transport, not the job) fired none.
        When the drawn fault did not fire, the attempt died of an
        unrelated cause first and the token goes back so the injection
        schedule stays deterministic.
        """
        if isinstance(exc, WorkerJobError):
            envelope, fired, message = exc, exc.fault_fired, exc.message
            self.result.flights[state.name] = exc.flight
        else:
            envelope, fired = None, None
            message = f"{exc.__class__.__name__}: {exc}"
        if state.inject is not None and fired != state.inject:
            self._refund_inject(state)
        state.inject = None
        self._record_attempt(state, outcome="error", mode=mode,
                             error=envelope)
        return message

    def _process_future(self, future: Future, state: _JobState) -> bool:
        """Fold one finished job in; True if the pool broke."""
        try:
            output = future.result()
        except BrokenProcessPool as exc:
            # ``state`` is still in ``self.inflight`` — the break
            # handler charges it together with the rest of the lost jobs.
            self._handle_pool_break(exc)
            return True
        except Exception as exc:
            self.inflight.pop(future, None)
            self._charge_failure(state, "error",
                                 self._record_error(state, exc))
            return False
        self.inflight.pop(future, None)
        state.inject = None
        self._record_attempt(state, outcome="ok", output=output)
        self._absorb(state, output)
        return False

    def _cull_timeouts(self) -> None:
        """Quarantine jobs past their deadline; rescue their pool-mates.

        The executor cannot kill one worker, so reclaiming a hung job
        tears the whole pool down; the jobs running beside it are
        resubmitted.
        """
        now = time.monotonic()
        expired: List[Future] = []
        for future, state in list(self.inflight.items()):
            if future.done():
                # Finished between the wait and the deadline check —
                # harvest it normally rather than blaming it.
                if self._process_future(future, state):
                    return
            elif now - state.submitted_at >= self.policy.job_timeout:
                expired.append(future)
        if not expired:
            return
        inc("faults.timeout", len(expired))
        hung = [self.inflight.pop(future) for future in expired]
        survivors = list(self.inflight.values())
        self.inflight.clear()
        self.backend.kill()
        for state in hung:
            self._record_attempt(state, outcome="timeout")
            self._quarantine(
                state, "timeout", state.attempts + 1,
                f"exceeded job timeout {self.policy.job_timeout}s")
        self._rebuild_pool()
        for state in survivors:
            # Collateral damage of the teardown, not a failure of their
            # own — resubmit without touching the retry budget, and give
            # any unfired fault token back to the plan.
            self._refund_inject(state)
            self._requeue(state, charged=False)

    # -- the dispatch loop -------------------------------------------------

    def _take_eligible(self, now: float) -> Optional[_JobState]:
        """The first queued state clear of its backoff gate, if any."""
        for index, state in enumerate(self.queue):
            if state.not_before <= now:
                del self.queue[index]
                return state
        return None

    def _wait_timeout(self, now: float) -> Optional[float]:
        deadlines: List[float] = []
        if self.policy.job_timeout is not None and \
                self.backend.supports_timeout:
            deadlines.extend(
                state.submitted_at + self.policy.job_timeout
                for state in self.inflight.values())
        if self.queue and len(self.inflight) < self.backend.workers:
            deadlines.extend(s.not_before for s in self.queue)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now) + 0.01

    def run(self) -> DispatchResult:
        self.backend.start()
        try:
            while self.queue or self.inflight:
                now = time.monotonic()
                # Top up in-flight jobs (skipping backoff-gated ones) up
                # to the worker count, so every submitted job is running
                # and submission time approximates start time.
                while len(self.inflight) < self.backend.workers:
                    state = self._take_eligible(now)
                    if state is None:
                        break
                    self._submit(state)
                if not self.inflight:
                    if not self.queue:
                        break
                    # Everything left is waiting out its backoff.
                    time.sleep(max(0.0, min(s.not_before
                                            for s in self.queue) - now))
                    continue
                if self.backend.is_inline:
                    # Inline futures arrive already resolved: drain them.
                    for future, state in list(self.inflight.items()):
                        self._process_future(future, state)
                    continue
                with span("dispatch.wait", inflight=len(self.inflight)):
                    done, _ = futures_wait(set(self.inflight),
                                           timeout=self._wait_timeout(now),
                                           return_when=FIRST_COMPLETED)
                broke = False
                for future in done:
                    state = self.inflight.get(future)
                    if state is None:
                        continue  # cleared by an earlier pool break
                    if self._process_future(future, state):
                        broke = True
                        break
                if not broke and self.policy.job_timeout is not None \
                        and self.backend.supports_timeout:
                    self._cull_timeouts()
            self._run_fallbacks()
            return self.result
        finally:
            self.backend.shutdown()

    # -- last-resort inline attempts ---------------------------------------

    def _run_fallbacks(self) -> None:
        for state, reason, error in self.fallback:
            _log.warning("final in-process attempt", bench=state.name,
                         prior_failures=state.attempts)
            state.submitted_pc = time.perf_counter()
            state.serialize_seconds = 0.0  # inline: nothing is pickled
            state.payload_bytes = 0
            state.inject = self.plan.draw(state.name)
            try:
                with span("fallback_inline", bench=state.name):
                    job = (state.name, self.spec, state.inject)
                    output = run_job_inprocess(job)
            except Exception as exc:
                inc("faults.fallback.error")
                message = self._record_error(state, exc, mode="fallback")
                self._quarantine(state, reason, state.attempts + 1,
                                 f"{error}; inline fallback also failed: "
                                 f"{message}")
            else:
                state.inject = None
                inc("faults.fallback.success")
                _log.info("inline fallback succeeded", bench=state.name)
                self._record_attempt(state, outcome="ok", output=output,
                                     mode="fallback")
                self._absorb(state, output)


def dispatch_study_jobs(
        names: Sequence[str],
        spec: StudySpec,
        policy: Optional[RetryPolicy] = None,
        plan: Optional[faults.FaultPlan] = None,
        on_output: Optional[Callable[[WorkerOutput], None]] = None,
) -> DispatchResult:
    """Fan ``study_benchmark`` jobs out with retries and quarantine.

    One worker (``spec.jobs`` capped at ``len(names)``) runs every job
    inline; more run them on a :class:`ProcessPool`, one benchmark per
    future.  On both, jobs are submitted largest first
    (:func:`largest_first`); the outputs are keyed by name, so callers
    merge them in their own order.

    Args:
        names: benchmarks to study (duplicates dropped with a warning).
        spec: the resolved study; it travels to the worker with each
            job, so the worker never re-reads the environment.
        policy: retry budget, job timeout and backoff (default: the
            spec's ``retries`` and ``job_timeout``).
        plan: the armed fault-injection plan (default: parsed from the
            spec's ``fault_spec``).
        on_output: called in completion order with every successful
            :class:`WorkerOutput` (progress logging, incremental shard
            writes).  Runs in the parent process.

    Returns a :class:`DispatchResult`; the caller merges observability
    deterministically and decides what quarantined benchmarks mean.
    """
    names = dedupe_names(names)
    with span("dispatch.order", benchmarks=len(names)):
        names = largest_first(names, spec.steps_scale)
    policy = policy or RetryPolicy(retries=spec.retries,
                                   job_timeout=spec.job_timeout)
    plan = plan if plan is not None else \
        faults.FaultPlan.from_spec(spec.fault_spec)
    on_output = on_output or (lambda output: None)
    workers = max(1, min(spec.jobs, len(names)))
    backend: Union[InProcessPool, ProcessPool] = (
        InProcessPool() if workers == 1
        else ProcessPool(workers, profile=spec.profile))
    if policy.job_timeout is not None and not backend.supports_timeout:
        _log.warning("job timeout is not enforced on the inline path",
                     job_timeout=policy.job_timeout)
    return Dispatcher(names, spec, backend, policy, plan, on_output).run()
