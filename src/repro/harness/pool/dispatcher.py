"""The backend-agnostic dispatch engine: retries, timeouts, telemetry.

``run_full_study`` is embarrassingly parallel across benchmarks: each
:func:`~repro.harness.runner.study_benchmark` call depends only on its
benchmark name and the run configuration.  This module fans those jobs
out over a pluggable :class:`~.base.PoolBackend` — and keeps the run
alive when workers misbehave:

* a worker **crash** (segfault, OOM kill, ``os._exit``) breaks the whole
  pool; the dispatcher rebuilds it and resubmits only the jobs that were
  in flight, charging each one attempt of its retry budget (the culprit
  cannot be told apart from its pool-mates — all of them were running in
  the dead executor);
* a **hung** batch (``job_timeout`` exceeded) is quarantined immediately
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

The unit of dispatch is a *batch* of jobs (one, for the ``inprocess``
and ``process`` backends).  Batching coarsens transport, not failure
semantics: each member succeeds or fails individually
(:class:`~.worker.BatchItemFailure`), retries are per benchmark, and
every member gets its own :class:`~repro.obs.dispatch.JobTimeline`
stamped with the backend name and batch size.  Figure data is
byte-identical across every backend × jobs × batch combination — the
non-negotiable invariant the equivalence suite enforces.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Type)

from ...dbt.config import DBTConfig
from ...obs import log as obslog
from ...obs.dispatch import JobTimeline
from ...obs.registry import inc
from ...obs.spans import span
from ...perfmodel.costs import CostModel
from .. import faults
from .base import PoolBackend
from .inprocess import InProcessPool
from .process import BatchedProcessPool, ProcessPool
from .worker import (BatchItemFailure, WorkerOutput, _error_text, _flight_of,
                     run_job_inprocess)

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"
#: Environment variable selecting the pool backend by name.
POOL_ENV = "REPRO_POOL"
#: Environment variable overriding the batched backend's batch size.
BATCH_ENV = "REPRO_BATCH"

#: The backend registry: ``--pool`` names to implementations.
BACKENDS: Dict[str, Type[PoolBackend]] = {
    InProcessPool.name: InProcessPool,
    ProcessPool.name: ProcessPool,
    BatchedProcessPool.name: BatchedProcessPool,
}

_log = obslog.get_logger("repro.harness.pool.dispatcher")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count.

    Explicit ``jobs`` wins; otherwise the :data:`JOBS_ENV` environment
    variable; otherwise every CPU.  ``1`` selects the serial path.
    An empty-but-set variable is malformed, not "unset": it is almost
    always a broken shell expansion, and silently running on every CPU
    is the worst possible reading of it.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_pool(pool: Optional[str] = None) -> Optional[str]:
    """The requested pool backend name, validated; ``None`` = pick one.

    Explicit ``pool`` wins; otherwise the :data:`POOL_ENV` environment
    variable; otherwise ``None`` lets the dispatcher choose from the
    worker count and batch size.
    """
    if pool is None:
        pool = os.environ.get(POOL_ENV)
        if pool is None:
            return None
    if pool not in BACKENDS:
        raise ValueError(f"pool backend must be one of "
                         f"{'/'.join(sorted(BACKENDS))}, got {pool!r}")
    return pool


def resolve_batch(batch: Optional[int] = None) -> Optional[int]:
    """The requested batch size, validated; ``None`` = backend default."""
    if batch is None:
        env = os.environ.get(BATCH_ENV)
        if env is None:
            return None
        try:
            batch = int(env)
        except ValueError:
            raise ValueError(
                f"{BATCH_ENV} must be an integer, got {env!r}") from None
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return batch


@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatcher treats failing jobs.

    Attributes:
        retries: extra attempts granted per benchmark after its first
            failure (``0`` = fail straight to the fallback attempt).
        job_timeout: seconds before an in-flight batch is declared hung
            and quarantined (``None`` = unlimited; only enforced on
            backends with ``supports_timeout`` — inline execution
            cannot be interrupted).
        backoff: base delay before retry ``k`` of a job, growing as
            ``backoff * 2**(k-1)`` up to ``backoff_cap``.
    """

    retries: int = faults.DEFAULT_RETRIES
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
    #: The backend that executed the run and its dispatch batch size.
    backend: str = ""
    batch_size: int = 1


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


class _JobState:
    """Book-keeping for one benchmark across its attempts."""

    __slots__ = ("name", "attempts", "not_before", "submitted_at",
                 "inject", "submitted_pc", "serialize_seconds",
                 "payload_bytes", "batch_size")

    def __init__(self, name: str):
        self.name = name
        self.attempts = 0          # failed attempts so far
        self.not_before = 0.0      # monotonic time gating resubmission
        self.submitted_at = 0.0    # monotonic time of the live submission
        self.inject = None         # fault drawn for the live attempt
        self.submitted_pc = 0.0    # perf_counter at the live submission
        self.serialize_seconds = 0.0  # payload pickling time (live attempt)
        self.payload_bytes = 0     # payload size (live attempt)
        self.batch_size = 1        # members in the live dispatch unit


class Dispatcher:
    """The retry/rebuild/quarantine engine above every pool backend."""

    def __init__(self, names: Sequence[str], job_tail: Tuple,
                 backend: PoolBackend, batch: int, policy: RetryPolicy,
                 plan: faults.FaultPlan,
                 on_output: Callable[[WorkerOutput], None]):
        self.job_tail = job_tail
        self.backend = backend
        self.batch = batch
        self.policy = policy
        self.plan = plan
        self.on_output = on_output
        self.queue: deque = deque(_JobState(n) for n in names)
        self.inflight: Dict[Future, List[_JobState]] = {}
        self.result = DispatchResult(backend=backend.name, batch_size=batch)
        self.fallback: List[Tuple[_JobState, str, str]] = []

    # -- pool lifecycle ----------------------------------------------------

    def _rebuild_pool(self) -> None:
        inc("faults.pool_rebuild")
        with span("pool_rebuild", workers=self.backend.workers):
            self.backend.start()

    # -- attempt accounting ------------------------------------------------

    def _submit_batch(self, states: List[_JobState]) -> None:
        for state in states:
            state.inject = self.plan.draw(state.name)
            state.batch_size = len(states)
        jobs = [(s.name,) + self.job_tail + (s.inject,) for s in states]
        if self.backend.is_inline:
            for state in states:
                state.serialize_seconds = 0.0  # inline: nothing is pickled
                state.payload_bytes = 0
                state.submitted_at = time.monotonic()
                state.submitted_pc = 0.0
            self.inflight[self.backend.submit(jobs)] = states
            return
        # Measure the payload's pickling cost and size here (the
        # executor pickles again on its feeder thread, where it cannot
        # be timed); the payload is small, so paying it twice is cheap.
        # This is also where an unpicklable job must die: deferring it
        # to the feeder thread would surface as an opaque pool break.
        t0 = time.perf_counter()
        try:
            payload = pickle.dumps(jobs)
        except Exception as exc:
            elapsed = time.perf_counter() - t0
            error = (f"job payload failed to pickle: "
                     f"{exc.__class__.__name__}: {exc}")
            for state in states:
                self._refund_inject(state)
                state.serialize_seconds = elapsed / len(states)
                state.payload_bytes = 0
                state.submitted_pc = 0.0  # never submitted: no execute time
                self._record_attempt(state, outcome="error")
                self._charge_failure(state, "error", error)
            return
        elapsed = time.perf_counter() - t0
        for state in states:
            state.serialize_seconds = elapsed / len(states)
            state.payload_bytes = len(payload) // len(states)
            state.submitted_at = time.monotonic()
            state.submitted_pc = time.perf_counter()
        try:
            future = self.backend.submit(jobs)
        except BrokenProcessPool as exc:
            # The pool died between completions; everything in flight is
            # lost, this batch never ran and is requeued for free.
            for state in states:
                self._refund_inject(state)
            self.queue.extendleft(reversed(states))
            self._handle_pool_break(exc)
            return
        self.inflight[future] = states

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
        lost = [s for states in self.inflight.values() for s in states]
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
                        received: Optional[float] = None,
                        mode: Optional[str] = None,
                        queue_anchor: Optional[float] = None,
                        transfer_override: Optional[float] = None,
                        failure: Optional[BatchItemFailure] = None
                        ) -> JobTimeline:
        """Append this attempt's dispatch timeline to the result.

        ``queue_anchor`` re-bases a later batch member's queue wait on
        its predecessor's finish time (members run serially in the
        worker; blaming the whole wait on the executor queue would
        double-count).  ``transfer_override`` spreads the batch's one
        result transfer evenly over its members.  With a batch of one,
        both default to the single-job arithmetic.
        """
        if mode is None:
            mode = "inline" if self.backend.is_inline else "pool"
        record = JobTimeline(
            bench=state.name, mode=mode, attempt=state.attempts + 1,
            payload_bytes=state.payload_bytes,
            serialize_seconds=state.serialize_seconds, outcome=outcome,
            backend=self.backend.name, batch_size=state.batch_size)
        if output is not None and received is not None:
            record.worker_pid = output.pid
            record.execute_seconds = output.seconds
            if mode != "inline" and state.submitted_pc:
                anchor = (queue_anchor if queue_anchor is not None
                          else state.submitted_pc)
                queue = max(0.0, output.started_at - anchor)
                record.queue_seconds = queue
                if queue_anchor is None and output.spawned_at is not None:
                    # The slice of queue wait spent before the worker had
                    # even finished initialising: spin-up + import cost.
                    record.spawn_seconds = min(queue, max(
                        0.0, output.spawned_at - state.submitted_pc))
            record.transfer_seconds = (
                transfer_override if transfer_override is not None
                else max(0.0, received - output.finished_at))
        elif failure is not None:
            # The worker caught the failure in place and shipped its
            # timing: charge the member only for its own slice.
            record.worker_pid = failure.pid or None
            record.execute_seconds = max(
                0.0, failure.finished_at - failure.started_at)
        elif state.submitted_pc:
            # The worker never reported back (crash/timeout): all the
            # parent knows is how long the attempt burned.
            record.execute_seconds = max(
                0.0, time.perf_counter() - state.submitted_pc)
        self.result.records.append(record)
        return record

    def _process_future(self, future: Future,
                        states: List[_JobState]) -> bool:
        """Fold one finished batch in; True if the pool broke."""
        try:
            items = future.result()
        except BrokenProcessPool as exc:
            # ``states`` is still in ``self.inflight`` — the break
            # handler charges it together with the rest of the lost jobs.
            self._handle_pool_break(exc)
            return True
        except Exception as exc:  # the batch runner itself raised
            self.inflight.pop(future, None)
            for state in states:
                flight = _flight_of(exc)
                if flight is not None:
                    self.result.flights[state.name] = flight
                self._record_attempt(state, outcome="error")
                self._charge_failure(state, "error", _error_text(exc))
            return False
        self.inflight.pop(future, None)
        received = time.perf_counter()
        ends = [item.finished_at for item in items if item.finished_at]
        transfer = (max(0.0, received - max(ends)) / len(items)
                    if ends else None)
        prev_end: Optional[float] = None
        for state, item in zip(states, items):
            if isinstance(item, BatchItemFailure):
                if item.flight is not None:
                    self.result.flights[state.name] = item.flight
                if state.inject is not None and \
                        item.fault_fired != state.inject:
                    # The attempt died of an unrelated cause before its
                    # drawn fault could fire: the token goes back so the
                    # injection schedule stays deterministic.
                    self._refund_inject(state)
                else:
                    state.inject = None
                self._record_attempt(state, outcome="error", failure=item)
                self._charge_failure(state, "error", item.message)
            else:
                state.inject = None
                self._record_attempt(state, outcome="ok", output=item,
                                     received=received,
                                     queue_anchor=prev_end,
                                     transfer_override=transfer)
                self._absorb(state, item)
            if item.finished_at:
                prev_end = item.finished_at
        return False

    def _cull_timeouts(self) -> None:
        """Quarantine batches past their deadline; rescue their pool-mates.

        The timeout is batch-granular: members run serially inside one
        worker, so the parent cannot tell which member is hung — and any
        completed members' results died with the teardown anyway.
        """
        now = time.monotonic()
        expired: List[Tuple[Future, List[_JobState]]] = []
        for future, states in list(self.inflight.items()):
            if future.done():
                # Finished between the wait and the deadline check —
                # harvest it normally rather than blaming it.
                if self._process_future(future, states):
                    return
            elif now - states[0].submitted_at >= self.policy.job_timeout:
                expired.append((future, states))
        if not expired:
            return
        expired_futures = [f for f, _ in expired]
        expired_states = [s for _, ss in expired for s in ss]
        inc("faults.timeout", len(expired_states))
        survivors = [s for f, ss in self.inflight.items()
                     if not any(f is ef for ef in expired_futures)
                     for s in ss]
        self.inflight.clear()
        self.backend.kill()
        for state in expired_states:
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

    def _take_eligible(self, now: float) -> List[_JobState]:
        """Up to one batch of queued states clear of their backoff gate."""
        states: List[_JobState] = []
        while len(states) < self.batch:
            index = next((i for i, s in enumerate(self.queue)
                          if s.not_before <= now), None)
            if index is None:
                break
            states.append(self.queue[index])
            del self.queue[index]
        return states

    def _wait_timeout(self, now: float) -> Optional[float]:
        deadlines: List[float] = []
        if self.policy.job_timeout is not None and \
                self.backend.supports_timeout:
            deadlines.extend(
                states[0].submitted_at + self.policy.job_timeout
                for states in self.inflight.values())
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
                # Top up in-flight batches (skipping backoff-gated jobs)
                # up to the worker count, so every submitted batch is
                # running and submission time approximates start time.
                while len(self.inflight) < self.backend.workers:
                    states = self._take_eligible(now)
                    if not states:
                        break
                    self._submit_batch(states)
                if not self.inflight:
                    if not self.queue:
                        break
                    # Everything left is waiting out its backoff.
                    time.sleep(max(0.0, min(s.not_before
                                            for s in self.queue) - now))
                    continue
                if self.backend.is_inline:
                    # Inline futures arrive already resolved: drain them.
                    for future, states in list(self.inflight.items()):
                        self._process_future(future, states)
                    continue
                with span("dispatch.wait", inflight=len(self.inflight)):
                    done, _ = futures_wait(set(self.inflight),
                                           timeout=self._wait_timeout(now),
                                           return_when=FIRST_COMPLETED)
                broke = False
                for future in done:
                    states = self.inflight.get(future)
                    if states is None:
                        continue  # cleared by an earlier pool break
                    if self._process_future(future, states):
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
            state.batch_size = 1
            state.inject = self.plan.draw(state.name)
            faults.clear_fired()
            try:
                with span("fallback_inline", bench=state.name):
                    job = (state.name,) + self.job_tail + (state.inject,)
                    output = run_job_inprocess(job)
            except Exception as exc:
                if state.inject is not None and \
                        faults.pop_fired() != state.inject:
                    # Externally-caused death before the drawn fault
                    # fired: refund, exactly like the pool path.
                    self._refund_inject(state)
                else:
                    state.inject = None
                inc("faults.fallback.error")
                flight = _flight_of(exc)
                if flight is not None:
                    self.result.flights[state.name] = flight
                self._record_attempt(state, outcome="error",
                                     mode="fallback")
                self._quarantine(state, reason, state.attempts + 1,
                                 f"{error}; inline fallback also failed: "
                                 f"{_error_text(exc)}")
            else:
                state.inject = None
                inc("faults.fallback.success")
                _log.info("inline fallback succeeded", bench=state.name)
                self._record_attempt(state, outcome="ok", output=output,
                                     received=time.perf_counter(),
                                     mode="fallback")
                self._absorb(state, output)


def dispatch_study_jobs(
        names: Sequence[str],
        thresholds: Sequence[int],
        config: DBTConfig,
        costs: CostModel,
        steps_scale: float,
        include_perf: bool,
        jobs: int,
        policy: Optional[RetryPolicy] = None,
        plan: Optional[faults.FaultPlan] = None,
        on_output: Optional[Callable[[WorkerOutput], None]] = None,
        verify: bool = False,
        profile: bool = False,
        pool: Optional[str] = None,
        batch: Optional[int] = None,
) -> DispatchResult:
    """Fan ``study_benchmark`` jobs out with retries and quarantine.

    Args:
        names: benchmarks to study (duplicates dropped with a warning).
        jobs: worker processes (capped at ``len(names)``; ``1`` selects
            the in-process backend unless ``pool`` overrides it).
        policy: retry budget, job timeout and backoff (default
            :class:`RetryPolicy`).
        plan: the armed fault-injection plan (default: parsed from
            ``$REPRO_FAULT_SPEC``).
        on_output: called in completion order with every successful
            :class:`WorkerOutput` (progress logging, incremental shard
            writes).  Runs in the parent process.
        verify: run the semantic verifier inside every study job.
        profile: arm the fine-grained profiling span sites inside every
            job (shipped explicitly — the worker must not re-read the
            environment, or a parent-side explicit choice would not
            survive the process hop).
        pool: backend name from :data:`BACKENDS` (default: ``$REPRO_POOL``,
            else picked from ``jobs``/``batch`` — ``inprocess`` for one
            worker, ``batched`` when ``batch > 1``, else ``process``).
        batch: jobs per dispatch unit on the batched backend (default:
            ``$REPRO_BATCH``, else sized for two batches per worker).

    Returns a :class:`DispatchResult`; the caller merges observability
    deterministically and decides what quarantined benchmarks mean.
    """
    names = dedupe_names(names)
    policy = policy or RetryPolicy()
    plan = plan if plan is not None else faults.FaultPlan.from_env()
    on_output = on_output or (lambda output: None)
    pool = resolve_pool(pool)
    batch = resolve_batch(batch)
    job_tail = (tuple(thresholds), config, costs, steps_scale, include_perf,
                verify, profile)
    workers = max(1, min(jobs, len(names)))
    if pool is None:
        if batch is not None and batch > 1:
            pool = BatchedProcessPool.name
        elif workers <= 1:
            pool = InProcessPool.name
        else:
            pool = ProcessPool.name
    if pool != BatchedProcessPool.name and batch is not None and batch > 1:
        raise ValueError(
            f"batch > 1 requires the batched pool backend, got pool={pool!r}")
    if pool == InProcessPool.name:
        workers, batch = 1, 1
    elif pool == ProcessPool.name:
        batch = 1
    elif batch is None:
        # Two batches per worker: enough coarsening to amortize the
        # per-dispatch overhead, enough units left for load balance.
        batch = max(1, math.ceil(len(names) / (workers * 2)))
    backend = BACKENDS[pool](workers, profile=profile)
    if policy.job_timeout is not None and not backend.supports_timeout:
        _log.warning("job timeout is not enforced on the inline path",
                     job_timeout=policy.job_timeout)
    return Dispatcher(names, job_tail, backend, batch, policy, plan,
                      on_output).run()
