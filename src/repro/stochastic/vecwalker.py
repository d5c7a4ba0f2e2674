"""Vectorized event kernel for the walker hot path.

:class:`VecWalker` produces **bit-identical** traces to
:class:`~repro.stochastic.walker.CFGWalker` — same seed ⇒ same event
stream, counter tables, and regions — while replacing the per-step Python
loop with windowed numpy evaluation.  Four layers make that possible:

1. **Exact RNG equivalence.**  CPython's ``random.Random`` and numpy's
   legacy ``RandomState`` share the same MT19937 generator *and* the same
   53-bit double derivation, so transplanting the seeded Python state into
   a ``RandomState`` (:func:`numpy_uniform_stream`) yields the very
   uniform stream the scalar walker consumes — only drawn in bulk.

2. **Run-length-encoded segments.**  At compile time every block is
   mapped to its straight-line *segment* (a
   :class:`~repro.stochastic.trace.SegmentTable`): the chain of
   single-successor blocks up to and including the next conditional
   branch (or an exit / a branch-free cycle).  A run is then a sequence
   of *decisions* — one uniform draw per branch execution, each running
   one segment.

3. **All-states windows.**  Between phase boundaries and warm-up
   expiries every branch has a fixed probability, so the walk is a
   finite-state machine whose state is the branch ending the current
   segment, plus one sink for exits and branch-free cycles (:class:`_Fsm`).
   A window of pre-drawn uniforms is split into blocks that run from
   *every* state in lockstep; chaining the blocks' end maps gives each
   block's true start state, and the true path is gathered from there.
   This is the data-parallel FSM technique of Mytkowicz, Musuvathi and
   Schulte (ASPLOS 2014).  The first sink, the next phase boundary or
   step budget, and the last warm-up use of a warming branch clip how
   much is accepted; uniforms beyond the accepted prefix are not
   consumed, so window size never affects the event stream.  Every
   decision runs in a window: a decision at or past the next phase
   boundary first applies the due phase changes and drops the FSM, so a
   window's first decision is always accepted.

4. **A histogram per window, not per-decision arrays.**  A window's
   flat ``(bucket, state)`` table indices determine everything its
   acceptance needs: one ``bincount`` of them gives its decisions per
   state (the warm-up uses), its step total (a dot product with the
   next segment's length) and, folded through the FSM's tables at the
   end, every segment start's visits and every branch's taken count.
   Only a window that may cross the next boundary or expire a warm-up
   takes the exact-clip path, which finds its clip point from the
   decisions' positions.  The visits become the whole-run counts — each
   visit of a segment start uses every block of its segment — and the
   truncated last segment or branch-free-cycle tail is added in closed
   form.  :meth:`VecWalker.run` keeps the decisions themselves as a
   :class:`~repro.stochastic.trace.DecisionLog` (one narrow segment
   start and one ``int8`` outcome per decision, the tail and the
   per-start visits) and hands it, with the counts, to its
   :class:`~repro.stochastic.trace.ExecutionTrace`: AVEP reads the
   counts, the event index is built from the log, and per-step arrays
   are decoded only if something reads them.  :meth:`VecWalker.count`
   makes the same walk without logging and returns only the
   :class:`~repro.stochastic.trace.RunCounts`.

Behaviour semantics mirror the scalar walker exactly: phase changes apply
to any decision at global step ``>= until``; warm-up counts down per
branch execution; one uniform is consumed per decision in execution
order; a trace truncated mid-segment never records an outcome for the
segment's terminal branch.  The differential suite
(``tests/stochastic/test_vecwalker_diff.py``) pins all of this.

:func:`record_trace` is the entry point the workloads layer uses to
record a benchmark run, and :func:`record_counts` the one it uses to
count a run it never replays.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cfg.graph import ControlFlowGraph
from ..obs import inc
from ..obs.spans import span
from .behavior import BranchBehavior, ProgramBehavior
from .trace import DecisionLog, ExecutionTrace, RunCounts, SegmentTable

#: ``seg_branch`` sentinel: the segment ends at an exit block.
SEG_EXIT = -1
#: ``seg_branch`` sentinel: the segment enters a branch-free cycle.
SEG_CYCLE = -2

#: Uniform-draw granularity for the bulk RNG stream.
_DRAW = 1 << 14

#: Decisions per lockstep block of an all-states window.
_BLOCK = 32

#: Decisions composed into one lockstep gather (a power of two dividing
#: ``_BLOCK``), as deep as a composed table of at most ``_MAX_COMPOSED``
#: entries allows.
_MAX_DEPTH = 4
_MAX_COMPOSED = 1 << 15

#: Decisions a window evaluates: it starts at ``_WINDOW_START`` and
#: doubles, up to ``_WINDOW``, while it is accepted whole.
_WINDOW_START = 1 << 10
_WINDOW = 1 << 14

#: Machines a walk keeps for reuse, the most recently used ones.
_MACHINES = 8


def numpy_uniform_stream(seed: int) -> np.random.RandomState:
    """A ``RandomState`` producing exactly ``random.Random(seed)``'s stream.

    Both generators are MT19937 and both derive doubles as
    ``(a >> 5) * 2^26 + (b >> 6)) / 2^53`` from consecutive 32-bit
    outputs, so seeding is the only difference — which this removes by
    transplanting the Python generator's initialised state.  Successive
    ``random_sample(n)`` calls therefore continue the stream exactly like
    successive ``random.Random.random()`` calls, across any chunking.
    """
    state = random.Random(seed).getstate()[1]
    rs = np.random.RandomState()
    rs.set_state(("MT19937", np.asarray(state[:-1], dtype=np.uint32),
                  int(state[-1])))
    return rs


class _Fsm:
    """The walk as a finite-state machine under fixed branch probabilities.

    State ``s < S`` means the current segment ends at the ``s``-th branch;
    state ``S`` is the sink (an exit or a branch-free cycle).  With ``q``
    the sorted distinct probabilities, ``u < p_s`` holds exactly when
    ``bucket(u) = searchsorted(q, u, "right") <= rank(p_s)``, so each
    table is indexed by ``bucket * (S + 1) + state``: ``next_state``,
    ``next_start`` (the next segment's first block, in the log's start
    type), ``next_len`` (that segment's length) and ``outcome``; the
    sink's entries of the last three are 0.  ``hist`` accumulates the
    indices of every decision the walk accepted under this machine.

    The lockstep pass steps ``depth`` decisions per gather through
    ``composed``, the transition table of ``depth`` consecutive buckets
    (one of up to ``(len(q) + 1) ** depth`` composite buckets).
    """

    __slots__ = ("q", "width", "next_state", "next_start", "next_len",
                 "outcome", "hist", "depth", "composed", "_every_state")

    def __init__(self, probs: Sequence[float], taken: np.ndarray,
                 fall: np.ndarray, state_of: np.ndarray,
                 seg_len: np.ndarray, start_type: np.dtype):
        num = len(probs)
        p = np.asarray(probs, dtype=np.float64)
        q = np.array(sorted(set(probs)), dtype=np.float64)
        rows = len(q) + 1
        took = np.arange(rows)[:, None] <= np.searchsorted(q, p)
        next_start = np.zeros((rows, num + 1), dtype=start_type)
        next_start[:, :num] = np.where(took, taken, fall)
        next_state = np.full((rows, num + 1), num, dtype=state_of.dtype)
        next_state[:, :num] = state_of[next_start[:, :num]]
        next_len = np.zeros((rows, num + 1), dtype=np.int64)
        next_len[:, :num] = seg_len[next_start[:, :num]]
        outcome = np.zeros((rows, num + 1), dtype=np.int8)
        outcome[:, :num] = took
        # Square the table while it stays cache-sized:
        # composed_2d[c1 * R + c2, s] = composed_d[c2, composed_d[c1, s]].
        depth = 1
        composed = next_state
        while depth < _MAX_DEPTH and composed.size * len(composed) \
                <= _MAX_COMPOSED:
            r = len(composed)
            composed = composed[np.arange(r)[None, :, None],
                                composed[:, None, :]].reshape(r * r, -1)
            depth *= 2
        self.q = q
        self.width = num + 1
        self.next_state = next_state.ravel()
        self.next_start = next_start.ravel()
        self.next_len = next_len.ravel()
        self.outcome = outcome.ravel()
        self.hist = np.zeros(rows * (num + 1), dtype=np.int64)
        self.depth = depth
        self.composed = composed.ravel()
        self._every_state = np.arange(num + 1,
                                      dtype=state_of.dtype)[:, None]

    def path(self, u: np.ndarray, s0: int) -> Tuple[np.ndarray, np.ndarray]:
        """Decide ``len(u)`` (a multiple of ``_BLOCK``) decisions from ``s0``.

        Returns the state before each decision and each decision's flat
        table index.
        """
        width = self.width
        depth = self.depth
        rows = len(self.q) + 1
        T = self.composed
        idx_type = np.int16 if T.size <= np.iinfo(np.int16).max else np.int32
        bucket = (u >= self.q[0]).view(np.int8).astype(idx_type)
        for x in self.q[1:]:
            bucket += u >= x
        nb = len(u) // _BLOCK
        steps = _BLOCK // depth
        fine = bucket.reshape(nb, steps, depth)
        # ro[t, j]: composed-table row offset of step t of block j.
        ro = fine[:, :, 0].copy()
        for i in range(1, depth):
            ro *= rows
            ro += fine[:, :, i]
        ro = np.ascontiguousarray(ro.T) * idx_type(width)
        # Every block from every state in lockstep, keeping each step's
        # states: seen[t, s, j] is where block j is after step t from s.
        seen = np.empty((steps, width, nb), dtype=T.dtype)
        T.take(ro[0] + self._every_state, out=seen[0])
        for t in range(1, steps):
            T.take(seen[t - 1] + ro[t], out=seen[t])
        # Chain the end maps (block j + 1 starts where block j ends),
        # then gather the true path from the kept steps.
        ends = seen[-1].ravel().tolist()
        starts = [s0]
        s = s0
        for j in range(nb - 1):
            s = ends[s * nb + j]
            starts.append(s)
        first = np.asarray(starts, dtype=np.intp)
        states = np.empty((nb, steps, depth), dtype=T.dtype)
        states[:, 0, 0] = first
        states[:, 1:, 0] = seen[:-1, first, np.arange(nb)].T
        fine = fine * idx_type(width)
        for i in range(1, depth):
            states[:, :, i] = self.next_state.take(
                states[:, :, i - 1] + fine[:, :, i - 1])
        states = states.ravel()
        return states, states + fine.ravel()


class VecWalker:
    """Windowed numpy executor, event-for-event equal to the scalar walker.

    Args:
        cfg: the benchmark CFG (branch nodes have taken successor first).
        behavior: per-branch taken-probability models.
        seed: RNG seed — the same seed as :class:`CFGWalker` produces the
            same trace, by construction.
    """

    def __init__(self, cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 seed: int = 0):
        self.cfg = cfg
        self.behavior = behavior
        self.seed = seed
        self._compile()

    # -- compilation -----------------------------------------------------------

    def _compile(self) -> None:
        cfg = self.cfg
        n = cfg.num_nodes
        taken_succ = [-1] * n
        fall_succ = [-1] * n
        single_succ = [-1] * n
        is_branch = [False] * n
        for v in range(n):
            succ = cfg.successors(v)
            if len(succ) == 2:
                is_branch[v] = True
                taken_succ[v] = succ[0]
                fall_succ[v] = succ[1]
            elif len(succ) == 1:
                single_succ[v] = succ[0]

        # Branch behaviours, flattened exactly like the scalar walker.
        cur_p0 = [0.5] * n
        warm0 = [0] * n
        warm_p = [0.5] * n
        changes: List[Tuple[float, int, float]] = []
        for v in range(n):
            if not is_branch[v]:
                continue
            b: BranchBehavior = self.behavior.behavior_of(v)
            cur_p0[v] = b.phases[0].p
            for i, phase in enumerate(b.phases[:-1]):
                changes.append((phase.until, v, b.phases[i + 1].p))
            warm0[v] = b.warmup_uses
            warm_p[v] = b.warmup_p
        changes.sort()
        self._cur_p0 = cur_p0
        self._warm0 = warm0
        self._warm_p = warm_p
        self._changes = changes

        # Straight-line segments: from every block, the chain through
        # single-successor blocks up to and including its terminal branch.
        seg_blocks: List[np.ndarray] = []
        seg_branch: List[int] = []
        seg_len: List[int] = []
        seg_cycle_at: List[int] = []
        for v in range(n):
            chain: List[int] = []
            seen: Dict[int, int] = {}
            x = v
            branch = SEG_EXIT
            cycle_at = -1
            while True:
                if x in seen:
                    branch = SEG_CYCLE
                    cycle_at = seen[x]
                    break
                seen[x] = len(chain)
                chain.append(x)
                if is_branch[x]:
                    branch = x
                    break
                nxt = single_succ[x]
                if nxt < 0:
                    branch = SEG_EXIT
                    break
                x = nxt
            seg_blocks.append(np.asarray(chain, dtype=np.int32))
            seg_branch.append(branch)
            seg_len.append(len(chain))
            seg_cycle_at.append(cycle_at)
        length = np.asarray(seg_len, dtype=np.int32)
        offsets = np.zeros(n, dtype=np.int32)
        np.cumsum(length[:-1], out=offsets[1:])
        self._segments = SegmentTable(
            length=length, offset=offsets,
            flat=(np.concatenate(seg_blocks) if seg_blocks
                  else np.zeros(0, dtype=np.int32)),
            branch=np.asarray(seg_branch, dtype=np.int64),
            cycle_at=seg_cycle_at,
            successors=np.array(
                [(fall_succ[v], taken_succ[v]) if is_branch[v]
                 else (single_succ[v], single_succ[v]) for v in range(n)],
                dtype=np.int32).reshape(n, 2))
        # Decision logs keep segment starts in the narrowest id type.
        self._start_type = np.min_scalar_type(max(n - 1, 0))
        # Per-node (segment length, terminal branch) for the decision loop.
        self._seg_info = list(zip(seg_len, seg_branch))

        # FSM numbering: one state per branch in node order, then the
        # sink; ``_state_of[v]`` is the state of a segment starting at v.
        branches = [v for v in range(n) if is_branch[v]]
        sink = len(branches)
        state_of = {b: s for s, b in enumerate(branches)}
        self._branches = branches
        self._state_of = np.array(
            [state_of.get(seg_branch[v], sink) for v in range(n)],
            dtype=np.min_scalar_type(sink))
        self._taken_np = np.array([taken_succ[b] for b in branches],
                                  dtype=np.int32)
        self._fall_np = np.array([fall_succ[b] for b in branches],
                                 dtype=np.int32)
        # Shortest branch-ended segment: a window decides at most
        # ``steps // _min_seg`` branches in ``steps`` steps.
        self._min_seg = min((seg_len[v] for v in range(n)
                             if seg_branch[v] >= 0), default=1)

    # -- execution -------------------------------------------------------------

    def run(self, max_steps: int,
            start: Optional[int] = None) -> ExecutionTrace:
        """Walk the CFG for up to ``max_steps`` block executions.

        The trace keeps the walk's decision log and its whole-run counts,
        so its ``use_counts``, ``taken_counts`` and event index never
        touch per-step arrays; ``blocks``/``taken`` are decoded from the
        log only if read.  The per-block event index stays lazy, as with
        the scalar walker: :meth:`ExecutionTrace.events` builds it on
        first use.
        """
        counts, log = self._walk(max(int(max_steps), 0), start, record=True)
        return ExecutionTrace.from_log(log, counts)

    def count(self, max_steps: int,
              start: Optional[int] = None) -> RunCounts:
        """Walk like :meth:`run`, keeping only the whole-run counts.

        The decisions are made exactly as in :meth:`run` (same uniforms,
        same windows), but no decision is logged.
        """
        inc("kernel.vector.count_runs")
        return self._walk(max(int(max_steps), 0), start, record=False)[0]

    def _walk(self, max_steps: int, start: Optional[int], record: bool
              ) -> Tuple[RunCounts, Optional[DecisionLog]]:
        """The walk behind :meth:`run` and :meth:`count`.

        Each window is accepted from one histogram of its decisions'
        table indices, which its machine accumulates; the machines'
        histograms are folded into per-start visits and per-branch taken
        counts, returned as :class:`RunCounts`.  With ``record`` the
        decisions are also kept, as a :class:`DecisionLog`.
        """
        segments = self._segments
        seg_len_np = segments.length
        seg_info = self._seg_info
        branches = self._branches
        state_of = self._state_of
        sink = len(branches)
        width = sink + 1
        min_seg = self._min_seg
        num_blocks = self.cfg.num_nodes
        visits = np.zeros(num_blocks, dtype=np.int64)
        taken_of_state = np.zeros(width, dtype=np.int64)

        def fold(machine: _Fsm) -> None:
            # Decision ``i`` of a window runs the segment the index of
            # decision ``i - 1`` leads to; the first start of each
            # window is added below.
            np.add.at(visits, machine.next_start, machine.hist)
            taken_of_state[:] += (machine.hist * machine.outcome).reshape(
                -1, width).sum(axis=0)

        # Per-run mutable behaviour state (compile state is never touched).
        cur_p = list(self._cur_p0)
        warm_left = list(self._warm0)
        warm_p = self._warm_p
        warming = [(s, x) for s, x in enumerate(branches) if warm_left[x]]
        changes = self._changes
        change_idx = 0
        num_changes = len(changes)
        next_change = changes[0][0] if changes else math.inf
        # Windows accept decisions at steps < ``limit``; rounding a
        # fractional phase end up keeps that test exact for int steps.
        limit = math.ceil(min(next_change, max_steps))
        # The machine of the current probabilities (None after any
        # change), and the last few machines by their probabilities, so
        # that alternating phases reuse their tables.
        fsm: Optional[_Fsm] = None
        machines: Dict[Tuple[float, ...], _Fsm] = {}
        window = _WINDOW_START

        rs = numpy_uniform_stream(self.seed)
        U = rs.random_sample(_DRAW)
        ulen = _DRAW
        ci = 0

        v = first = self.cfg.entry if start is None else start
        g = 0
        # The decision log: each accepted window's starts and outcomes.
        start_type = self._start_type
        log_starts: List[np.ndarray] = []
        log_outcomes: List[np.ndarray] = []
        tail_start = -1
        tail_steps = 0
        decisions = 0
        windows = 0
        exact = 0
        discarded = 0

        while g < max_steps:
            L, b = seg_info[v]
            end = g + L
            if b < 0 or end > max_steps:
                # ---- terminal: exit, branch-free cycle, or step budget ----
                # The walk follows segment ``v`` to its end: through a
                # branch-free cycle to the budget, or the segment's
                # prefix (a cut terminal branch records no outcome, like
                # the scalar walker that never reaches its step).
                remaining = max_steps - g
                tail_start = v
                tail_steps = remaining if b == SEG_CYCLE else min(L, remaining)
                g += tail_steps
                break
            if end - 1 >= next_change:
                # The next decision's branch step is at or past a phase
                # boundary: apply every change due by then.
                while change_idx < num_changes and \
                        changes[change_idx][0] <= end - 1:
                    _, node, new_p = changes[change_idx]
                    cur_p[node] = new_p
                    change_idx += 1
                next_change = changes[change_idx][0] \
                    if change_idx < num_changes else math.inf
                limit = math.ceil(min(next_change, max_steps))
                fsm = None

            # ---- all-states window; its first decision is below limit ----
            if fsm is None:
                probs = tuple([warm_p[x] if warm_left[x] > 0 else cur_p[x]
                               for x in branches])
                fsm = machines.pop(probs, None)
                if fsm is None:
                    fsm = _Fsm(probs, self._taken_np, self._fall_np,
                               state_of, seg_len_np, start_type)
                    if len(machines) >= _MACHINES:
                        fold(machines.pop(next(iter(machines))))
                machines[probs] = fsm
            W = min(window, (limit - g) // min_seg)
            W = -(-W // _BLOCK) * _BLOCK
            if ulen - ci < W:
                fresh = rs.random_sample(
                    -(-(W - (ulen - ci)) // _DRAW) * _DRAW)
                U = np.concatenate([U[ci:], fresh])
                ulen = len(U)
                ci = 0
            st, fi = fsm.path(U[ci:ci + W], int(state_of[v]))
            hist = np.bincount(fi, minlength=len(fsm.next_state))
            m = W
            if st[W - 1] == sink:
                # The sink absorbs: every decision from the first sink
                # on is one, and none is accepted.
                m -= int(hist[sink::width].sum())
                hist[sink::width] = 0
            # The accepted decisions run the ``L`` steps of the first
            # segment and the next segment of every decision but the
            # last; the histogram's column sums are the uses per state.
            last = int(fi[m - 1])
            steps = L + int(hist @ fsm.next_len) \
                - int(fsm.next_len[last])
            uses = hist.reshape(-1, width).sum(axis=0).tolist() \
                if warming else []
            if g + steps > limit or any(
                    uses[s] >= warm_left[x] for s, x in warming):
                # ---- exact clip: before the first decision at or past
                # ``limit`` and after the last warm-up use of any branch.
                exact += 1
                lens = np.empty(m, dtype=np.int64)
                lens[0] = L
                fsm.next_len.take(fi[:m - 1], out=lens[1:])
                pos = np.cumsum(lens)
                pos += g - 1
                if pos[m - 1] >= limit:
                    m = int(np.searchsorted(pos, limit, side="left"))
                for s, x in warming:
                    at = np.flatnonzero(st[:m] == s)
                    if len(at) >= warm_left[x]:
                        m = int(at[warm_left[x] - 1]) + 1
                hist = np.bincount(fi[:m], minlength=len(fsm.next_state))
                last = int(fi[m - 1])
                steps = int(pos[m - 1]) - g + 1
                uses = hist.reshape(-1, width).sum(axis=0).tolist() \
                    if warming else []
            fsm.hist += hist
            if record:
                starts = np.empty(m, dtype=start_type)
                starts[0] = v
                fsm.next_start.take(fi[:m - 1], out=starts[1:])
                log_starts.append(starts)
                log_outcomes.append(fsm.outcome.take(fi[:m]))
            g += steps
            v = int(fsm.next_start[last])
            expired = False
            if warming:
                for s, x in warming:
                    warm_left[x] -= uses[s]
                    expired = expired or not warm_left[x]
                if expired:
                    warming = [(s, x) for s, x in warming if warm_left[x]]
                    fsm = None
            ci += m
            windows += 1
            decisions += m
            discarded += W - m
            # Regrow from the accepted length after a warm-up clip;
            # double while whole windows are accepted.
            if expired:
                window = -(-m // _BLOCK) * _BLOCK
            elif m == W and window < _WINDOW:
                window *= 2

        # Each window's first start is where the one before it led, so
        # the starts are the machines' folded next starts, plus the
        # walk's first start, minus where the last window led (the
        # tail's start, or the segment the budget stopped before).
        for machine in machines.values():
            fold(machine)
        visits[first] += 1
        visits[v] -= 1
        # Every visit of a segment start uses each block of its segment
        # once (a ragged add over the flat segment table); the tail's
        # blocks are counted in closed form.
        use = np.zeros(num_blocks, dtype=np.int64)
        np.add.at(use, segments.flat, np.repeat(visits, seg_len_np))
        taken_counts = np.zeros(num_blocks, dtype=np.int64)
        taken_counts[branches] = taken_of_state[:sink]
        for block, at in segments.tail(tail_start, tail_steps):
            use[block] += len(at)

        inc("kernel.vector.runs")
        inc("kernel.vector.steps", g)
        inc("kernel.vector.windows", windows)
        inc("kernel.vector.windows.exact", exact)
        inc("kernel.vector.decisions", decisions)
        inc("kernel.vector.decisions.discarded", discarded)
        # These counts needed no pass over steps, and the index needs no
        # decode; the zero increments make ``trace.count_passes`` and
        # ``trace.decodes`` show in the run's manifest.
        inc("trace.count_passes", 0)
        inc("trace.decodes", 0)
        counts = RunCounts(use=use, taken=taken_counts, num_steps=g)
        if not record:
            return counts, None
        log = DecisionLog(
            segments=segments,
            starts=(np.concatenate(log_starts) if log_starts
                    else np.zeros(0, dtype=start_type)),
            outcomes=(np.concatenate(log_outcomes) if log_outcomes
                      else np.zeros(0, dtype=np.int8)),
            tail_start=tail_start, tail_steps=tail_steps,
            per_start=visits)
        return counts, log


def record_trace(cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 max_steps: int, seed: int = 0) -> ExecutionTrace:
    """Record one run of ``cfg`` under ``behavior``, instrumented."""
    with span("kernel.record_trace", steps=int(max_steps)):
        return VecWalker(cfg, behavior, seed=seed).run(max_steps)


def record_counts(cfg: ControlFlowGraph, behavior: ProgramBehavior,
                  max_steps: int, seed: int = 0) -> RunCounts:
    """Count one run of ``cfg`` under ``behavior`` without recording its
    steps: :func:`record_trace`'s counts, instrumented."""
    with span("kernel.record_counts", steps=int(max_steps)):
        return VecWalker(cfg, behavior, seed=seed).count(max_steps)
