"""The 12 SPEC2000 INT stand-ins.

Each benchmark's character is calibrated to the paper's per-benchmark
findings (§4.1–§4.3):

* **perlbmk** — training input predicts terribly (~50% mismatch); the
  initial profile is far better at every threshold.  An early
  "script-compilation" warm-up additionally makes threshold-1 regions
  terrible, giving the dramatic Figure 17 win.
* **mcf** — strong program phases on branches *and* loop trip counts;
  bad at every threshold (a mid-run phase even makes 5k→10k *worse*),
  with trip-count classes completely inverted until ~10k.
* **gzip** — heavy warm-up: mismatch >40% for small T, dropping sharply
  around nominal 1k; a late phase keeps ~20% mismatch through 160k.
* **crafty** — a persistent ~18% slice of branch weight whose early
  behaviour straddles a range boundary differently from its average.
* **vpr / gcc** — loop trip-count warm-up lasting until nominal ~80k.
* **parser / gap** — slow drift; accuracy keeps improving with T.
* **eon / twolf / bzip2 / vortex** — stable; the initial profile beats
  the training input from the smallest thresholds.

All values are in simulator units (paper thresholds / 10 — see
``repro.workloads.spec.THRESHOLD_SCALE``).
"""

from __future__ import annotations

from .characters import BranchSpec, Character, CharacterConfig, trips
from .generators import BranchySegment, ChainSegment, LoopSegment
from .spec import SyntheticBenchmark, register
from ..stochastic.behavior import phased, warmup

#: Reference-run length for INT stand-ins (block executions).
INT_STEPS = 1_600_000

#: Steady probabilities kept clear of the 0.3/0.7 range boundaries, so
#: the small train-input jitter rarely flips a range (the paper's INT
#: training mismatch is only ~9% on average).
_INT_P_CHOICES = (0.1, 0.5, 0.88)


def _make(name: str, segments, character: Character,
          run_steps: int = INT_STEPS, seed: int = 0) -> SyntheticBenchmark:
    from .generators import build_workload
    workload = build_workload(segments, seed=seed)
    return SyntheticBenchmark(
        name=name, suite="int", workload=workload, character=character,
        run_steps=run_steps, seed_ref=seed * 2 + 11,
        seed_train=seed * 2 + 12)


@register("gzip", "int")
def gzip() -> SyntheticBenchmark:
    """Compression: warm-up-dominated branches plus a late phase shift."""
    segments = [
        LoopSegment("scan", diamonds=2, chain=1),
        BranchySegment("huff", diamonds=4),
        LoopSegment("crc", diamonds=1, chain=2),
    ]
    config = CharacterConfig(
        seed=101,
        diamond_p_choices=_INT_P_CHOICES,
        trip_choices=(8.0, 20.0, 45.0),
        train_jitter_bp=0.07,
        warmup_fraction=0.85, warmup_uses=25, warmup_strength=0.5,
        loop_warmup_fraction=0.5, loop_warmup_uses=3000,
        loop_warmup_trips=4.0)
    specs = {
        # Hot scan-loop branches: early behaviour in a different range
        # (drops out of the initial profile only past nominal ~1k), plus a
        # late phase change no initial profile sees — the persistent ~20%
        # mismatch of the paper's Figure 11 gzip line.
        "scan": BranchSpec(ref=trips(50.0), train=trips(44.0)),
        "scan.d0": BranchSpec(ref=warmup(25, 0.25, 0.82), train=0.86),
        "scan.d1": BranchSpec(
            ref=phased([(0.7, 0.82), (0.3, 0.25)], INT_STEPS),
            train=0.62),
        "huff.d0": BranchSpec(ref=warmup(25, 0.75, 0.2), train=0.25),
    }
    return _make("gzip", segments, Character(config, specs), seed=1)


@register("vpr", "int")
def vpr() -> SyntheticBenchmark:
    """Place & route: trip counts wrong until nominal ~80k."""
    segments = [
        LoopSegment("place", diamonds=1, chain=2, nested=True),
        LoopSegment("route", diamonds=2, chain=1),
        BranchySegment("cost", diamonds=3),
    ]
    config = CharacterConfig(
        seed=102,
        diamond_p_choices=_INT_P_CHOICES,
        trip_choices=(15.0, 35.0),
        train_jitter_bp=0.06,
        warmup_fraction=0.4, warmup_uses=150, warmup_strength=0.35,
        loop_warmup_fraction=1.0, loop_warmup_uses=8000,
        loop_warmup_trips=6.0)
    specs = {
        # Steady trip counts are high; the long warm-up runs them short, so
        # the classification stays wrong until T clears the warm-up.
        "place.inner": BranchSpec(ref=warmup(8000, trips(5.0), trips(80.0)),
                                  train=trips(70.0)),
        "route": BranchSpec(ref=warmup(8000, trips(7.0), trips(60.0)),
                            train=trips(55.0)),
    }
    return _make("vpr", segments, Character(config, specs), seed=2)


@register("gcc", "int")
def gcc() -> SyntheticBenchmark:
    """Compiler: large CFG, trip-count warm-up like vpr, noisier branches."""
    segments = [
        BranchySegment("parse", diamonds=5),
        LoopSegment("rtl", diamonds=2, chain=2, nested=True),
        BranchySegment("opt", diamonds=4),
        LoopSegment("regalloc", diamonds=1, chain=1),
    ]
    config = CharacterConfig(
        seed=103,
        diamond_p_choices=(0.1, 0.45, 0.88),
        trip_choices=(6.0, 18.0, 40.0),
        train_jitter_bp=0.07,
        warmup_fraction=0.35, warmup_uses=150, warmup_strength=0.3,
        loop_warmup_fraction=1.0, loop_warmup_uses=7000,
        loop_warmup_trips=4.0)
    specs = {
        "rtl.inner": BranchSpec(ref=warmup(7000, trips(4.0), trips(65.0)),
                                train=trips(50.0)),
    }
    return _make("gcc", segments, Character(config, specs), seed=3)


@register("mcf", "int")
def mcf() -> SyntheticBenchmark:
    """Network simplex: the paper's phase-change poster child.

    The hot simplex branches switch regimes ~0.3% into the run (making
    the 5k→10k initial profiles *worse* than 2k — the Figure 8 bump) and
    again at 75% (mass no initial profile ever sees, keeping Mcf bad even
    at nominal 4M).  The two hot loops swap trip-count classes early
    (high→low and low→high), so the trip-count classification is inverted
    until roughly nominal 10k (Figure 16).
    """
    steps = 3_200_000
    segments = [
        LoopSegment("price", diamonds=1, chain=1, nested=True),
        LoopSegment("simplex", diamonds=1, chain=1),
        BranchySegment("basket", diamonds=2),
    ]
    config = CharacterConfig(
        seed=104,
        diamond_p_choices=_INT_P_CHOICES,
        trip_choices=(10.0, 25.0),
        train_jitter_bp=0.08,
        phase_fraction=0.7,
        phase_boundaries=(0.003, 0.08, 0.75),
        phase_strength=0.3)
    specs = {
        # The dominant simplex loop: ~90 trips for most of the run, so its
        # body branches are the hottest blocks in the program.
        "simplex": BranchSpec(
            ref=phased([(0.005, trips(3.0)), (0.995, trips(90.0))], steps),
            train=trips(30.0)),
        # Hot simplex diamond: mildly off early, badly off mid-run, and
        # flipped in the final quarter that no initial profile reaches.
        "simplex.d0": BranchSpec(
            ref=phased([(0.003, 0.55), (0.747, 0.82), (0.25, 0.12)], steps),
            train=0.5),
        # The pricing nest: the inner loop looks high-trip-count early but
        # is low-trip-count for 92% of the run (paper §4.3's data
        # prefetching anecdote).
        "price.inner": BranchSpec(
            ref=phased([(0.08, trips(120.0)), (0.92, trips(4.0))], steps),
            train=trips(20.0)),
        "price.inner.d0": BranchSpec(
            ref=phased([(0.003, 0.9), (0.747, 0.3), (0.25, 0.75)], steps),
            train=0.55),
    }
    return _make("mcf", segments, Character(config, specs),
                 run_steps=steps, seed=4)


@register("crafty", "int")
def crafty() -> SyntheticBenchmark:
    """Chess: ~18% of branch weight persistently lands in the wrong range."""
    segments = [
        BranchySegment("search", diamonds=5),
        LoopSegment("evaluate", diamonds=3, chain=1),
        BranchySegment("movegen", diamonds=3),
    ]
    config = CharacterConfig(
        seed=105,
        diamond_p_choices=_INT_P_CHOICES,
        trip_choices=(5.0, 14.0),
        train_jitter_bp=0.06,
        warmup_fraction=0.35, warmup_uses=150, warmup_strength=0.3)
    specs = {
        # One hot branch whose early behaviour sits across the 0.7
        # boundary from its average; it carries ~18% of the branch weight.
        "evaluate.d0": BranchSpec(
            ref=phased([(0.6, 0.75), (0.4, 0.5)], INT_STEPS), train=0.68),
        "evaluate.d1": BranchSpec(ref=0.55, train=0.6),
        "search.d0": BranchSpec(ref=0.85, train=0.8),
    }
    return _make("crafty", segments, Character(config, specs), seed=5)


@register("parser", "int")
def parser() -> SyntheticBenchmark:
    """Link grammar: slow drift — accuracy keeps improving with T."""
    from ..stochastic.behavior import drifting
    segments = [
        LoopSegment("tokenize", diamonds=1, chain=1),
        BranchySegment("link", diamonds=5),
        LoopSegment("prune", diamonds=1, chain=2),
    ]
    config = CharacterConfig(
        seed=106,
        diamond_p_choices=_INT_P_CHOICES,
        trip_choices=(7.0, 22.0),
        train_jitter_bp=0.06,
        loop_warmup_fraction=0.6, loop_warmup_uses=2500,
        loop_warmup_trips=4.5)
    specs = {
        "link.d0": BranchSpec(ref=drifting(0.95, 0.78, INT_STEPS),
                              train=0.85),
        "link.d1": BranchSpec(ref=drifting(0.2, 0.5, INT_STEPS),
                              train=0.35),
        "link.d2": BranchSpec(ref=drifting(0.45, 0.62, INT_STEPS),
                              train=0.55),
    }
    return _make("parser", segments, Character(config, specs), seed=6)


@register("eon", "int")
def eon() -> SyntheticBenchmark:
    """Ray tracer (C++): very stable; beats the training input early."""
    segments = [
        LoopSegment("trace", diamonds=2, chain=2),
        LoopSegment("shade", diamonds=1, chain=1),
        BranchySegment("intersect", diamonds=2),
    ]
    config = CharacterConfig(
        seed=107,
        diamond_p_choices=(0.08, 0.9),
        trip_choices=(12.0, 30.0),
        train_jitter_bp=0.10)   # train input sees different scenes
    specs = {
        "intersect.d0": BranchSpec(ref=0.9, train=0.6),
    }
    return _make("eon", segments, Character(config, specs), seed=7)


@register("perlbmk", "int")
def perlbmk() -> SyntheticBenchmark:
    """Perl: the training input exercises entirely different paths.

    The reference run is extremely stable (interpreter dispatch loops with
    strongly biased branches), but (a) the training scripts flip the hot
    branches to the opposite range — ~50% training mismatch — and (b) a
    short "script compilation" start-up inverts the hot branches for their
    first few executions, so threshold-1 regions are built from the
    compile stage and side-exit constantly (the paper's dramatic Figure 17
    perlbmk win for accurate initial profiles).
    """
    segments = [
        LoopSegment("dispatch", diamonds=5, chain=1),
        BranchySegment("regex", diamonds=4),
        LoopSegment("gc", diamonds=1, chain=1),
    ]
    config = CharacterConfig(
        seed=108,
        diamond_p_choices=(0.05, 0.95),
        trip_choices=(18.0, 40.0),
        train_jitter_bp=0.05)
    compile_uses = 14  # the first executions come from script compilation
    specs = {
        "dispatch.d0": BranchSpec(ref=warmup(compile_uses, 0.1, 0.95),
                                  train=0.1),
        "dispatch.d1": BranchSpec(ref=warmup(compile_uses, 0.15, 0.9),
                                  train=0.2),
        "dispatch.d2": BranchSpec(ref=warmup(compile_uses, 0.9, 0.08),
                                  train=0.85),
        "dispatch.d3": BranchSpec(ref=warmup(compile_uses, 0.12, 0.93),
                                  train=0.15),
        "dispatch.d4": BranchSpec(ref=warmup(compile_uses, 0.88, 0.06),
                                  train=0.9),
        "gc.d0": BranchSpec(ref=warmup(compile_uses, 0.2, 0.94),
                            train=0.12),
        "regex.d0": BranchSpec(ref=warmup(compile_uses, 0.2, 0.92),
                               train=0.15),
        "regex.d1": BranchSpec(ref=warmup(compile_uses, 0.85, 0.1),
                               train=0.2),
        "regex.d2": BranchSpec(ref=0.88, train=0.25),
        "dispatch": BranchSpec(ref=trips(60.0), train=trips(3.0)),
    }
    return _make("perlbmk", segments, Character(config, specs), seed=8)


@register("gap", "int")
def gap() -> SyntheticBenchmark:
    """Group theory: long warm-up (~nominal 16k) then stable."""
    segments = [
        LoopSegment("orbit", diamonds=2, chain=1),
        BranchySegment("mult", diamonds=3),
        LoopSegment("perm", diamonds=1, chain=2),
    ]
    config = CharacterConfig(
        seed=109,
        diamond_p_choices=_INT_P_CHOICES,
        trip_choices=(9.0, 28.0),
        train_jitter_bp=0.06,
        warmup_fraction=0.5, warmup_uses=400, warmup_strength=0.35,
        loop_warmup_fraction=0.5, loop_warmup_uses=4000,
        loop_warmup_trips=5.0)
    specs = {
        # A mid-weight branch whose warm-up crosses a range boundary, so
        # the mismatch declines visibly as T grows past nominal 16k ("Gap
        # is one of the non-flat lines" in the paper's Figure 11).
        "perm.d0": BranchSpec(ref=warmup(1600, 0.45, 0.85), train=0.88),
        "orbit.d0": BranchSpec(ref=warmup(1600, 0.75, 0.92), train=0.9),
    }
    return _make("gap", segments, Character(config, specs), seed=9)


@register("vortex", "int")
def vortex() -> SyntheticBenchmark:
    """OO database: middling, mildly warm-up biased."""
    segments = [
        BranchySegment("lookup", diamonds=4),
        LoopSegment("insert", diamonds=2, chain=1),
        LoopSegment("query", diamonds=1, chain=1, nested=True),
    ]
    config = CharacterConfig(
        seed=110,
        diamond_p_choices=(0.12, 0.45, 0.85),
        trip_choices=(6.0, 16.0, 36.0),
        train_jitter_bp=0.07,
        warmup_fraction=0.45, warmup_uses=100, warmup_strength=0.3,
        loop_warmup_fraction=0.4, loop_warmup_uses=3000,
        loop_warmup_trips=60.0)
    return _make("vortex", segments, Character(config), seed=10)


@register("bzip2", "int")
def bzip2() -> SyntheticBenchmark:
    """Block-sorting compression: stable; initial profile beats train."""
    segments = [
        LoopSegment("sort", diamonds=2, chain=1, nested=True),
        LoopSegment("mtf", diamonds=1, chain=1),
        BranchySegment("encode", diamonds=2),
    ]
    config = CharacterConfig(
        seed=111,
        diamond_p_choices=(0.12, 0.5, 0.9),
        trip_choices=(14.0, 32.0, 70.0),
        train_jitter_bp=0.09)   # train file has different statistics
    specs = {
        "encode.d0": BranchSpec(ref=0.88, train=0.6),
    }
    return _make("bzip2", segments, Character(config, specs), seed=11)


@register("twolf", "int")
def twolf() -> SyntheticBenchmark:
    """Placement/annealing: stable with a mild cooling drift."""
    from ..stochastic.behavior import drifting
    segments = [
        LoopSegment("anneal", diamonds=3, chain=1),
        BranchySegment("accept", diamonds=2),
        LoopSegment("wirelen", diamonds=1, chain=2),
    ]
    config = CharacterConfig(
        seed=112,
        diamond_p_choices=(0.15, 0.5, 0.88),
        trip_choices=(10.0, 26.0),
        train_jitter_bp=0.08)
    specs = {
        # Annealing acceptance cools slowly; drift is mild enough that the
        # initial profile still beats the training input.
        "accept.d0": BranchSpec(ref=drifting(0.6, 0.45, INT_STEPS),
                                train=0.4),
    }
    return _make("twolf", segments, Character(config, specs), seed=12)
