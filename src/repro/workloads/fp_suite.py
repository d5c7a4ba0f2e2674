"""The 14 SPEC2000 FP stand-ins.

FP characters follow the paper's observations: loop-dominated CFGs with
high trip counts, strongly biased and very stable branches — hence easy to
predict even at tiny thresholds — with three exceptions:

* **wupwise** — a 20% mismatch that persists until nominal ~1M, modelled
  as a very long warm-up on its hot branches;
* **lucas / apsi** — training inputs that diverge from the reference
  (mismatch ~25% / ~20% for the training profile).
"""

from __future__ import annotations

from .characters import BranchSpec, Character, CharacterConfig, trips
from .generators import BranchySegment, LoopSegment
from .spec import SyntheticBenchmark, register
from ..stochastic.behavior import warmup

#: Reference-run length for FP stand-ins (block executions).
FP_STEPS = 2_000_000


def _make(name: str, segments, character: Character,
          run_steps: int = FP_STEPS, seed: int = 0) -> SyntheticBenchmark:
    from .generators import build_workload
    workload = build_workload(segments, seed=seed)
    return SyntheticBenchmark(
        name=name, suite="fp", workload=workload, character=character,
        run_steps=run_steps, seed_ref=seed * 2 + 211,
        seed_train=seed * 2 + 212)


def _fp_config(seed: int, train_jitter: float = 0.03,
               **overrides) -> CharacterConfig:
    """Baseline FP character: biased branches, big steady loops."""
    defaults = dict(
        seed=seed,
        diamond_p_choices=(0.03, 0.08, 0.9, 0.95),
        trip_choices=(150.0, 400.0, 1000.0),
        train_jitter_bp=train_jitter,
        train_jitter_trips=0.08)
    defaults.update(overrides)
    return CharacterConfig(**defaults)


def _stencil(name: str) -> list:
    """The standard FP skeleton: nested stencil loops plus one reduction.

    FP inner-loop bodies are straight-line (vectorisable) code, so the
    loop regions have no side exits and their loop-back probability equals
    the latch probability — which is why the paper finds FP trip counts
    accurately classified even at T=100.  The rare branches live outside
    the hot loops (boundary handling).
    """
    return [
        LoopSegment(f"{name}_outer", diamonds=0, chain=1, nested=True),
        LoopSegment(f"{name}_sweep", diamonds=0, chain=3),
        LoopSegment(f"{name}_reduce", diamonds=0, chain=2),
        BranchySegment(f"{name}_bounds", diamonds=2),
    ]


def _stencil_specs(name: str, inner: float = 400.0, sweep: float = 1000.0,
                   reduce_: float = 700.0, outer: float = 6.0) -> dict:
    """Latch trip counts for a stencil skeleton.

    Outer loops iterate modestly (grid sweeps), inner loops carry the
    high trip counts — keeping one driver iteration small enough that
    every segment executes many times per run.
    """
    return {
        f"{name}_outer": BranchSpec(ref=trips(outer)),
        f"{name}_outer.inner": BranchSpec(ref=trips(inner)),
        f"{name}_sweep": BranchSpec(ref=trips(sweep)),
        f"{name}_reduce": BranchSpec(ref=trips(reduce_)),
    }


@register("wupwise", "fp")
def wupwise() -> SyntheticBenchmark:
    """Lattice QCD: 20% mismatch until nominal ~1M (very long warm-up)."""
    segments = [
        LoopSegment("su3", diamonds=2, chain=2, nested=True),
        LoopSegment("gamma", diamonds=1, chain=1),
        BranchySegment("bc", diamonds=1),
    ]
    config = _fp_config(seed=201)
    specs = {
        # The *innermost* loop branch behaves differently for its first
        # ~100k executions (nominal 1M) — the paper's Figure 12 wupwise
        # line.  It must live in the hottest loop to accumulate enough
        # executions for the long warm-up to matter; the gamma loop's
        # heat dilutes its weight to roughly the paper's ~20%.
        "su3": BranchSpec(ref=trips(5.0)),
        "su3.inner": BranchSpec(ref=trips(200.0)),
        "gamma": BranchSpec(ref=trips(1500.0)),
        "su3.inner.d0": BranchSpec(ref=warmup(100_000, 0.5, 0.92),
                                   train=0.88),
    }
    return _make("wupwise", segments, Character(config, specs),
                 run_steps=4_000_000, seed=21)


@register("swim", "fp")
def swim() -> SyntheticBenchmark:
    """Shallow water: textbook steady stencil."""
    return _make("swim", _stencil("swim"),
                 Character(_fp_config(seed=202), _stencil_specs("swim")),
                 seed=22)


@register("mgrid", "fp")
def mgrid() -> SyntheticBenchmark:
    """Multigrid: steady, deeply nested, very high trip counts."""
    config = _fp_config(seed=203)
    specs = _stencil_specs("mgrid", inner=1000.0, sweep=1500.0,
                           reduce_=900.0)
    return _make("mgrid", _stencil("mgrid"), Character(config, specs),
                 seed=23)


@register("applu", "fp")
def applu() -> SyntheticBenchmark:
    """SSOR solver: steady with a mild per-grid-sweep warm-up."""
    config = _fp_config(seed=204, warmup_fraction=0.3, warmup_uses=50,
                        warmup_strength=0.15)
    return _make("applu", _stencil("applu"),
                 Character(config, _stencil_specs("applu", inner=300.0)),
                 seed=24)


@register("mesa", "fp")
def mesa() -> SyntheticBenchmark:
    """3-D graphics library: more branchy than the other FP codes."""
    segments = [
        LoopSegment("raster", diamonds=0, chain=3),
        BranchySegment("clip", diamonds=4),
        LoopSegment("texture", diamonds=0, chain=2, nested=True),
    ]
    config = _fp_config(seed=205,
                        diamond_p_choices=(0.1, 0.3, 0.8, 0.9),
                        train_jitter=0.05)
    specs = {
        "raster": BranchSpec(ref=trips(300.0)),
        "texture": BranchSpec(ref=trips(25.0)),
        "texture.inner": BranchSpec(ref=trips(250.0)),
    }
    return _make("mesa", segments, Character(config, specs), seed=25)


@register("galgel", "fp")
def galgel() -> SyntheticBenchmark:
    """Galerkin FEM: steady spectral loops."""
    config = _fp_config(seed=206)
    specs = _stencil_specs("galgel", inner=600.0, sweep=1200.0)
    return _make("galgel", _stencil("galgel"), Character(config, specs),
                 seed=26)


@register("art", "fp")
def art() -> SyntheticBenchmark:
    """Neural net: steady training epochs, slightly noisier branches."""
    config = _fp_config(seed=207,
                        diamond_p_choices=(0.15, 0.85),
                        train_jitter=0.04)
    return _make("art", _stencil("art"),
                 Character(config, _stencil_specs("art", inner=250.0,
                                                  sweep=800.0)),
                 seed=27)


@register("equake", "fp")
def equake() -> SyntheticBenchmark:
    """Seismic wave propagation: sparse-matrix loops, steady."""
    segments = [
        LoopSegment("smvp", diamonds=0, chain=3, nested=True),
        LoopSegment("time", diamonds=0, chain=2),
        BranchySegment("abc", diamonds=2),
    ]
    config = _fp_config(seed=208)
    specs = {
        "smvp": BranchSpec(ref=trips(20.0)),
        "smvp.inner": BranchSpec(ref=trips(500.0)),
        "time": BranchSpec(ref=trips(250.0)),
    }
    return _make("equake", segments, Character(config, specs), seed=28)


@register("facerec", "fp")
def facerec() -> SyntheticBenchmark:
    """Face recognition: steady with one mildly phased gallery loop."""
    from ..stochastic.behavior import phased
    segments = _stencil("face")
    config = _fp_config(seed=209)
    specs = _stencil_specs("face")
    specs["face_sweep"] = BranchSpec(
        ref=phased([(0.5, trips(300.0)), (0.5, trips(650.0))], FP_STEPS),
        train=trips(450.0))
    return _make("facerec", segments, Character(config, specs), seed=29)


@register("ammp", "fp")
def ammp() -> SyntheticBenchmark:
    """Molecular dynamics: neighbour-list loops, slight drift."""
    from ..stochastic.behavior import drifting
    segments = [
        LoopSegment("nonbon", diamonds=0, chain=2, nested=True),
        LoopSegment("tether", diamonds=0, chain=2),
        BranchySegment("pairs", diamonds=2),
    ]
    config = _fp_config(seed=210, train_jitter=0.04)
    specs = {
        "nonbon": BranchSpec(ref=trips(18.0)),
        "nonbon.inner": BranchSpec(ref=trips(350.0)),
        "tether": BranchSpec(ref=trips(200.0)),
        "pairs.d0": BranchSpec(ref=drifting(0.88, 0.8, FP_STEPS),
                               train=0.85),
    }
    return _make("ammp", segments, Character(config, specs), seed=30)


@register("lucas", "fp")
def lucas() -> SyntheticBenchmark:
    """Lucas–Lehmer primality: training input diverges badly (~25%)."""
    segments = _stencil("fft")
    config = _fp_config(seed=211)
    specs = _stencil_specs("fft", inner=400.0, sweep=500.0)
    # Different exponent sizes flip the hot FFT sweep's trip counts and a
    # couple of boundary branches between train and ref.
    specs["fft_bounds.d0"] = BranchSpec(ref=0.93, train=0.25)
    specs["fft_bounds.d1"] = BranchSpec(ref=0.06, train=0.6)
    specs["fft_sweep"] = BranchSpec(ref=trips(1000.0), train=trips(2.5))
    return _make("lucas", segments, Character(config, specs), seed=31)


@register("fma3d", "fp")
def fma3d() -> SyntheticBenchmark:
    """Crash simulation: steady element loops."""
    config = _fp_config(seed=212)
    specs = _stencil_specs("fma3d", inner=500.0, sweep=900.0)
    return _make("fma3d", _stencil("fma3d"), Character(config, specs),
                 seed=32)


@register("sixtrack", "fp")
def sixtrack() -> SyntheticBenchmark:
    """Particle tracking: extremely regular, highest trip counts."""
    config = _fp_config(seed=213, train_jitter=0.02)
    specs = _stencil_specs("six", inner=1600.0, sweep=1800.0,
                           reduce_=900.0)
    return _make("sixtrack", _stencil("six"), Character(config, specs),
                 seed=33)


@register("apsi", "fp")
def apsi() -> SyntheticBenchmark:
    """Pollutant distribution: training input diverges (~20%)."""
    segments = _stencil("apsi")
    config = _fp_config(seed=214)
    specs = _stencil_specs("apsi")
    specs["apsi_bounds.d0"] = BranchSpec(ref=0.9, train=0.4)
    specs["apsi_bounds.d1"] = BranchSpec(ref=0.08, train=0.5)
    specs["apsi_reduce"] = BranchSpec(ref=trips(700.0), train=trips(2.7))
    return _make("apsi", segments, Character(config, specs), seed=34)
