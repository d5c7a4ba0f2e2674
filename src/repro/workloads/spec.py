"""Synthetic benchmark definition and the SPEC2000 stand-in registry.

Each :class:`SyntheticBenchmark` couples a generated skeleton with a
character and two inputs (``ref``/``train``), mirroring how the paper runs
each SPEC2000 binary under its reference and training inputs.

Scaling (see DESIGN.md §2): all run lengths and thresholds are scaled by
:data:`THRESHOLD_SCALE` relative to the paper.  The harness reports
results against the *paper-nominal* thresholds so the figures line up
with the original axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest, find_loops
from ..stochastic.behavior import ProgramBehavior
from ..stochastic.trace import ExecutionTrace, RunCounts
from ..stochastic.vecwalker import record_counts, record_trace
from .characters import Character, realize_character
from .generators import Workload

#: Simulator thresholds = paper thresholds / THRESHOLD_SCALE.
THRESHOLD_SCALE = 10

#: Paper-nominal retranslation thresholds (§4: 100 … 4M).
NOMINAL_THRESHOLDS: Tuple[int, ...] = (
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 40_000, 80_000,
    160_000, 1_000_000, 4_000_000)

#: The same sweep in simulator units.
SIM_THRESHOLDS: Tuple[int, ...] = tuple(t // THRESHOLD_SCALE
                                        for t in NOMINAL_THRESHOLDS)

#: Figure 17's base: "optimise every block executed at least once".
BASE_THRESHOLD = 1


def nominal_label(sim_threshold: int) -> str:
    """Human-readable paper-nominal label of a simulator threshold."""
    nominal = sim_threshold * THRESHOLD_SCALE
    if nominal >= 1_000_000:
        return f"{nominal // 1_000_000}M"
    if nominal >= 1_000:
        return f"{nominal // 1_000}k"
    return str(nominal)


@dataclass
class SyntheticBenchmark:
    """One synthetic SPEC2000 stand-in.

    Attributes:
        name: lower-case benchmark name (``"mcf"``, ``"wupwise"`` …).
        suite: ``"int"`` or ``"fp"``.
        workload: the generated skeleton (CFG, sizes, roles).
        character: behaviour description.
        run_steps: reference-run length in block executions.
        train_steps: training-run length (defaults to ``run_steps // 3`` —
            training inputs are much shorter runs, as in SPEC).
        seed_ref / seed_train: walker seeds per input.
    """

    name: str
    suite: str
    workload: Workload
    character: Character
    run_steps: int
    train_steps: Optional[int] = None
    seed_ref: int = 1
    seed_train: int = 2
    _behaviors: Optional[Tuple[ProgramBehavior, ProgramBehavior]] = \
        field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError(f"suite must be 'int' or 'fp', got "
                             f"{self.suite!r}")
        if self.train_steps is None:
            self.train_steps = max(self.run_steps // 3, 10_000)

    @property
    def cfg(self) -> ControlFlowGraph:
        """The benchmark's CFG."""
        return self.workload.cfg

    def behaviors(self) -> Tuple[ProgramBehavior, ProgramBehavior]:
        """(ref, train) branch behaviours (realised once, then cached)."""
        if self._behaviors is None:
            self._behaviors = realize_character(
                self.workload, self.character, self.run_steps)
        return self._behaviors

    def _input(self, input_name: str) -> Tuple[ProgramBehavior, int, int]:
        """(behaviour, run length, seed) of the named input."""
        ref, train = self.behaviors()
        if input_name == "ref":
            return ref, self.run_steps, self.seed_ref
        if input_name == "train":
            return (train, self.train_steps,  # type: ignore[return-value]
                    self.seed_train)
        raise ValueError(f"unknown input {input_name!r}")

    def trace(self, input_name: str = "ref") -> ExecutionTrace:
        """Record one run under the given input."""
        behavior, steps, seed = self._input(input_name)
        return record_trace(self.cfg, behavior, steps, seed=seed)

    def counts(self, input_name: str = "ref") -> RunCounts:
        """Count one run under the given input without recording it.

        Equal to ``trace(input_name).counts()``, from the same walk, but
        no per-step array is built: enough for AVEP and INIP(train).
        """
        behavior, steps, seed = self._input(input_name)
        return record_counts(self.cfg, behavior, steps, seed=seed)

    def scaled(self, steps_scale: float) -> "SyntheticBenchmark":
        """A copy with both run lengths scaled by ``steps_scale``.

        ``self`` is left untouched, so repeated studies of one benchmark
        instance at different scales never compound.  Floors (20k ref /
        10k train) keep smoke runs statistically sane, and the cached
        behaviours are dropped because phase boundaries are realised
        against the run length.
        """
        if steps_scale == 1.0:
            return self
        run_steps = max(int(self.run_steps * steps_scale), 20_000)
        train_steps = max(
            int((self.train_steps or self.run_steps // 3) * steps_scale),
            10_000)
        return replace(self, run_steps=run_steps, train_steps=train_steps,
                       _behaviors=None)

    def loop_forest(self) -> LoopForest:
        """Natural loops of the benchmark CFG."""
        return find_loops(self.cfg)


#: Builder registry: name -> zero-arg factory (populated by the suites).
_REGISTRY: Dict[str, Callable[[], SyntheticBenchmark]] = {}

#: Suite of each registered name, recorded at registration so that the
#: names of a suite resolve without building any benchmark.
_SUITE: Dict[str, str] = {}


def register(name: str, suite: str):
    """Decorator registering a benchmark factory under ``name`` in
    ``suite`` (``"int"`` or ``"fp"``)."""
    if suite not in ("int", "fp"):
        raise ValueError(f"suite must be 'int' or 'fp', got {suite!r}")

    def wrap(factory: Callable[[], SyntheticBenchmark]):
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        _REGISTRY[name] = factory
        _SUITE[name] = suite
        return factory
    return wrap


def _ensure_suites_loaded() -> None:
    from . import fp_suite, int_suite  # noqa: F401  (registration side effect)


def benchmark_names(suite: Optional[str] = None) -> List[str]:
    """Registered benchmark names, sorted, optionally of one suite.
    Builds no benchmark."""
    _ensure_suites_loaded()
    return sorted(name for name in _REGISTRY
                  if suite is None or _SUITE[name] == suite)


def suite_names() -> List[str]:
    """The whole suite's names, INT then FP, each sorted (the study's
    default order).  Builds no benchmark."""
    return benchmark_names("int") + benchmark_names("fp")


def get_benchmark(name: str) -> SyntheticBenchmark:
    """Instantiate a registered benchmark by name."""
    _ensure_suites_loaded()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; known: "
                       f"{sorted(_REGISTRY)}") from None
    benchmark = factory()
    if benchmark.suite != _SUITE[name]:
        raise ValueError(f"benchmark {name!r} is registered in suite "
                         f"{_SUITE[name]!r} but built in "
                         f"{benchmark.suite!r}")
    return benchmark


def int_benchmarks() -> List[SyntheticBenchmark]:
    """The 12 SPEC2000 INT stand-ins."""
    return [get_benchmark(n) for n in benchmark_names("int")]


def fp_benchmarks() -> List[SyntheticBenchmark]:
    """The 14 SPEC2000 FP stand-ins."""
    return [get_benchmark(n) for n in benchmark_names("fp")]


def all_benchmarks() -> List[SyntheticBenchmark]:
    """The whole suite, INT then FP."""
    return [get_benchmark(n) for n in suite_names()]
