"""One resolved study specification, threaded from the CLI to the worker.

The paper's figures (§4) depend on five things: the benchmark, the
threshold sweep, the DBT configuration, the cost model and the run
length.  Everything else about a run — worker count, retry budget,
timeouts, profiling, where failure dumps go, injected faults — is
transport.  :class:`StudySpec` holds both kinds in one frozen,
picklable object, and every field declares in its metadata which kind
it is.  The declarations drive everything that used to be kept by hand:

* :meth:`StudySpec.config_key` / :meth:`StudySpec.run_key` hash exactly
  the result-affecting fields, so a run knob can never split a cache;
* :meth:`StudySpec.manifest` lists every field for the run manifest;
* :func:`resolve_spec` applies explicit > ``REPRO_*`` > default to
  every field through one parser per value type.

An empty-but-set numeric variable is malformed, not "unset": it is
almost always a broken shell expansion (``REPRO_JOBS=$N`` with ``N``
unset), and silently running on every CPU, without retries or without a
timeout is the worst possible reading of it.  Boolean flags read an
empty value as off; string knobs read it as unset.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..dbt.config import DBTConfig
from ..perfmodel.costs import DEFAULT_COSTS, CostModel
from ..workloads.spec import SIM_THRESHOLDS
from .faults import FaultPlan

#: Retry budget when neither the caller nor the environment chooses.
DEFAULT_RETRIES = 2

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


def _parse_int(env: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{env} must be an integer, got {text!r}") from None


def _parse_float(env: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{env} must be a number, got {text!r}") from None


def _parse_bool(env: str, text: str) -> bool:
    value = text.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(f"{env} must be a boolean flag, got {text!r}")


def _parse_str(env: str, text: str) -> Optional[str]:
    return text or None


def _result(key: Optional[Callable[[Any], Any]] = None,
            **kwargs: Any) -> Any:
    """A field that changes the study's numbers (and so its cache key).

    ``key`` normalises the value for hashing; returning ``None`` leaves
    the field out of the key altogether.
    """
    return field(metadata={"affects_results": True, "key": key}, **kwargs)


def _knob(env: str, parse: Callable[[str, str], Any],
          affects_results: bool = False,
          key: Optional[Callable[[Any], Any]] = None,
          minimum: Optional[float] = None, above: Optional[float] = None,
          manifest: Optional[str] = None, **kwargs: Any) -> Any:
    """A field that the ``env`` variable may set, with its range check."""
    return field(metadata={"affects_results": affects_results, "key": key,
                           "env": env, "parse": parse, "minimum": minimum,
                           "above": above, "manifest": manifest}, **kwargs)


def _cpu_count() -> int:
    return os.cpu_count() or 1


def _plain(value: Any) -> Any:
    """A field value as JSON data."""
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _hash(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class StudySpec:
    """Everything one study run needs, resolved once.

    Result fields:
        thresholds: simulator thresholds to sweep (keyed sorted, so the
            order they are given in never splits a cache).
        config: DBT knobs (the threshold is overridden per sweep point).
        costs: the Figure 17 cost calibration.
        steps_scale: scales run lengths (sub-1.0 for quick smoke runs).
        include_perf: also run the cost model.
        verify: run the semantic verifier inside every study; keyed
            only when on, so unverified runs keep the fingerprints —
            and the caches — they had before the verifier existed.

    Run fields (each may come from the ``REPRO_*`` variable it names):
        jobs: worker processes (default: every CPU; ``1`` runs every
            benchmark inline, more run a process pool).
        retries: per-benchmark retry budget after a failed attempt
            (``0`` = one attempt, then the inline fallback).
        job_timeout: seconds before an in-flight job is declared hung
            (``None`` = unlimited; only enforced with a process pool).
        profile: arm the fine-grained profiling span sites in the
            parent and every worker (adds timing spans only).
        flight_dir: where flight-recorder dumps go (``None`` = the
            cache's ``flight`` directory, or nowhere without a cache).
        fault_spec: the fault-injection rules (see
            :mod:`repro.harness.faults`).
    """

    thresholds: Tuple[int, ...] = _result(
        default=SIM_THRESHOLDS, key=lambda ts: sorted(int(t) for t in ts))
    config: DBTConfig = _result(default_factory=DBTConfig)
    costs: CostModel = _result(default=DEFAULT_COSTS)
    steps_scale: float = _result(default=1.0)
    include_perf: bool = _result(default=True)
    verify: bool = _knob("REPRO_VERIFY", _parse_bool, affects_results=True,
                         key=lambda on: True if on else None, default=False)
    jobs: int = _knob("REPRO_JOBS", _parse_int, minimum=1,
                      default_factory=_cpu_count)
    retries: int = _knob("REPRO_RETRIES", _parse_int, minimum=0,
                         default=DEFAULT_RETRIES)
    job_timeout: Optional[float] = _knob("REPRO_JOB_TIMEOUT", _parse_float,
                                         above=0, default=None)
    profile: bool = _knob("REPRO_PROFILE", _parse_bool,
                          manifest="profile_enabled", default=False)
    flight_dir: Optional[str] = _knob("REPRO_FLIGHT_DIR", _parse_str,
                                      default=None)
    fault_spec: Optional[str] = _knob("REPRO_FAULT_SPEC", _parse_str,
                                      default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        for f in fields(self):
            value = getattr(self, f.name)
            minimum = f.metadata.get("minimum")
            above = f.metadata.get("above")
            label = f.name.replace("_", " ")
            if minimum is not None and value < minimum:
                raise ValueError(
                    f"{label} must be >= {minimum}, got {value}")
            if above is not None and value is not None and value <= above:
                raise ValueError(f"{label} must be > {above}, got {value}")
        FaultPlan.from_spec(self.fault_spec)  # FaultSpecError if malformed

    def result_fields(self) -> Dict[str, Any]:
        """The fields that change the study's numbers, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata["affects_results"]}

    def _key_payload(self) -> Dict[str, Any]:
        payload = {}
        for f in fields(self):
            if f.metadata["affects_results"]:
                value = (f.metadata["key"] or _plain)(getattr(self, f.name))
                if value is not None:
                    payload[f.name] = value
        return payload

    def config_key(self) -> str:
        """Shard-level cache key: the result fields only."""
        return _hash(self._key_payload())

    def run_key(self, names: Sequence[str]) -> str:
        """Run-level cache key: the result fields plus the name set."""
        return _hash(dict(self._key_payload(), names=sorted(names)))

    def manifest(self) -> Dict[str, Any]:
        """Every field as a run-manifest key (JSON data)."""
        return {f.metadata.get("manifest") or f.name:
                _plain(getattr(self, f.name)) for f in fields(self)}


def resolve_spec(**explicit: Any) -> StudySpec:
    """The study spec: explicit > ``REPRO_*`` > default, field by field.

    ``None`` means "not given".  Values are range-checked whichever
    source they come from; an unknown keyword is a ``TypeError``.
    """
    values = {name: value for name, value in explicit.items()
              if value is not None}
    for f in fields(StudySpec):
        env = f.metadata.get("env")
        if f.name not in values and env is not None and env in os.environ:
            values[f.name] = f.metadata["parse"](env, os.environ[env])
    return StudySpec(**values)
