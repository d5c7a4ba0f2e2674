"""The resolved study spec: one env resolver, declared cache keys.

Every ``REPRO_*`` study knob is read by :func:`resolve_spec` alone, with
one rule per value type; the cache keys are derived from the fields'
``affects_results`` declarations and must keep the values every
existing cache was written under.
"""

import os
from dataclasses import fields

import pytest

from repro.dbt import DBTConfig
from repro.harness.faults import FaultSpecError
from repro.harness.studyspec import StudySpec, resolve_spec
from repro.perfmodel import CostModel
from repro.workloads import benchmark_names


class Rejects:
    """The expected outcome of a malformed value: this error message."""

    def __init__(self, match):
        self.match = match


#: knob -> (variable, {case: (variable text or None = unset, outcome)})
MATRIX = {
    "jobs": ("REPRO_JOBS", {
        "unset": (None, os.cpu_count() or 1),
        "valid": ("7", 7),
        "empty": ("", Rejects("REPRO_JOBS must be an integer")),
        "garbage": ("nope", Rejects("REPRO_JOBS must be an integer")),
        "out of range": ("0", Rejects("jobs must be >= 1")),
    }),
    "retries": ("REPRO_RETRIES", {
        "unset": (None, 2),
        "valid": ("5", 5),
        "zero": ("0", 0),  # the least, and falsy: no retry at all
        "empty": ("", Rejects("REPRO_RETRIES must be an integer")),
        "garbage": ("nope", Rejects("REPRO_RETRIES must be an integer")),
        "out of range": ("-1", Rejects("retries must be >= 0")),
    }),
    "job_timeout": ("REPRO_JOB_TIMEOUT", {
        "unset": (None, None),
        "valid": ("7.5", 7.5),
        "empty": ("", Rejects("REPRO_JOB_TIMEOUT must be a number")),
        "garbage": ("soon", Rejects("REPRO_JOB_TIMEOUT must be a number")),
        "out of range": ("0", Rejects("job timeout must be > 0")),
    }),
    "verify": ("REPRO_VERIFY", {
        "unset": (None, False),
        "valid": ("yes", True),
        "empty": ("", False),
        "garbage": ("maybe", Rejects("REPRO_VERIFY must be a boolean")),
        # Every other spelling of the boolean rule.
        "true 1": ("1", True),
        "true true": ("true", True),
        "true on": ("on", True),
        "true TRUE": ("TRUE", True),
        "false 0": ("0", False),
        "false false": ("false", False),
        "false no": ("no", False),
        "false off": ("off", False),
    }),
    "flight_dir": ("REPRO_FLIGHT_DIR", {
        "unset": (None, None),
        "valid": ("dumps", "dumps"),
        "empty": ("", None),
    }),
    "fault_spec": ("REPRO_FAULT_SPEC", {
        "unset": (None, None),
        "valid": ("gzip:error:2", "gzip:error:2"),
        "empty": ("", None),
        "garbage": ("gzip", Rejects("bad fault entry")),
        "out of range": ("gzip:error:0", Rejects("fault count must be >= 1")),
    }),
}


@pytest.fixture
def clean_env(monkeypatch):
    for variable, _ in MATRIX.values():
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


@pytest.mark.parametrize("knob,case", [
    (knob, case) for knob, (_, cases) in MATRIX.items() for case in cases])
def test_resolve_spec(clean_env, knob, case):
    variable, cases = MATRIX[knob]
    text, outcome = cases[case]
    if text is not None:
        clean_env.setenv(variable, text)
    if isinstance(outcome, Rejects):
        with pytest.raises(ValueError, match=outcome.match):
            resolve_spec()
    else:
        value = getattr(resolve_spec(), knob)
        assert value == outcome and type(value) is type(outcome)


@pytest.mark.parametrize("knob", sorted(MATRIX))
def test_explicit_value_never_reads_the_environment(clean_env, knob):
    variable, cases = MATRIX[knob]
    # Every value the environment can give, False and 0 included, wins
    # over every variable text it rejects (empty or not) when passed
    # explicitly (``None`` means "read the environment").
    rejected = [text for text, outcome in cases.values()
                if isinstance(outcome, Rejects)] or ["x"]
    for text in rejected:
        clean_env.setenv(variable, text)
        for _, outcome in cases.values():
            if outcome is not None and not isinstance(outcome, Rejects):
                assert getattr(resolve_spec(**{knob: outcome}), knob) \
                    == outcome, (text, outcome)
    text, value = cases["valid"]
    if "out of range" in cases:
        # Explicit values pass the same range check as the environment's.
        text, outcome = cases["out of range"]
        clean_env.delenv(variable)
        with pytest.raises(ValueError, match=outcome.match):
            resolve_spec(**{knob: type(value)(text)})


def test_resolve_spec_rejects_unknown_fields():
    with pytest.raises(TypeError, match="pool"):
        resolve_spec(pool="process")
    with pytest.raises(FaultSpecError):
        StudySpec(fault_spec="gzip:melt")


# -- cache keys ---------------------------------------------------------------


@pytest.mark.parametrize("spec,run_key,config_key", [
    (StudySpec(), "51c273f776bcde0f", "4c2b37064e6a4ab9"),
    (StudySpec(include_perf=False), "ac7906d257082549", "96f40ccf291cb203"),
    (StudySpec(steps_scale=0.1, verify=True),
     "6225fd574e634a30", "e16ffa53e8709cfc"),
    (StudySpec(thresholds=[5, 50, 500, 5000], steps_scale=0.5),
     "fe1692e4c3d91407", "58da0940b780f7a9"),
], ids=["paper", "no-perf", "quick-verify", "reduced"])
def test_cache_keys_are_pinned(spec, run_key, config_key):
    # Every existing cache was written under these keys.
    names = benchmark_names()
    assert len(names) == 26
    assert spec.run_key(names) == run_key
    assert spec.config_key() == config_key


#: One value per field that differs from its default.
FLIPPED = dict(
    thresholds=(5, 50), config=DBTConfig(pool_trigger_size=3),
    costs=CostModel(interp_cost=4.0), steps_scale=0.5, include_perf=False,
    verify=True, jobs=(os.cpu_count() or 1) + 1, retries=0,
    job_timeout=9.0, flight_dir="dumps",
    fault_spec="gzip:error")

RESULT_FIELDS = {"thresholds", "config", "costs", "steps_scale",
                 "include_perf", "verify"}


def test_declarations_drive_the_config_key():
    declared = {f.name for f in fields(StudySpec)
                if f.metadata["affects_results"]}
    assert declared == RESULT_FIELDS
    assert set(FLIPPED) == {f.name for f in fields(StudySpec)}
    base = StudySpec()
    for name, value in FLIPPED.items():
        flipped = StudySpec(**{name: value})
        assert getattr(flipped, name) != getattr(base, name), name
        changed = flipped.config_key() != base.config_key()
        assert changed == (name in RESULT_FIELDS), name
        assert (flipped.run_key(["gzip"]) != base.run_key(["gzip"])) == \
            changed, name


def test_manifest_lists_every_field():
    manifest = StudySpec(thresholds=[50, 5], verify=True).manifest()
    assert manifest["thresholds"] == [50, 5]  # as given, not sorted
    assert manifest["verify"] is True
    assert manifest["config"]["threshold"] == DBTConfig().threshold
    assert len(manifest) == len(fields(StudySpec))
