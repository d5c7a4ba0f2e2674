"""Oracle anchor: both engine sets reproduce the benchmark's pinned digests.

``benchmarks/perf/expected.json`` pins the SHA-256 of every benchmark's
:class:`~repro.harness.results.BenchmarkResult` under the benchmark's
study configs.  Here one INT and one FP benchmark run under its
``reduced`` config twice — on the production engines and on the
reference engines of ``tests/reference.py`` — and each result must hash
to the pinned digest.  So the pin is tied to the slow, obviously-correct
engines, not just to whatever the fast path computed when it was taken.

``gzip`` and ``art`` are chosen because their digests do not depend on
the BLAS thread count (``crafty``, ``gcc`` and ``perlbmk`` differ in the
last bits of the NAVEP least-squares solve under threaded OpenBLAS).
"""

import hashlib
import json
import os
from dataclasses import asdict

from repro.harness import run_full_study
from repro.obs import counter_value

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "..", "benchmarks", "perf",
                             "expected.json")

NAMES = ["gzip", "art"]


def _digest(result):
    """The digest ``expected.json`` pins for one benchmark's result."""
    payload = json.dumps(asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


#: Counters only the production engines advance.
ENGINE_COUNTERS = ("kernel.vector.runs", "replay.kernel.batched.windows")


def _production_work_during_reduced_study():
    """Run the pinned ``reduced`` study, check its digests, and return
    how far it advanced each of :data:`ENGINE_COUNTERS`."""
    before = [counter_value(name) for name in ENGINE_COUNTERS]
    with open(EXPECTED_PATH) as f:
        pinned = json.load(f)["configs"]["reduced"]
    config = pinned["config"]
    results = run_full_study(names=NAMES, thresholds=config["thresholds"],
                             steps_scale=config["steps_scale"],
                             include_perf=config["include_perf"],
                             cache_dir=None, jobs=1)
    assert {name: _digest(r) for name, r in results.benchmarks.items()} \
        == {name: pinned["digests"][name] for name in NAMES}
    return [counter_value(name) - b
            for name, b in zip(ENGINE_COUNTERS, before)]


def test_production_engines_match_pinned_digests():
    walks, windows = _production_work_during_reduced_study()
    assert walks == 2 * len(NAMES)
    assert windows > 0


def test_reference_engines_match_pinned_digests(oracle_engines):
    assert _production_work_during_reduced_study() == [0, 0]
