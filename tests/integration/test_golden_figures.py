"""Golden-corpus wall: study outputs are pinned, byte for byte.

Three layers of protection for the figure data the paper comparison
rests on:

1. **Corpus digests** — the committed ``results/fig*.txt`` and
   ``results/ablation_*.txt`` renderings are pinned by SHA-256.  Any
   change to the study pipeline that alters a single byte of a rendered
   figure shows up here as a digest mismatch, forcing a deliberate
   regeneration (see EXPERIMENTS.md, "Regenerating the golden corpus")
   instead of silent drift.
2. **Reduced-study matrix** — a small study is recomputed under every
   pool backend, job count (1/2/3) and verification mode, and every cell
   must serialise to identical bytes; the same study on the reference
   engines (``oracle_engines``) must render identical figures.  This is
   the fast, always-on version of the full-corpus guarantee.
3. **Full-scale gate** — with ``REPRO_GOLDEN_FULL=1`` the entire
   full-scale study is regenerated on the production and the reference
   engines and its rendered figures compared byte-for-byte against the
   committed corpus.  Slow (minutes); run before regenerating the corpus
   or cutting a release.
"""

import hashlib
import json
import os

import pytest

from repro.harness import run_full_study
from repro.harness.figures import FIGURES
from repro.harness.results import _result_to_dict
from repro.harness.tables import render

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "..", "results")

#: SHA-256 of every committed golden rendering.  Regenerate with
#: ``sha256sum results/*.txt`` after an intentional pipeline change
#: (EXPERIMENTS.md documents the full procedure).
GOLDEN_DIGESTS = {
    "ablation_phase.txt":
        "6f9a8f4dfe8dc492e728b9dc57d08fe770b00de4c72f4b3c6d5129c510aebc75",
    "ablation_pool.txt":
        "68a8856a827b458e4a1be050b874322c4335d539eca127a1a23a1e1a2ff807af",
    "ablation_regions.txt":
        "800608d0176d4f969f9033133f1f7ea17104b37152b7a1140be37906f3e5aca9",
    "ablation_static.txt":
        "ef43f7e4922cbc473ac376fea7305cc6e1bbe7bd9ca6f8aef782a81f52b49a0b",
    "fig08_sd_bp.txt":
        "2d97e7766c6e6b3abaa0e305a4da77a445ea3a5fb9849d2b52477ec7b986a116",
    "fig09_sd_bp_int.txt":
        "c4741b3846452b1155d84318b624f4d223dbb709e9f9bdae3c574b3e70c1342c",
    "fig10_bp_mismatch.txt":
        "718925c7aaff315cc259699af91287bac53c3ac323df1cf031eae67ce1143499",
    "fig11_bp_mismatch_int.txt":
        "c331391da50feedcc5b2989afcef4080cb558a9e8e3ec08f9f905caf07f699e3",
    "fig12_bp_mismatch_fp.txt":
        "84b45f71a5e1926a4abe8ba5d08df801460e6cded3e31804eaa4f7bd9f92c7f6",
    "fig13_sd_cp.txt":
        "8553270573fee849f83c14d7e952acdd681b969648c67ddb725aba29fad52e08",
    "fig14_sd_lp.txt":
        "70317e3ee813127f1485cdd9e83a4622932bc024e7fb7543eaf3a4f587cdd3f1",
    "fig15_lp_mismatch.txt":
        "61da14737767310c7a211e37d1dab8724aa04309d09874d2da86b41bc0b8da81",
    "fig16_lp_mismatch_int.txt":
        "fa2235e9d0c77deae8ef6d15733389ba1236b73a6ffa98a88b02f55f5c8cf323",
    "fig17_performance.txt":
        "d9e19355e933ed9a4a9275c7e162943af39d5afc72757e66f4c4d2a7cdf2949a",
    "fig18_overhead.txt":
        "8a3b68d67316a4d9ddf3276d989de9cfca4435ee6c9cf80cccf90837305e5471",
}

REDUCED = dict(names=["gzip", "mcf", "art"], thresholds=[5, 50, 500],
               steps_scale=0.05, include_perf=True, cache_dir=None)


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _figure_bytes(results):
    """Canonical serialisation of the figure-facing data (no manifest —
    it carries timings/hostnames that legitimately differ per run)."""
    payload = {name: _result_to_dict(r)
               for name, r in results.benchmarks.items()}
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_corpus_digest(name):
    path = os.path.join(RESULTS_DIR, name)
    assert os.path.exists(path), f"golden rendering {name} missing"
    assert _digest(path) == GOLDEN_DIGESTS[name], (
        f"{name} drifted from its pinned digest — if the change is "
        f"intentional, regenerate the corpus per EXPERIMENTS.md and "
        f"update GOLDEN_DIGESTS")


def test_reduced_study_matrix_byte_identical():
    """dispatch mode x verify: identical bytes."""
    modes = [dict(jobs=1),                            # inprocess backend
             dict(jobs=2),                            # process backend
             dict(jobs=3)]                            # one job per worker
    baseline = None
    for mode in modes:
        for verify in (False, True):
            results = run_full_study(verify=verify, **mode, **REDUCED)
            got = _figure_bytes(results)
            label = f"mode={mode} verify={verify}"
            if baseline is None:
                baseline = got
            else:
                assert got == baseline, f"{label} diverged"
            assert "kernel" not in results.manifest, label
            assert "replay_kernel" not in results.manifest, label
            # Jobs run largest first; results keep the caller's order.
            assert list(results.benchmarks) == REDUCED["names"], label
            assert list(results.manifest["timings"]) == \
                REDUCED["names"], label
            assert results.manifest["dispatch"]["order"] == \
                ["mcf", "art", "gzip"], label
            assert results.manifest["pool"] == (
                "process" if mode["jobs"] > 1 else "inprocess"), label


def test_reduced_figures_render_identically_across_kernels(request):
    """Rendered figure text (what results/*.txt holds) is engine-blind:
    the reference walker and heap replay render the same figures."""
    vector = run_full_study(jobs=1, **REDUCED)
    request.getfixturevalue("oracle_engines")
    scalar = run_full_study(jobs=1, **REDUCED)
    assert _figure_bytes(scalar) == _figure_bytes(vector)
    for fignum, builder in sorted(FIGURES.items()):
        assert render(builder(scalar)) == render(builder(vector)), \
            f"figure {fignum} renders differently on the reference engines"


@pytest.mark.skipif(not os.environ.get("REPRO_GOLDEN_FULL"),
                    reason="full-scale regeneration; set REPRO_GOLDEN_FULL=1")
def test_full_corpus_regenerates_identically(request):
    """The committed corpus is reproducible from scratch, on the
    production and on the reference engines."""
    vector = run_full_study(include_perf=True, cache_dir=None)
    request.getfixturevalue("oracle_engines")
    scalar = run_full_study(include_perf=True, cache_dir=None, jobs=1)
    assert _figure_bytes(scalar) == _figure_bytes(vector)
    for fignum, builder in sorted(FIGURES.items()):
        name = f"{builder.__name__}.txt"
        path = os.path.join(RESULTS_DIR, name)
        if not os.path.exists(path):
            continue
        with open(path) as f:
            committed = f.read()
        assert render(builder(vector)) + "\n" == committed, \
            f"figure {fignum} no longer matches the committed corpus"
