"""Harness integration of the semantic verifier: cache-fingerprint
isolation, per-study wiring, shard round-trips.  ``REPRO_VERIFY`` is
resolved by ``resolve_spec`` (tests/harness/test_studyspec.py)."""

import pytest

from repro.harness.results import BenchmarkResult, _result_from_dict, \
    _result_to_dict
from repro.harness.runner import study_benchmark
from repro.harness.studyspec import StudySpec
from repro.workloads import get_benchmark


class TestCacheIsolation:
    def test_verified_runs_get_their_own_fingerprint(self):
        plain = StudySpec(thresholds=[10]).config_key()
        verified = StudySpec(thresholds=[10], verify=True).config_key()
        assert plain != verified

    def test_unverified_payload_is_unchanged(self):
        # pre-verifier caches must stay valid: verify=False adds no key
        payload = StudySpec(thresholds=[10])._key_payload()
        assert "verify" not in payload
        assert StudySpec(thresholds=[10],
                         verify=True)._key_payload()["verify"] is True


class TestStudyBenchmarkVerify:
    @pytest.fixture(scope="class")
    def verified_result(self):
        bench = get_benchmark("gzip")
        return study_benchmark(bench, [10, 50], steps_scale=0.05,
                               include_perf=False, verify=True)

    def test_stock_suite_verifies_clean(self, verified_result):
        assert verified_result.verify_findings == []

    def test_unverified_run_has_no_findings_field_content(self):
        bench = get_benchmark("gzip")
        result = study_benchmark(bench, [10], steps_scale=0.05,
                                 include_perf=False, verify=False)
        assert result.verify_findings == []

    def test_verify_bumps_analysis_counters(self):
        from repro.obs import counter_value
        before = counter_value("analysis.checks")
        bench = get_benchmark("gzip")
        study_benchmark(bench, [10], steps_scale=0.05,
                        include_perf=False, verify=True)
        assert counter_value("analysis.checks") > before


def _blank_result():
    return BenchmarkResult(
        name="gzip", suite="INT", thresholds=[10],
        sd_bp={10: 0.1}, bp_mismatch={10: 0.0}, sd_cp={10: None},
        sd_lp={10: None}, lp_mismatch={10: None},
        train_sd_bp=0.2, train_bp_mismatch=0.1,
        train_sd_cp=None, train_sd_lp=None,
        profiling_ops={10: 100}, train_ops=50, avep_ops=500)


class TestShardRoundTrip:
    def test_verify_findings_survive_serialization(self):
        result = _blank_result()
        result.verify_findings = [
            "error: [counter.negative] INIP(10) block 3: use=-1"]
        restored = _result_from_dict(_result_to_dict(result))
        assert restored.verify_findings == result.verify_findings

    def test_legacy_payload_defaults_to_empty(self):
        data = _result_to_dict(_blank_result())
        del data["verify_findings"]  # a pre-verifier shard
        assert _result_from_dict(data).verify_findings == []


class TestReportVerify:
    """The CLI's verify reporter: stderr lines, summary, exit code 4."""

    @staticmethod
    def _results(**benchmarks):
        from types import SimpleNamespace
        return SimpleNamespace(benchmarks=benchmarks)

    def test_clean_results_exit_zero(self, capsys):
        from repro.harness.cli import _report_verify
        result = _blank_result()
        assert _report_verify(self._results(gzip=result)) == 0
        assert capsys.readouterr().err == ""

    def test_error_findings_exit_four(self, capsys):
        from repro.harness.cli import EXIT_VERIFY, _report_verify
        result = _blank_result()
        result.verify_findings = [
            "error: [counter.negative] INIP(10) block 3: use=-1",
            "warning: [counter.zero-use-entry] INIP(10) block 5: never ran"]
        assert _report_verify(self._results(gzip=result)) == EXIT_VERIFY
        err = capsys.readouterr().err
        assert "verify: gzip: error: [counter.negative]" in err
        assert "1 error(s)" in err and "1 warning(s)" in err

    def test_warnings_alone_exit_zero(self, capsys):
        from repro.harness.cli import _report_verify
        result = _blank_result()
        result.verify_findings = [
            "warning: [navep.conservation-drift] block 2: 12% drift"]
        assert _report_verify(self._results(gzip=result)) == 0
        assert "verify: gzip: warning:" in capsys.readouterr().err
