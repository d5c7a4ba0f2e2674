"""CLI tests (cheap paths only — figure 5 and argument validation)."""

import pytest

from repro.harness.cli import build_parser, main


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.figures is None
    assert not args.quick
    assert not args.no_perf


def test_parser_accepts_options():
    args = build_parser().parse_args(
        ["--figures", "8", "17", "--benchmarks", "gzip", "--quick",
         "--no-perf", "--no-cache", "--verbose"])
    assert args.figures == [8, 17]
    assert args.benchmarks == ["gzip"]
    assert args.quick and args.no_perf and args.no_cache and args.verbose


def test_figure5_only_runs_without_study(capsys):
    assert main(["--figures", "5"]) == 0
    out = capsys.readouterr().out
    assert "Sd.BP = 0.21" in out
    assert "Sd.CP = 0.00" in out


def test_unknown_benchmark_rejected(capsys):
    assert main(["--figures", "5", "--benchmarks", "doom"]) == 2
    assert "unknown benchmarks" in capsys.readouterr().err


def test_quick_single_figure_single_benchmark(capsys):
    code = main(["--figures", "13", "--benchmarks", "swim", "--quick",
                 "--no-perf", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 13" in out


def test_unknown_figure_rejected(capsys):
    code = main(["--figures", "99", "--benchmarks", "swim", "--quick",
                 "--no-perf", "--no-cache"])
    assert code == 2


def test_summary_command(capsys):
    code = main(["--summary", "swim", "--quick", "--no-perf",
                 "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "study card: swim" in out
    assert "training reference" in out


@pytest.mark.parametrize("command", [["--summary", "gzip"],
                                     ["--stats", "--benchmarks", "gzip"]])
def test_every_study_flag_reaches_the_study(monkeypatch, command):
    from repro.harness import cli
    from repro.harness.results import StudyResults

    seen = {}

    def fake_study(**kwargs):
        seen.update(kwargs)
        return StudyResults(manifest={"failed_benchmarks": {}})

    monkeypatch.setattr(cli, "run_full_study", fake_study)
    assert main(command + [
        "--quick", "--no-perf", "--no-cache", "--jobs", "2",
        "--retries", "1", "--job-timeout", "5", "--verify",
        "--flight-dir", "dumps", "--verbose"]) == 0
    assert seen["names"] == ["gzip"]
    assert seen["cache_dir"] is None
    assert seen["verbose"] is True
    assert {key: seen[key] for key in (
        "steps_scale", "include_perf", "jobs", "retries",
        "job_timeout", "verify", "flight_dir")} == dict(
        steps_scale=0.1, include_perf=False, jobs=2, retries=1,
        job_timeout=5.0, verify=True, flight_dir="dumps")


@pytest.mark.parametrize("variable,value,flags,message", [
    ("REPRO_JOBS", "", [], "REPRO_JOBS must be an integer"),
    ("REPRO_RETRIES", "-1", [], "retries must be >= 0"),
    ("REPRO_FAULT_SPEC", "gzip:bogus", [], "gzip:bogus"),
    (None, None, ["--jobs", "0"], "jobs must be >= 1"),
], ids=["empty-jobs", "negative-retries", "bad-fault-spec", "jobs-0"])
def test_malformed_knob_is_a_usage_error(monkeypatch, capsys, variable,
                                         value, flags, message):
    """A bad study knob exits 2 with the parser's usage line, before any
    study runs, on both the study and the ``--summary`` paths."""
    from repro.harness import cli

    def no_study(**kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_full_study", no_study)
    if variable is not None:
        monkeypatch.setenv(variable, value)
    for command in (["--stats", "--benchmarks", "gzip"],
                    ["--summary", "gzip"]):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--quick", "--no-cache"] + flags)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-study")
        assert message in err and "Traceback" not in err


def test_summary_unknown_benchmark(capsys):
    assert main(["--summary", "doom", "--no-cache"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_parser_observability_flags():
    args = build_parser().parse_args(
        ["--stats", "--metrics-out", "m.json", "--trace-out", "t.json",
         "--log-level", "debug", "--log-json"])
    assert args.stats
    assert args.metrics_out == "m.json"
    assert args.trace_out == "t.json"
    assert args.log_level == "debug"
    assert args.log_json


def test_stats_mode_prints_manifest(capsys):
    code = main(["--stats", "--benchmarks", "swim", "--quick",
                 "--no-perf", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "run manifest" in out
    assert "fingerprint" in out
    assert "swim" in out
    assert "Figure" not in out  # figures skipped in stats mode


def test_metrics_and_trace_export(tmp_path, capsys):
    import json
    metrics_path = str(tmp_path / "m.json")
    trace_path = str(tmp_path / "t.json")
    code = main(["--figures", "13", "--benchmarks", "swim", "--quick",
                 "--no-perf", "--no-cache", "--metrics-out", metrics_path,
                 "--trace-out", trace_path])
    assert code == 0
    with open(metrics_path) as f:
        metrics = json.load(f)
    assert metrics["counters"]["replay.blocks_translated"] > 0
    assert metrics["counters"]["replay.runs"] > 0
    with open(trace_path) as f:
        trace = json.load(f)
    names = {event["name"] for event in trace["traceEvents"]}
    assert "full_study" in names
    assert "replay.multi_run" in names  # the multi-threshold sweep


def test_csv_export(tmp_path, capsys):
    out_dir = str(tmp_path / "csv")
    code = main(["--figures", "13", "--benchmarks", "swim", "--quick",
                 "--no-perf", "--no-cache", "--csv", out_dir])
    assert code == 0
    import os
    assert os.path.exists(os.path.join(out_dir, "fig13.csv"))
    with open(os.path.join(out_dir, "fig13.csv")) as f:
        assert f.readline().startswith("threshold,")
