"""Command-line entry point: regenerate the paper's figures.

Examples::

    python -m repro.harness.cli                 # all figures, full suite
    python -m repro.harness.cli --figures 8 17  # just Figures 8 and 17
    python -m repro.harness.cli --quick         # 10% run lengths (smoke)
    python -m repro.harness.cli --benchmarks gzip mcf --no-perf
    python -m repro.harness.cli --quick --stats # run manifest, no figures
    python -m repro.harness.cli --metrics-out m.json --trace-out t.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..obs import configure as configure_logging
from ..obs import render_manifest, write_metrics, write_trace
from ..workloads.spec import SIM_THRESHOLDS, benchmark_names
from .figures import FIGURES
from .paper_example import compute_example
from .runner import DEFAULT_CACHE_DIR, run_full_study
from .tables import render

#: Exit code when the study completed but quarantined benchmarks —
#: distinct from success (0) and usage errors (2) so callers can tell a
#: degraded-but-useful run from a broken invocation.
EXIT_QUARANTINE = 3

#: Exit code when ``--verify`` found error-severity semantic violations.
#: Quarantine (3) takes precedence: a quarantined run is degraded in a
#: way that makes its verification coverage incomplete anyway.
EXIT_VERIFY = 4


def _report_quarantine(results) -> int:
    """Print quarantined benchmarks to stderr; the distinct exit code."""
    failed = (results.manifest or {}).get("failed_benchmarks") or {}
    if not failed:
        return 0
    for name, info in sorted(failed.items()):
        print(f"quarantined: {name} ({info['reason']} after "
              f"{info['attempts']} attempts): {info['error']}",
              file=sys.stderr)
        if info.get("flight_record"):
            print(f"  flight record: {info['flight_record']}",
                  file=sys.stderr)
    print(f"{len(failed)} benchmark(s) quarantined; figures cover the "
          f"remaining benchmarks only", file=sys.stderr)
    return EXIT_QUARANTINE


def _report_verify(results) -> int:
    """Print verifier findings to stderr; EXIT_VERIFY on any error.

    Findings are rendered by :meth:`repro.analysis.Diagnostic.render`,
    which leads with the severity — that prefix is what separates a
    failing run (errors) from a merely noisy one (warnings).
    """
    errors = 0
    warnings = 0
    for name in sorted(results.benchmarks):
        for finding in results.benchmarks[name].verify_findings:
            print(f"verify: {name}: {finding}", file=sys.stderr)
            if finding.startswith("error"):
                errors += 1
            else:
                warnings += 1
    if errors:
        print(f"semantic verification failed: {errors} error(s), "
              f"{warnings} warning(s)", file=sys.stderr)
        return EXIT_VERIFY
    if warnings:
        print(f"semantic verification passed with {warnings} warning(s)",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduce the figures of 'The Accuracy of Initial "
                    "Prediction in Two-Phase Dynamic Binary Translators' "
                    "(CGO 2004) on the simulated DBT.")
    parser.add_argument("--figures", type=int, nargs="*", default=None,
                        metavar="N",
                        help="figure numbers to print (default: all; "
                             "5 prints the worked example)")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="benchmark subset (default: all 26)")
    parser.add_argument("--quick", action="store_true",
                        help="run at 10%% of the run lengths (smoke test)")
    parser.add_argument("--no-perf", action="store_true",
                        help="skip the Figure 17 cost model")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the results cache")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the per-benchmark "
                             "fan-out (default: $REPRO_JOBS, else all "
                             "CPUs; 1 = serial; results are identical "
                             "for any N)")
    parser.add_argument("--pool", default=None,
                        choices=["inprocess", "process", "batched"],
                        help="pool backend for the fan-out (default: "
                             "$REPRO_POOL, else picked from --jobs/"
                             "--batch; results are identical for every "
                             "backend)")
    parser.add_argument("--batch", type=int, default=None, metavar="N",
                        help="benchmarks per dispatch unit on the "
                             "batched backend (default: $REPRO_BATCH, "
                             "else sized automatically; needs "
                             "--pool batched)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="per-benchmark retry budget for crashed or "
                             "failing jobs (default: $REPRO_RETRIES, "
                             "else 2; 0 disables retries)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and quarantine any benchmark still "
                             "running after this long (default: "
                             "$REPRO_JOB_TIMEOUT, else unlimited; "
                             "needs --jobs >= 2)")
    parser.add_argument("--verify", action="store_true", default=None,
                        help="run the semantic verifier over every "
                             "study (default: $REPRO_VERIFY, else off); "
                             "error-severity findings exit with code 4")
    parser.add_argument("--profile", action="store_true", default=None,
                        help="arm the fine-grained profiling spans in "
                             "every worker (default: $REPRO_PROFILE, "
                             "else off; figures are byte-identical "
                             "either way — this only sharpens the phase "
                             "attribution in --stats and the trace)")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="write flight-recorder dumps for failed "
                             "benchmarks into DIR (default: "
                             "$REPRO_FLIGHT_DIR, else <cache>/flight)")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-benchmark progress")
    parser.add_argument("--summary", metavar="BENCH", default=None,
                        help="print one benchmark's full study card "
                             "and exit")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each printed figure as CSV "
                             "into DIR")
    parser.add_argument("--stats", action="store_true",
                        help="print the run manifest (fingerprint, "
                             "timings, metrics); figures are skipped "
                             "unless --figures is given explicitly")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics registry snapshot as "
                             "JSON to PATH")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the span timeline as Chrome trace "
                             "JSON to PATH (open in chrome://tracing "
                             "or ui.perfetto.dev)")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="structured-log level (default: warning; "
                             "--verbose implies info)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured logs as JSON lines")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the study, print the requested output, export observability."""
    args = build_parser().parse_args(argv)
    if args.log_level or args.log_json:
        configure_logging(level=args.log_level or "info",
                          json_mode=args.log_json)
    code = _dispatch(args)
    if args.metrics_out:
        write_metrics(args.metrics_out)
    if args.trace_out:
        write_trace(args.trace_out)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.summary is not None:
        return print_summary(args.summary,
                             steps_scale=0.1 if args.quick else 1.0,
                             include_perf=not args.no_perf,
                             use_cache=not args.no_cache,
                             jobs=args.jobs, retries=args.retries,
                             job_timeout=args.job_timeout,
                             verify=args.verify)
    if args.figures:
        wanted = args.figures
    else:
        wanted = [] if args.stats else sorted(FIGURES) + [5]

    if args.benchmarks:
        unknown = set(args.benchmarks) - set(benchmark_names())
        if unknown:
            print(f"unknown benchmarks: {sorted(unknown)}", file=sys.stderr)
            return 2

    if 5 in wanted:
        example = compute_example()
        print("Figure 5 (worked example, paper values 0.21 / 0 / 0.27):")
        print(f"  Sd.BP = {example.sd_bp:.2f}")
        print(f"  Sd.CP = {example.sd_cp:.2f}")
        print(f"  Sd.LP = {example.sd_lp:.2f}")
        print()
        wanted = [n for n in wanted if n != 5]
    if not wanted and not args.stats:
        return 0

    cache_dir = None if args.no_cache else DEFAULT_CACHE_DIR
    results = run_full_study(
        names=args.benchmarks,
        thresholds=SIM_THRESHOLDS,
        steps_scale=0.1 if args.quick else 1.0,
        include_perf=not args.no_perf,
        cache_dir=cache_dir,
        verbose=args.verbose,
        jobs=args.jobs,
        retries=args.retries,
        job_timeout=args.job_timeout,
        verify=args.verify,
        profile=args.profile,
        flight_dir=args.flight_dir,
        pool=args.pool,
        batch=args.batch)

    for number in wanted:
        builder = FIGURES.get(number)
        if builder is None:
            print(f"no such figure: {number}", file=sys.stderr)
            return 2
        table = builder(results)
        print(render(table))
        print()
        if args.csv:
            import os

            from .tables import to_csv
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"fig{number:02d}.csv")
            with open(path, "w") as f:
                f.write(to_csv(table))
    if args.stats:
        print(render_manifest(results.manifest))
    return _report_quarantine(results) or _report_verify(results)


def print_summary(name: str, steps_scale: float = 1.0,
                  include_perf: bool = True, use_cache: bool = True,
                  jobs: Optional[int] = None,
                  retries: Optional[int] = None,
                  job_timeout: Optional[float] = None,
                  verify: Optional[bool] = None) -> int:
    """Print one benchmark's complete study card."""
    from ..workloads.spec import nominal_label
    from .tables import Table

    if name not in benchmark_names():
        print(f"unknown benchmark {name!r}", file=sys.stderr)
        return 2
    results = run_full_study(
        names=[name], thresholds=SIM_THRESHOLDS, steps_scale=steps_scale,
        include_perf=include_perf,
        cache_dir=DEFAULT_CACHE_DIR if use_cache else None,
        jobs=jobs, retries=retries, job_timeout=job_timeout,
        verify=verify)
    if name not in results.benchmarks:
        return _report_quarantine(results)
    result = results.benchmarks[name]

    print(f"{name} ({result.suite.upper()}): training reference "
          f"Sd.BP={result.train_sd_bp:.3f} "
          f"mismatch={result.train_bp_mismatch:.3f}")
    if result.train_sd_cp is not None:
        print(f"  train-region references: Sd.CP={result.train_sd_cp:.3f}"
              + (f" Sd.LP={result.train_sd_lp:.3f}"
                 if result.train_sd_lp is not None else ""))
    columns = ["T", "Sd.BP", "mis", "Sd.CP", "Sd.LP", "lp-mis",
               "regions", "ops/train"]
    if include_perf:
        columns.append("perf")
    table = Table(title=f"study card: {name}", columns=columns)
    perf = result.perf_relative() if include_perf and result.perf else {}
    for t in result.thresholds:
        row = [nominal_label(t), result.sd_bp.get(t),
               result.bp_mismatch.get(t), result.sd_cp.get(t),
               result.sd_lp.get(t), result.lp_mismatch.get(t),
               result.num_regions.get(t),
               result.profiling_ops.get(t, 0) / max(result.train_ops, 1)]
        if include_perf:
            row.append(perf.get(t))
        table.add_row(*row)
    print(render(table))
    return _report_verify(results)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
