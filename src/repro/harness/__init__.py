"""Experiment harness: full-suite runs, figure regeneration, CLI."""

from .faults import FaultPlan, FaultSpecError, InjectedFault
from .figures import (FIGURES, fig08_sd_bp, fig09_sd_bp_int,
                      fig10_bp_mismatch, fig11_bp_mismatch_int,
                      fig12_bp_mismatch_fp, fig13_sd_cp, fig14_sd_lp,
                      fig15_lp_mismatch, fig16_lp_mismatch_int,
                      fig17_performance, fig18_overhead)
from .paper_example import (PaperExample, compute_example,
                            example_loopback_checks, figure5_pairs,
                            mcf_loop_regions)
from .pool import DispatchResult, JobFailure, RetryPolicy
from .results import (BenchmarkResult, PerfPoint, StudyResults,
                      average_scalar, average_series)
from .runner import (DEFAULT_CACHE_DIR, run_full_study, study_benchmark)
from .studyspec import StudySpec, resolve_spec
from .tables import Table, render, render_all, to_csv

__all__ = [
    "BenchmarkResult", "DEFAULT_CACHE_DIR", "DispatchResult", "FIGURES",
    "FaultPlan", "FaultSpecError", "InjectedFault", "JobFailure",
    "PaperExample", "PerfPoint", "RetryPolicy", "StudyResults", "StudySpec",
    "Table", "average_scalar", "average_series", "compute_example",
    "example_loopback_checks", "fig08_sd_bp", "fig09_sd_bp_int",
    "fig10_bp_mismatch", "fig11_bp_mismatch_int", "fig12_bp_mismatch_fp",
    "fig13_sd_cp", "fig14_sd_lp", "fig15_lp_mismatch",
    "fig16_lp_mismatch_int", "fig17_performance", "fig18_overhead",
    "figure5_pairs", "mcf_loop_regions", "render", "render_all",
    "resolve_spec", "run_full_study", "study_benchmark", "to_csv",
]
