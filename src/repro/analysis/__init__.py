"""Static analysis: CFG/VIR analyses + semantic verifier.

Two layers:

* **analyses** — what the verifier builds on: loop-nest forests and
  irreducibility (:mod:`repro.analysis.loops`) and the
  possibly-undefined-read lint (:mod:`repro.analysis.dataflow`);
* **verifier** — semantic lint of every artefact the study pipeline
  produces (:mod:`repro.analysis.verify`) and the standalone
  ``python -m repro.analysis`` lint CLI (:mod:`repro.analysis.cli`).

See ``docs/analysis.md`` for the rule table and severity model.
"""

from .dataflow import possibly_undefined_reads
from .loops import FunctionLoops, irreducible_edges, program_loop_forests
from .verify import (Diagnostic, Severity, VerifyReport, verify_cfg,
                     verify_normalization, verify_program, verify_region,
                     verify_snapshot, verify_study, verify_translation_map)

__all__ = [
    "Diagnostic", "FunctionLoops", "Severity", "VerifyReport",
    "irreducible_edges", "possibly_undefined_reads", "program_loop_forests",
    "verify_cfg", "verify_normalization", "verify_program",
    "verify_region", "verify_snapshot", "verify_study",
    "verify_translation_map",
]
