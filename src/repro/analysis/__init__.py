"""Static analysis: dataflow framework + semantic verifier.

Two layers:

* **framework** — the classic analyses over VIR/CFGs that the verifier
  builds on: loop-nest forests and irreducibility
  (:mod:`repro.analysis.loops`) and reaching definitions
  (:mod:`repro.analysis.dataflow`);
* **verifier** — semantic lint of every artefact the study pipeline
  produces (:mod:`repro.analysis.verify`), plus differential
  verification of the optimisation passes
  (:mod:`repro.analysis.passcheck`) and the standalone
  ``python -m repro.analysis`` lint CLI (:mod:`repro.analysis.cli`).

See ``docs/analysis.md`` for the rule table and severity model.
"""

from .dataflow import (Definition, IterativeDataflow, ReachingDefinitions,
                       reaching_definitions)
from .loops import FunctionLoops, irreducible_edges, program_loop_forests
from .passcheck import (PassVerificationError, check_constprop, check_dce,
                        checked_pipeline)
from .verify import (Diagnostic, Severity, VerifyReport, verify_cfg,
                     verify_normalization, verify_program, verify_region,
                     verify_snapshot, verify_study, verify_translation_map)

__all__ = [
    "Definition", "Diagnostic", "FunctionLoops", "IterativeDataflow",
    "PassVerificationError", "ReachingDefinitions", "Severity",
    "VerifyReport", "check_constprop", "check_dce", "checked_pipeline",
    "irreducible_edges", "program_loop_forests", "reaching_definitions",
    "verify_cfg", "verify_normalization", "verify_program",
    "verify_region", "verify_snapshot", "verify_study",
    "verify_translation_map",
]
