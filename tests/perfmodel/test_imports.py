"""Importing the study machinery must not load the optimiser.

``repro.perfmodel.derive`` prices regions with real retranslation
(``repro.opt``), but only when asked; every study and CLI start imports
the perf model, so the optimiser is imported inside the functions that
use it.
"""

import os
import subprocess
import sys

import repro


def test_study_import_leaves_optimiser_unloaded():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys, repro.harness, repro.harness.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'repro.opt' or m.startswith('repro.opt.')))")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"

