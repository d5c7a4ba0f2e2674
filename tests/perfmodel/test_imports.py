"""Importing the study machinery must not load the optimiser, the
instruction interpreter or the instruction-level IR.

``repro.perfmodel.derive`` prices regions with real retranslation
(``repro.opt``), but only when asked; every study and CLI start imports
the perf model, so the optimiser is imported inside the functions that
use it.  The walker speaks the interpreter's listener protocol only in
annotations, so a study never loads ``repro.interp`` either.  The CFG
and the perf model name VIR programs in annotations and import them only
where a program is read (``cfg_from_program``), so a study on synthetic
workloads never loads ``repro.ir``.  Side-exit pricing tests membership
with a binary search, because ``np.isin`` imports ``numpy.ma``.
"""

import os
import subprocess
import sys

import repro


def loaded_after_study_import(package, study=""):
    """The ``package`` modules a fresh ``import repro.harness`` loads,
    then running the ``study`` statement."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys, repro.harness, repro.harness.cli\n"
            f"{study}\n"
            f"print(sorted(m for m in sys.modules\n"
            f"             if m == {package!r} or "
            f"m.startswith({package + '.'!r})))")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_study_import_leaves_optimiser_unloaded():
    assert loaded_after_study_import("repro.opt") == "[]"


def test_study_import_leaves_interpreter_unloaded():
    assert loaded_after_study_import("repro.interp") == "[]"


def test_study_import_leaves_ir_unloaded():
    assert loaded_after_study_import("repro.ir") == "[]"


def test_priced_study_leaves_numpy_ma_unloaded():
    study = ("repro.harness.run_full_study(names=['gzip'], "
             "thresholds=[5, 50], steps_scale=0.02, include_perf=True, "
             "jobs=1, cache_dir=None)")
    assert loaded_after_study_import("numpy.ma", study) == "[]"
