"""Process set-up shared by the benchmark's entry points.

Thread pools are pinned to one thread before numpy is first imported, and the
program is imported from the checkout's own ``src/`` tree, never from an
installed copy, so that the code measured is the code in the checkout.
"""
from __future__ import annotations

import importlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(Exception):
    """The checkout does not hold a program the benchmark can run."""


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the thread variables were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import predfdr from the checkout; return (module, import seconds)."""
    init = SRC / "predfdr" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"program source not found: {init}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    module = importlib.import_module("predfdr")
    seconds = time.perf_counter() - t0
    if Path(module.__file__).resolve() != init.resolve():
        raise SetupError(f"predfdr imported from {module.__file__}, not from {SRC}")
    return module, seconds


_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import predfdr; print(time.perf_counter() - t0)"
)


def fresh_import_s(timeout_s: float = 60.0) -> float:
    """Seconds ``import predfdr`` takes in a fresh interpreter with the same environment."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(SRC)], capture_output=True,
                          text=True, timeout=timeout_s)
    if proc.returncode != 0:
        raise SetupError(f"import predfdr failed in a fresh interpreter: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def describe() -> dict:
    """The environment a run measured, recorded with every run."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
