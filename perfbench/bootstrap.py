"""Locate the checkout, pin one worker thread, and import abprobe from src/.

Standard library only: it runs before numpy is imported, so that the time
of ``import abprobe`` includes numpy's own import.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Make the checkout's src/ the only source of abprobe; exit 2 without it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "abprobe" / "__init__.py").is_file():
        print(f"perfbench: no abprobe package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def import_abprobe() -> tuple[object, float]:
    """Import the package and its CLI; return (module, seconds taken)."""
    t0 = perf_counter()
    abprobe = importlib.import_module("abprobe")
    importlib.import_module("abprobe.cli")
    elapsed = perf_counter() - t0
    origin = Path(abprobe.__file__).resolve()
    if SRC not in origin.parents:
        print(f"perfbench: imported abprobe from {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return abprobe, elapsed
