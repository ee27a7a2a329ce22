"""Run metadata: code version, toolchain, machine, and computed trace sizes.

Machine facts are read from /proc and /sys, read-only.  Trace sizes are
computed from each workload's configuration, not measured.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
from abprobe.fbm import _next_fast_len

from bootstrap import ROOT


def git_commit(root: Path = ROOT) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def numpy_config() -> dict:
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return {}
    deps = cfg.get("Build Dependencies", {})
    simd = cfg.get("SIMD Extensions", {})
    return {
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "simd_baseline": simd.get("baseline"),
        "simd_found": simd.get("found"),
    }


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def cpu_caches() -> dict[str, int]:
    """Per-level cache size in bytes of cpu0 (data and unified caches)."""
    sizes: dict[str, int] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") == "Instruction":
            continue
        text = _read(index / "size")
        if not text:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1], 1)
        sizes[f"L{_read(index / 'level')}"] = int(text.rstrip("KMG")) * scale
    return sizes


def cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def trace_sizes(workload, l3_bytes: int) -> dict:
    cfg = workload.run_config(0).finalize()
    samples = cfg.fbm_params().n_samples
    fft_len = _next_fast_len(2 * (samples - 1))  # before any fallback to 2n
    spectrum = 16 * (fft_len // 2 + 1)
    return {
        "note": "computed from the configuration, not measured",
        "trace_samples": samples,
        "bytes_per_trace_array": 8 * samples,
        "fft_len": fft_len,
        "complex_spectrum_bytes": spectrum,
        "l3_bytes": l3_bytes,
        "spectrum_over_l3": spectrum / l3_bytes if l3_bytes else None,
    }


def metadata(workloads) -> dict:
    caches = cpu_caches()
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": numpy_config(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches_bytes": caches,
        "trace_sizes": {wl.name: trace_sizes(wl, caches.get("L3", 0)) for wl in workloads},
    }
