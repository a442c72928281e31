"""Host and provenance facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# Variables through which a caller could pin BLAS or OpenMP threads. The
# benchmark records any it inherits and removes them from the workload
# processes, so the program's own thread policy is what gets measured.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OMP_THREAD_LIMIT", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def worker_env() -> tuple[dict, dict]:
    """(environment for workload processes, inherited thread variables)."""
    env = dict(os.environ)
    inherited = {k: env.pop(k) for k in THREAD_VARS if k in env}
    return env, inherited


def blas_info() -> dict:
    """BLAS library of the running numpy and its effective thread count."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                info["blas_library"] = Path(lib).name
                return info
    return info


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/**/*.py`` (paths and bytes) of the checkout."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_info(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit(root),
        "src_sha256": source_digest(root),
    }
