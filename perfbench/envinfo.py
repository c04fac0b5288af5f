"""The run environment recorded next to every result.

The single-worker workloads run OpenBLAS on one thread; the pool
workload inherits the caller's BLAS and OpenMP thread settings, so that
thread oversubscription in the process pool shows in its numbers
instead of being masked. The settings in effect are recorded.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

THREAD_VAR_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "GOTO_", "BLIS_")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    # stop git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_config() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def run_environment(root: Path) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith(THREAD_VAR_PREFIXES)
        },
    }
