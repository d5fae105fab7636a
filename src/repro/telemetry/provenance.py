"""Provenance stamping for benchmark artifacts.

Every record the pinned benchmark (``python -m bench``) prints embeds
the output of :func:`provenance` so the bench trajectory stays
comparable across PRs: the same numbers mean nothing without knowing
which commit, interpreter and numpy produced them.
"""

from __future__ import annotations

import datetime
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def git_sha(repo_root: "str | Path | None" = None) -> str | None:
    """Current commit SHA, or ``None`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def provenance(
    repo_root: "str | Path | None" = None, workers: int | None = None
) -> dict:
    """Environment fingerprint to embed in benchmark JSON payloads.

    ``cpu_count`` and the multiprocessing start method make parallel
    throughput numbers comparable across hosts — a 4-worker figure from
    a 1-core container and one from a 16-core workstation are different
    measurements.  ``workers`` records how many worker processes the
    benchmark actually ran (``None`` for single-process benchmarks).
    """
    info = {
        "git_sha": git_sha(repo_root),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
    }
    if workers is not None:
        info["workers"] = int(workers)
    return info
