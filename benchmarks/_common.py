"""Shared plumbing for the runnable ``bench_*.py`` scripts.

Every benchmark that commits a ``BENCH_*.json`` artifact writes it through
:func:`write_artifact`, which stamps one uniform ``host`` metadata block
(cpu count, platform, interpreter and numpy versions, the active
kernel backend) plus a UTC timestamp — so artifacts recorded on
different machines or PRs stay comparable, and a perf number can always be
traced back to the backend that produced it.

Bit-identity verification failures go through :func:`verification_failure`,
which prints a ``FAILURE:`` line to stderr and hands back the non-zero exit
code every bench must propagate: a benchmark whose fast path diverges from
its oracle baseline has no perf number worth recording.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core import kernels  # noqa: E402

# Activate (compile + bitwise-verify + warm) the native kernel backend
# before any bench starts timing — the same up-front activation the engines
# perform at construction, so first-dispatch compile/self-check cost never
# lands inside a timed region.
kernels.ensure_ready()

__all__ = [
    "host_metadata",
    "write_artifact",
    "verification_failure",
]


def _git_commit() -> str | None:
    """The repo HEAD this artifact was produced from (None outside git).

    Recorded so a committed perf number is attributable to the exact tree
    that produced it — "which commit regressed this" must not depend on
    the artifact's own git blame.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=str(Path(__file__).resolve().parent),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def host_metadata() -> dict:
    """The uniform ``host`` block stamped into every ``BENCH_*.json``."""
    return {
        "git_commit": _git_commit(),
        "cpus": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.ensure_ready(),
        "kernel_backends_available": kernels.stats_snapshot()["available"],
    }


def write_artifact(out: str | Path, artifact: dict) -> Path:
    """Write ``artifact`` as indented JSON with host metadata + timestamp."""
    payload = dict(artifact)
    payload["host"] = host_metadata()
    payload.setdefault(
        "timestamp", time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"  artifact: {path}")
    return path


def verification_failure(message: str) -> int:
    """Report a bit-identity failure; returns the exit code to propagate."""
    print(f"FAILURE: {message}", file=sys.stderr)
    return 1
