"""Shared fixtures for the test suite.

Seeds and oracle tolerances come from :mod:`repro.testing`, which
``benchmarks/conftest.py`` imports too — keeping the two suites' tolerances
in sync by construction.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.core import kernels
from repro.core.juror import Juror
from repro.testing import DEFAULT_SEED, ORACLE_ATOL, PMF_ATOL


@pytest.fixture(autouse=True)
def _isolated_data_dir(monkeypatch):
    """Give each test its own catalog directory under ``REPRO_DATA_DIR``.

    CI runs the whole suite with ``REPRO_DATA_DIR`` set so every
    ``JuryService()`` (and surface on top of it) transparently exercises the
    durable catalog.  Pool names are only unique per test, so sharing one
    directory across the run would collide; this fixture points each test at
    a fresh subdirectory of the configured root.  A no-op when the variable
    is unset — the default in-memory path stays the default.
    """
    root = os.environ.get("REPRO_DATA_DIR", "").strip()
    if not root:
        yield
        return
    os.makedirs(root, exist_ok=True)
    monkeypatch.setenv(
        "REPRO_DATA_DIR", tempfile.mkdtemp(prefix="case-", dir=root)
    )
    yield


@pytest.fixture
def native():
    """The activated native kernel backend; skips where it is unavailable."""
    backend = kernels.native_backend()
    if backend is None:
        reason = kernels.stats_snapshot()["unavailable"]["native"]
        pytest.skip(f"native backend unavailable: {reason}")
    return backend


@pytest.fixture
def native_unavailable(monkeypatch):
    """The kernel registry as on a host where native failed to activate."""
    monkeypatch.setattr(kernels, "_native_backend", None)
    monkeypatch.setattr(kernels, "_native_reason", "RuntimeError: disabled by test")


@pytest.fixture
def table2_jurors() -> list[Juror]:
    """The seven candidates A-G from the paper's Figure 1 / Table 2.

    Error rates: A=0.1, B=0.2, C=0.2, D=0.3, E=0.3, F=0.4, G=0.4.
    Requirements (from the motivation example): D=$0.4, E=$0.65, and we give
    the remaining users the modest prices that make {A,B,C,F,G} affordable
    under the $1 budget while {A,B,C,D,E} is not, as in the paper's story.
    """
    return [
        Juror(0.1, 0.20, juror_id="A"),
        Juror(0.2, 0.20, juror_id="B"),
        Juror(0.2, 0.20, juror_id="C"),
        Juror(0.3, 0.40, juror_id="D"),
        Juror(0.3, 0.65, juror_id="E"),
        Juror(0.4, 0.10, juror_id="F"),
        Juror(0.4, 0.10, juror_id="G"),
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(DEFAULT_SEED)


@pytest.fixture
def oracle_atol() -> float:
    """Tolerance for cross-backend (naive/dp/cba) oracle agreement."""
    return ORACLE_ATOL


@pytest.fixture
def pmf_atol() -> float:
    """Tolerance for pmf-vector comparisons across backends."""
    return PMF_ATOL
