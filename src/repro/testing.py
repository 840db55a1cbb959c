"""Shared constants for the test and benchmark suites.

Both ``tests/conftest.py`` and ``benchmarks/conftest.py`` import their seeds
and tolerances from here so that the oracle tolerances used to cross-check
the JER/pmf backends can never drift apart between the two suites.

The constants are intentionally small in number; add a new one only when a
value genuinely needs to be shared across suites.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_SEED",
    "ORACLE_ATOL",
    "PMF_ATOL",
    "DECONV_ATOL",
    "KERNEL_EQUIVALENCE_ULPS",
    "BENCH_SEED",
]

#: Deterministic RNG seed for reproducible tests (VLDB 2012 started Aug 27).
DEFAULT_SEED = 20120827

#: Absolute tolerance when asserting ``jer_naive == jer_dp == jer_cba`` and
#: other exact-backend agreement (the backends are exact up to round-off).
ORACLE_ATOL = 1e-12

#: Absolute tolerance for pmf-vector comparisons, slightly looser because FFT
#: convolution accumulates more round-off than the sequential DP.
PMF_ATOL = 1e-10

#: Absolute tolerance for pmfs maintained through convolve/deconvolve delta
#: sequences (IncrementalJury, the core/jer batch delta kernels) when
#: compared against a from-scratch rebuild.  Deconvolution near eps = 0.5
#: amplifies pre-existing round-off by up to ~2n per removal, so this bound
#: only holds for removal chains kept short — IncrementalJury enforces that
#: by rebuilding from its member list every REBUILD_AFTER_REMOVALS removals,
#: which keeps adversarial chains below ~1e-12 with a wide safety margin.
DECONV_ATOL = 1e-8

#: Permitted ULP divergence between kernel backends (numpy vs native):
#: **zero**.  The native kernels replicate NumPy's pairwise
#: summation and ufunc evaluation order exactly, and a backend that fails
#: the bitwise activation self-check (:mod:`repro.core.kernels._verify`) is
#: deactivated rather than tolerated — so cross-backend tests assert
#: bit-identity, not closeness.
KERNEL_EQUIVALENCE_ULPS = 0

#: Seed for synthetic benchmark workloads, offset from the test seed so that
#: benchmarks never accidentally share fixtures with the unit tests.
BENCH_SEED = DEFAULT_SEED + 1
