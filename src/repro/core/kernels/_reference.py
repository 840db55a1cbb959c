"""Reference NumPy implementations of the kernels with a native binding.

These are the *exact* inner loops that historically lived inline in
:mod:`repro.core.jer`, hoisted behind the backend interface so the
compiled backend has one canonical definition to be verified against:
the prefix sweep (dispatched as ``sweep``) and the multi-factor fold
(:func:`repro.core.jer.convolve_pmf`'s loop, which the self-check holds
the native ``convolve`` binding to).  The PayALG scan and the branch and
bound are referenced by their Python loops in :mod:`repro.core.selection`.
Every compiled backend is held to **bit-identity** with the functions in
this module by the activation self-check
(:mod:`repro.core.kernels._verify`); the arithmetic here must therefore
never change without re-deriving the equivalence argument in
``core/jer.py``.

All functions receive validated, float64 inputs — validation (shape, open
interval bounds, odd jury sizes) stays with the public wrappers in
:mod:`repro.core.jer`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumpyBackend"]


def _sweep(eps: np.ndarray) -> np.ndarray:
    """Odd-prefix JER matrix of a ``(B, N)`` error-rate matrix.

    Returns the ``(B, (N + 1) // 2)`` JER matrix; the caller builds the
    matching ``ns`` vector.  This is the historical inner loop of
    :func:`repro.core.jer.batch_prefix_jer_sweep`, verbatim.
    """
    n_batch, n_total = eps.shape
    jers = np.empty((n_batch, (n_total + 1) // 2), dtype=np.float64)
    pmf = np.zeros((n_batch, n_total + 1), dtype=np.float64)
    pmf[:, 0] = 1.0
    for idx in range(n_total):
        e = eps[:, idx : idx + 1]
        upper = idx + 1
        # Same multiply-add as the scalar sweeper, vectorized across rows;
        # entry ``upper`` is still 0 so it becomes ``pmf[:, idx] * e`` exactly.
        pmf[:, 1 : upper + 1] = pmf[:, 1 : upper + 1] * (1.0 - e) + pmf[:, 0:upper] * e
        pmf[:, 0:1] = pmf[:, 0:1] * (1.0 - e)
        n = idx + 1
        if n % 2 == 1:
            threshold = (n + 1) // 2
            tail = np.sum(pmf[:, threshold : n + 1], axis=1)
            jers[:, idx // 2] = np.clip(tail, 0.0, 1.0)
    return jers


def _convolve(base: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Fold ``k`` factors into a pmf — the historical
    :func:`repro.core.jer.convolve_pmf` loop, verbatim."""
    out = np.zeros(base.size + eps.size, dtype=np.float64)
    out[: base.size] = base
    top = base.size - 1
    for e in eps:
        upper = top + 1
        out[1 : upper + 1] = out[1 : upper + 1] * (1.0 - e) + out[0:upper] * e
        out[0] *= 1.0 - e
        top += 1
    return out


class NumpyBackend:
    """The always-available reference backend.

    ``compiled`` is False: callers that dispatch a *whole scalar loop*
    (the PayALG pairing scan, the branch and bound) run their Python
    loops when this backend is chosen, instead of calling ``pay_scan`` or
    ``bb_search`` (which the reference backend does not provide — those
    loops *are* the reference).
    """

    name = "numpy"
    compiled = False

    @staticmethod
    def sweep(eps: np.ndarray) -> np.ndarray:
        return _sweep(eps)

    @staticmethod
    def convolve(base: np.ndarray, eps: np.ndarray) -> np.ndarray:
        return _convolve(base, eps)

    @staticmethod
    def pairwise(values: np.ndarray) -> float:
        """Tail-summation semantics of this backend (``np.sum``)."""
        return float(np.sum(values))
