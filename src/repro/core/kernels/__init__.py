"""Kernel backends for the engine's three hot loops.

The paper's algorithms reach a hot loop in three places, and each is one
registry kernel:

``sweep``
    ``batch_prefix_jer_sweep``, the AltrALG odd-prefix sweep.
``pay_scan``
    the whole PayALG paper pairing scan.
``bb_search``
    the whole depth-first search of ``branch_and_bound_optimal``, the
    exact PayM solver behind the OPT baseline.

Each dispatches through this registry to one of two backends:

``numpy``
    The reference implementations (:mod:`._reference`, and the Python
    loops of the PayALG scan and the branch and bound).  Always available.
``native``
    C kernels compiled with the system compiler and bound via ctypes
    (:mod:`._native`).  Needs a C compiler on PATH — no Python build
    dependencies.

One rule picks the backend: native wherever it activated, the reference
otherwise.  Native is activated once per process: build (or reuse the
cached library), then the bitwise self-check of :mod:`._verify`, which
calls every entry point and must reproduce the reference on a battery
crossing every algorithmic boundary, so every execution path stays
bit-identical to the scalar oracles — the repo's standing invariant
(tolerance pinned as ``KERNEL_EQUIVALENCE_ULPS`` in :mod:`repro.testing`).  If any step
fails, every call runs on the reference and the reason is reported under
``stats_snapshot()["unavailable"]["native"]`` (and from there in
``JuryService.stats()`` and ``GET /v1/stats``).

The native ``convolve`` binding is dispatched by nothing: ``k_convolve``
is a C helper of ``k_bb_search``'s bound, and the binding is the
self-check's hook for testing it on its own.

:func:`float_reprs` is not a kernel either: it prints an answer's numbers
for the wire encoder, natively where native activated (``k_repr``, held to
``float.__repr__`` by the same self-check) and with ``float.__repr__``
otherwise, and it counts no dispatch.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.kernels._reference import NumpyBackend

__all__ = [
    "KERNEL_NAMES",
    "backend_for",
    "dispatch_counts",
    "ensure_ready",
    "float_reprs",
    "lazy_activations",
    "native_backend",
    "reset_dispatch_counters",
    "stats_snapshot",
]

#: Kernels that dispatch through the registry.  ``sweep`` is
#: ``batch_prefix_jer_sweep``, ``pay_scan`` is the whole PayALG paper
#: pairing scan, and ``bb_search`` is the whole depth-first search of
#: ``branch_and_bound_optimal``.
KERNEL_NAMES = ("sweep", "pay_scan", "bb_search")

_UNPROBED = object()

_lock = threading.RLock()
_numpy_backend = NumpyBackend()
_native_backend: object = _UNPROBED  # the verified backend, or None
_native_reason: str | None = None  # why native is unavailable
_activating = False  # re-entrancy guard while the self-check runs
_dispatch_counts: dict[tuple[str, str], int] = {}
_lazy_activations = 0


def _activate(*, lazy: bool):
    """Build and bitwise-verify the native backend, once.

    Returns the backend, or None when any step failed (the exception is
    kept as the unavailability reason) or while activation is running.
    """
    global _native_backend, _native_reason, _activating, _lazy_activations
    if _native_backend is not _UNPROBED:
        return _native_backend
    with _lock:
        if _native_backend is not _UNPROBED:
            return _native_backend
        if _activating:
            # Re-entrant dispatch from the self-check's reference runs
            # would let the backend under test compute its own
            # "reference"; it degrades to NumPy instead.  No reference
            # path dispatches (a fresh activation leaves the counters
            # empty, which the tests pin).
            return None
        _activating = True
        try:
            from repro.core.kernels._native import load_native_backend
            from repro.core.kernels._verify import verify_backend

            backend = load_native_backend()
            verify_backend(backend)
        except Exception as exc:  # noqa: BLE001 - any failure means "unavailable"
            _native_backend = None
            _native_reason = f"{type(exc).__name__}: {exc}"
        else:
            _native_backend = backend
            if lazy:
                # A compile happened inside a dispatch, not at startup —
                # the cold-start test asserts this stays zero when
                # services call ensure_ready() up front.
                _lazy_activations += 1
        finally:
            _activating = False
        return _native_backend


def backend_for(kernel: str):
    """Resolve the backend a kernel call dispatches to, counting it:
    native wherever it activated, the reference otherwise."""
    backend = _activate(lazy=True) or _numpy_backend
    with _lock:
        key = (kernel, backend.name)
        _dispatch_counts[key] = _dispatch_counts.get(key, 0) + 1
    return backend


def float_reprs(values) -> list[str]:
    """``float.__repr__`` of each value, as ``json.dumps`` writes a finite float.

    One native call prints them all where native is active; otherwise each
    goes through ``float.__repr__``.  Either way the text is the same.
    """
    backend = native_backend()
    if backend is None:
        return list(map(float.__repr__, np.asarray(values, dtype=np.float64).tolist()))
    return backend.float_reprs(values)


def native_backend():
    """The verified native backend, or None when it is unavailable.

    The first call activates it; see :func:`ensure_ready`.
    """
    return _activate(lazy=False)


def ensure_ready() -> str:
    """Activate the native backend eagerly (service startup).

    Returns the name of the backend every kernel call will dispatch to, so
    callers (``EngineStats``, benchmarks) can record the active backend.
    Calling this before serving queries is what keeps cc compile time
    out of per-query timings — the cold-start guarantee.
    """
    backend = native_backend()
    return backend.name if backend is not None else "numpy"


def lazy_activations() -> int:
    """How many native activations happened inside a dispatch (i.e. NOT
    via :func:`ensure_ready` at startup).  Zero on every well-behaved
    service path."""
    return _lazy_activations


def reset_dispatch_counters() -> None:
    with _lock:
        _dispatch_counts.clear()


def dispatch_counts() -> dict[str, dict[str, int]]:
    """Per-kernel dispatch counters: ``{kernel: {backend: calls}}``."""
    with _lock:
        out: dict[str, dict[str, int]] = {}
        for (kernel, backend), count in sorted(_dispatch_counts.items()):
            out.setdefault(kernel, {})[backend] = count
        return out


def stats_snapshot() -> dict:
    """The observability payload surfaced by ``JuryService.stats()``,
    the serve ``stats`` verb, and ``GET /v1/stats``."""
    active = ensure_ready()
    return {
        "active": active,
        "available": sorted({"numpy", active}),
        "unavailable": {} if active == "native" else {"native": _native_reason},
        "dispatch": dispatch_counts(),
        "lazy_activations": lazy_activations(),
    }
