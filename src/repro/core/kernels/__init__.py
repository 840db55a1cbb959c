"""Kernel backends for the hot JER/PMF kernels.

The hottest kernels of the engine — the batch prefix-JER sweep, the
batch jury-JER scorer, the pmf extend/convolve family, the PayALG
pair-trial scan and the exact branch-and-bound search — dispatch through
this registry to one of two backends:

``numpy``
    The reference implementations (:mod:`._reference`): the exact NumPy
    loops the engine has always run.  Always available.
``native``
    C kernels compiled with the system compiler and bound via ctypes
    (:mod:`._native`).  Needs a C compiler on PATH — no Python build
    dependencies.

Native is activated once per process: build (or reuse the cached
library), warm-up, then the bitwise self-check of :mod:`._verify`, which
must reproduce the NumPy reference on a battery crossing every
algorithmic boundary, so every execution path stays bit-identical to the
scalar oracles — the repo's standing invariant (tolerance pinned as
``KERNEL_EQUIVALENCE_ULPS`` in :mod:`repro.testing`).  If any step fails,
every call runs on the reference and the reason is reported under
``stats_snapshot()["unavailable"]["native"]`` (and from there in
``JuryService.stats()`` and ``GET /v1/stats``).

Each call picks its backend from the input size it observes: native past
the kernel's measured crossover below, NumPy under it.  The crossovers
were measured on the build host like ``AUTO_CBA_THRESHOLD`` /
``FFT_CROSSOVER`` (see ``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

import threading

from repro.core.kernels._reference import NumpyBackend

__all__ = [
    "COMPILED_SWEEP_CROSSOVER",
    "COMPILED_PAY_CROSSOVER",
    "COMPILED_BLOCK_CROSSOVER",
    "KERNEL_NAMES",
    "backend_for",
    "dispatch_counts",
    "ensure_ready",
    "kernel_backend_for",
    "lazy_activations",
    "native_backend",
    "reset_dispatch_counters",
    "stats_snapshot",
]

#: Kernels that dispatch through the registry.  ``sweep`` is
#: ``batch_prefix_jer_sweep``, ``jury_jer`` is ``batch_jury_jer``,
#: ``extend_block``/``score_block`` are the ``extend_pmf_block`` family,
#: ``convolve`` is ``convolve_pmf``, ``pay_scan`` is the whole PayALG
#: paper pairing scan, and ``bb_search`` is the whole depth-first search
#: of ``branch_and_bound_optimal``.
KERNEL_NAMES = (
    "sweep", "jury_jer", "extend_block", "score_block", "convolve", "pay_scan",
    "bb_search",
)

# -- measured crossovers (build host: 1-CPU container, numpy 2.4.6) ----------
#
# Below these sizes the native call's fixed overhead (ctypes entry,
# argument marshalling) exceeds the win over the vectorized NumPy path;
# above them the native path wins and keeps widening (the NumPy sweep
# pays one Python-level loop iteration per juror, the native sweep does
# not).  Measured with best-of timing loops (same method as
# benchmarks/bench_kernels.py and the historical AUTO_CBA_THRESHOLD /
# FFT_CROSSOVER calibrations).

#: Pool size at which the native prefix sweep overtakes NumPy: always.
#: The NumPy sweep pays one Python-level fold iteration per juror, so the
#: native path already wins at 2 candidates (11us vs 18us) and never
#: falls behind — there is no size below which NumPy is preferable.
COMPILED_SWEEP_CROSSOVER = 0

#: Pool size at which the native PayALG pairing scan overtakes the
#: blocked NumPy scan.  Measured: NumPy edges ahead at 4 candidates
#: (57us vs 61us), native wins from 8 on (73us vs 176us) and widens to
#: ~10x at 1,000.
COMPILED_PAY_CROSSOVER = 8

#: Matrix *elements* (rows x width) at which the native block kernels
#: (jury_jer / extend_block / score_block / convolve) overtake NumPy's
#: 2-D vectorized forms, which amortise per-call overhead much better
#: than the Python-loop sweep does.  Measured on extend_pmf_block, the
#: tightest case: NumPy wins below ~1k elements (6.8us vs 8.6us at 40),
#: ties near 1,100 and loses from there (140us vs 17us at 16.6k).
#: batch_jury_jer crosses far earlier (its NumPy form loops per juror),
#: so this shared bound is conservative for it.
COMPILED_BLOCK_CROSSOVER = 1024

_UNPROBED = object()

_lock = threading.RLock()
_numpy_backend = NumpyBackend()
_native_backend: object = _UNPROBED  # the verified backend, or None
_native_reason: str | None = None  # why native is unavailable
_activating = False  # re-entrancy guard while the self-check runs
_dispatch_counts: dict[tuple[str, str], int] = {}
_lazy_activations = 0


def _activate(*, lazy: bool):
    """Build, warm and bitwise-verify the native backend, once.

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
            # Re-entrant dispatch: the verify battery runs reference
            # implementations that call the public kernel wrappers, which
            # would otherwise re-activate the backend mid-activation (and
            # let the backend under test compute its own "reference").
            # During activation every dispatch degrades to NumPy.
            return None
        _activating = True
        try:
            from repro.core.kernels._native import load_native_backend
            from repro.core.kernels._verify import verify_backend

            backend = load_native_backend()
            backend.warmup()
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


def _crossed(kernel: str, size: int) -> bool:
    if kernel == "bb_search":
        # The Python search pays ~40us per node (a NumPy extend_pmf, and a
        # validated convolve_pmf per bound check); one native call
        # replaces all of them, so no pool size favours the reference.
        return True
    if kernel == "sweep":
        return size >= COMPILED_SWEEP_CROSSOVER
    if kernel == "pay_scan":
        return size >= COMPILED_PAY_CROSSOVER
    return size >= COMPILED_BLOCK_CROSSOVER


def backend_for(kernel: str, size: int):
    """Resolve the backend a kernel call dispatches to, counting it.

    ``size`` is the kernel's cost driver: pool size for ``sweep``,
    ``pay_scan`` and ``bb_search``, matrix elements for the block kernels.
    Calls past the kernel's crossover run native when it is available; the
    rest run on the reference.
    """
    backend = (_activate(lazy=True) if _crossed(kernel, size) else None) or _numpy_backend
    with _lock:
        key = (kernel, backend.name)
        _dispatch_counts[key] = _dispatch_counts.get(key, 0) + 1
    return backend


def kernel_backend_for(kernel: str, size: int) -> str:
    """Predict (without counting) the backend :func:`backend_for` would
    choose — the cost model's planning view."""
    if not _crossed(kernel, size):
        return "numpy"
    backend = _activate(lazy=False)
    return backend.name if backend is not None else "numpy"


def native_backend():
    """The verified native backend, or None when it is unavailable.

    The first call activates it; see :func:`ensure_ready`.
    """
    return _activate(lazy=False)


def ensure_ready() -> str:
    """Activate the native backend eagerly (service startup).

    Returns the name of the backend large inputs will dispatch to, so
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
        "crossovers": {
            "sweep_pool_size": COMPILED_SWEEP_CROSSOVER,
            "pay_scan_pool_size": COMPILED_PAY_CROSSOVER,
            "block_elements": COMPILED_BLOCK_CROSSOVER,
        },
    }
