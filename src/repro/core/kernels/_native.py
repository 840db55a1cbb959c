"""Native (cc-compiled, ctypes-loaded) kernel backend.

Builds a small shared library from the shipped C source
(``repro_kernels.c``, installed as package data next to this module) at
activation time using whatever system compiler is present
(``cc``/``gcc``/``clang``), caches the ``.so`` keyed by a hash of the
source + flags + compiler, and binds it via :mod:`ctypes` — stdlib only,
no build-time dependencies.  The cache directory (``REPRO_KERNEL_CACHE_DIR``,
default ``<tmp>/repro-kernels-<uid>``) is created 0o700 and only loaded
from while it stays private to the current user.

Bit-identity discipline
-----------------------
The repo's invariant is that every execution path is *bit-identical* to
the scalar oracles.  Two things make that achievable in C:

1. **Elementwise arithmetic order.**  Every recurrence is written as the
   same sequence of individually-rounded multiplies and adds the NumPy
   reference performs (``x*(1-e)`` rounded, ``y*e`` rounded, sum
   rounded).  Compiling with ``-ffp-contract=off`` (and never
   ``-ffast-math``) forbids FMA contraction and reassociation, so each
   C expression rounds exactly like the NumPy ufunc chain.  That holds
   at ``-O3`` and in every vector lane: the sweep's factor fold writes
   one buffer from another (so it vectorises), and on x86-64 glibc it is
   compiled as ``target_clones("avx512f", "avx2", "default")``, the
   loader picking the clone for the CPU.  Each lane rounds the same
   multiply, multiply and add, and nothing is reassociated, so every
   clone gives the scalar loop's bits (a clone built with contraction
   allowed fuses into FMA, and the self-check refuses it).

2. **Pairwise tail summation.**  ``np.sum`` is not sequential — it uses
   pairwise (cascade) summation with an 8-way unrolled base case.
   ``pairwise_sum`` below replicates NumPy's exact algorithm (block size
   128, unrolled partials combined ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
   recursive split at ``n//2`` rounded down to a multiple of 8), which
   was verified on this host to match ``np.sum`` bitwise across sizes
   crossing every recursion boundary.

Neither property is *assumed* to hold on a given host/compiler: the
activation self-check (:mod:`._verify`) compares every kernel bitwise
against the NumPy reference and refuses to activate the backend if any
bit differs, recording the reason.  A host where NumPy dispatches to a
different summation (or the compiler misbehaves) simply degrades to the
reference backend — correctness never rides on the optimisation.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["NativeBackend", "load_native_backend"]

#: The C source ships as package data next to this module, so installed
#: trees (pip/wheel installs, not just source checkouts) can build the
#: backend; the compile cache is keyed by a hash of its exact contents.
_C_SOURCE_PATH = Path(__file__).with_name("repro_kernels.c")


def _read_source() -> str:
    return _C_SOURCE_PATH.read_text(encoding="utf-8")

# No -ffast-math ever; -ffp-contract=off forbids FMA fusing multiply-adds
# so every C expression rounds exactly like the NumPy ufunc sequence.  No
# -march=native either: the fold's clones already use the CPU's vectors,
# and a library built for one CPU could be loaded from a cache on another.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

# Array arguments travel as bare addresses (``ndarray.ctypes.data``): a
# typed pointer object per array per call costs more than some whole
# kernel calls on tiny pools.  Each method makes every array C-contiguous
# with its C dtype (double or int64_t) before taking its address.
_PTR = ctypes.c_void_p


#: Rows of the printer's two power-of-five tables (``REPR_POW5_ROWS`` and
#: ``REPR_INV5_ROWS`` in the C source): every 5^i and 5^-q a finite
#: double's shortest digits can need.
_POW5_ROWS = 326
_INV5_ROWS = 291
#: Room ``k_repr`` may take per number: 24 characters and a separator.
_REPR_WIDTH = 25


def _repr_tables() -> bytes:
    """The printer's 128-bit powers of five, from exact integers.

    First, for each 5^i, its top 125 bits; then, for each 5^-q,
    ``floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1``: the two tables of Ryu
    (Adams, PLDI 2018), each row a (low, high) pair of native uint64 words.
    """
    low = (1 << 64) - 1
    rows = []
    for i in range(_POW5_ROWS):
        power = 5**i
        shift = power.bit_length() - 125
        rows.append(power >> shift if shift >= 0 else power << -shift)
    for q in range(_INV5_ROWS):
        power = 5**q
        rows.append((1 << (power.bit_length() - 1 + 125)) // power + 1)
    return array.array("Q", [w for row in rows for w in (row & low, row >> 64)]).tobytes()


def _find_compiler() -> str | None:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    """The cache directory, created 0o700, once it is safe to load from.

    The default path is predictable and a library's constructors run at
    ``dlopen`` — before the self-check could refuse it — so a directory
    that someone else could have written to is refused: a symlink, one
    owned by another user, or one that is group- or world-writable.
    """
    override = os.environ.get("REPRO_KERNEL_CACHE_DIR")
    if override:
        cache = Path(override)
    else:
        uid = getattr(os, "getuid", lambda: "na")()
        cache = Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = os.lstat(cache)
    if stat.S_ISLNK(info.st_mode):
        raise PermissionError(f"kernel cache {cache} is a symlink")
    if info.st_uid != os.geteuid():
        raise PermissionError(
            f"kernel cache {cache} is owned by uid {info.st_uid}, not {os.geteuid()}"
        )
    if info.st_mode & 0o022:
        raise PermissionError(
            f"kernel cache {cache} is group- or world-writable "
            f"(mode {stat.S_IMODE(info.st_mode):o})"
        )
    return cache


def _library_name(source: str, compiler: str) -> str:
    """Cache file name: keyed by the source, the flags and the compiler."""
    tag = hashlib.sha256(
        (source + "\x00" + " ".join(_CFLAGS) + "\x00" + compiler).encode()
    ).hexdigest()[:16]
    return f"repro_kernels_{tag}.so"


def _build_library(compiler: str) -> Path:
    """Compile the shipped source to a cached .so, atomically."""
    source = _read_source()
    cache = _cache_dir()
    lib_path = cache / _library_name(source, compiler)
    try:
        info = os.lstat(lib_path)
    except FileNotFoundError:
        pass
    else:
        if not stat.S_ISREG(info.st_mode) or info.st_uid != os.geteuid():
            raise PermissionError(
                f"kernel library {lib_path} is not a regular file owned by uid "
                f"{os.geteuid()}"
            )
        return lib_path
    # Every process compiles its own copy of the source: a shared source
    # path could be truncated by a concurrent cold start while this
    # compiler reads it.  Only the finished library is published.
    with tempfile.TemporaryDirectory(prefix=".build-", dir=cache) as scratch:
        src_path = Path(scratch) / "repro_kernels.c"
        src_path.write_text(source, encoding="utf-8")
        tmp_path = Path(scratch) / lib_path.name
        cmd = [compiler, *_CFLAGS, "-o", str(tmp_path), str(src_path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel compile failed ({compiler}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_path, lib_path)
    return lib_path


class NativeBackend:
    """ctypes bindings over the compiled kernel library."""

    name = "native"
    compiled = True

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.k_pairwise.restype = ctypes.c_double
        lib.k_pairwise.argtypes = [_PTR, ctypes.c_int64]
        lib.k_sweep.restype = None
        lib.k_sweep.argtypes = [_PTR, ctypes.c_int64, ctypes.c_int64, _PTR, _PTR]
        lib.k_convolve.restype = None
        lib.k_convolve.argtypes = [_PTR, ctypes.c_int64, _PTR, ctypes.c_int64]
        lib.k_pay_scan.restype = ctypes.c_int64
        lib.k_pay_scan.argtypes = [
            _PTR, _PTR, ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
            _PTR, ctypes.c_int64, _PTR, _PTR, _PTR, _PTR, _PTR,
        ]
        lib.k_bb_search.restype = ctypes.c_int64
        lib.k_bb_search.argtypes = [
            _PTR, _PTR, _PTR, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
            ctypes.c_int64, _PTR, _PTR, _PTR, _PTR, _PTR,
        ]
        lib.k_repr.restype = ctypes.c_int64
        lib.k_repr.argtypes = [_PTR, ctypes.c_int64, _PTR, _PTR]
        self._repr_tables = _repr_tables()

    # -- kernel entry points -------------------------------------------------

    def sweep(self, eps: np.ndarray) -> np.ndarray:
        eps = np.ascontiguousarray(eps, dtype=np.float64)
        b, n = eps.shape
        jers = np.empty((b, (n + 1) // 2), dtype=np.float64)
        work = np.empty(2 * (n + 2), dtype=np.float64)
        self._lib.k_sweep(eps.ctypes.data, b, n, jers.ctypes.data, work.ctypes.data)
        return jers

    def convolve(self, base: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Fold ``eps`` into ``base`` with ``k_convolve``, the fold behind
        ``bb_search``'s bound.  Nothing dispatches it: it is the self-check's
        hook for holding that C helper to the reference on its own."""
        base = np.ascontiguousarray(base, dtype=np.float64)
        eps = np.ascontiguousarray(eps, dtype=np.float64)
        out = np.zeros(base.size + eps.size, dtype=np.float64)
        out[: base.size] = base
        self._lib.k_convolve(out.ctypes.data, base.size - 1, eps.ctypes.data, eps.size)
        return out

    def pay_scan(
        self,
        g_eps: np.ndarray,
        g_req: np.ndarray,
        budget: float,
        scan_from: int,
        accumulated: float,
        pmf: np.ndarray,
        current_jer: float,
    ) -> tuple[np.ndarray, float, float, int, int]:
        """Run the paper pairing scan to exhaustion.

        Returns ``(pairs, accumulated, jer, juries_considered,
        jer_evaluations)`` where ``pairs`` is a flat int64 array of
        admitted (partner, candidate) index pairs in admission order —
        exactly the elements ``_paper_pairing`` appends to ``selected``.
        """
        g_eps = np.ascontiguousarray(g_eps, dtype=np.float64)
        g_req = np.ascontiguousarray(g_req, dtype=np.float64)
        n = g_eps.size
        buf = np.zeros(n + 2, dtype=np.float64)
        buf[: pmf.size] = pmf
        state = np.array([accumulated, current_jer], dtype=np.float64)
        pairs = np.empty(max(2 * n, 2), dtype=np.int64)
        counters = np.zeros(2, dtype=np.int64)
        base2 = np.empty(n + 3, dtype=np.float64)
        row = np.empty(n + 3, dtype=np.float64)
        npairs = self._lib.k_pay_scan(
            g_eps.ctypes.data, g_req.ctypes.data, n, float(budget), int(scan_from),
            buf.ctypes.data, int(pmf.size), state.ctypes.data,
            pairs.ctypes.data, counters.ctypes.data,
            base2.ctypes.data, row.ctypes.data,
        )
        return (
            pairs[: 2 * npairs].copy(),
            float(state[0]),
            float(state[1]),
            int(counters[0]),
            int(counters[1]),
        )

    def bb_search(
        self,
        eps: np.ndarray,
        reqs: np.ndarray,
        ranks: np.ndarray,
        limit: int,
        budget: float,
        use_bound: bool,
    ) -> tuple[tuple[int, ...] | None, float, list[int]]:
        """Run the exact branch and bound for every odd size up to ``limit``.

        ``ranks`` gives each candidate's position in id order, the
        tie-break key.  Returns ``(indices | None, jer, [nodes_visited,
        jer_evaluations, bound_checks, pruned_by_bound])`` — the incumbent
        and counters ``branch_and_bound_optimal``'s Python search reaches.
        """
        eps = np.ascontiguousarray(eps, dtype=np.float64)
        reqs = np.ascontiguousarray(reqs, dtype=np.float64)
        ranks = np.ascontiguousarray(ranks, dtype=np.int64)
        n = eps.size
        if reqs.size != n or ranks.size != n:
            raise ValueError(
                f"bb_search needs one requirement and rank per candidate "
                f"(eps {n}, reqs {reqs.size}, ranks {ranks.size})"
            )
        limit = max(0, min(int(limit), n))
        w = limit + 1
        work = np.empty((n + 1) * w + w * (w + 1) // 2 + w + n, dtype=np.float64)
        iwork = np.empty(w, dtype=np.int64)
        best = np.empty(w, dtype=np.int64)
        counters = np.zeros(4, dtype=np.int64)
        jer = np.empty(1, dtype=np.float64)
        size = self._lib.k_bb_search(
            eps.ctypes.data, reqs.ctypes.data, ranks.ctypes.data, n, limit,
            float(budget), int(bool(use_bound)), jer.ctypes.data,
            best.ctypes.data, counters.ctypes.data,
            work.ctypes.data, iwork.ctypes.data,
        )
        indices = tuple(best[:size].tolist()) if size else None
        return indices, float(jer[0]), counters.tolist()

    def float_reprs(self, values: np.ndarray) -> list[str]:
        """``float.__repr__`` of each value, printed by ``k_repr`` in one call.

        The values travel as ``bytes`` and the text comes back through a
        ctypes buffer: neither pays ``ndarray.ctypes``' per-array toll.
        """
        data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
        count = len(data) // 8
        if not count:
            return []
        out = ctypes.create_string_buffer(_REPR_WIDTH * count)
        length = self._lib.k_repr(data, count, out, self._repr_tables)
        return ctypes.string_at(out, length).decode("ascii").split(" ")

    def pairwise(self, values: np.ndarray) -> float:
        values = np.ascontiguousarray(values, dtype=np.float64)
        return float(self._lib.k_pairwise(values.ctypes.data, values.size))


def load_native_backend() -> NativeBackend:
    """Find a compiler, build (or reuse) the library, and bind it.

    Raises on any failure — the registry records the message as the
    backend's unavailability reason.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried cc, gcc, clang)")
    lib_path = _build_library(compiler)
    return NativeBackend(ctypes.CDLL(str(lib_path)))
