#!/usr/bin/env python3
"""Kernel-backend benchmark: native JER/PMF kernels vs the NumPy reference.

Scenario: the three kernels the registry dispatches, the first two at the
pool sizes the paper's experiments run at (~1,000 candidates):

* **sweep** — the batched odd-prefix JER sweep behind every AltrM query
  (:func:`repro.core.jer.batch_prefix_jer_sweep`), measured at a single
  1,001-candidate pool and at stacked 2-D batches (the batch engine's
  shape).
* **pay_scan** — the PayALG paper scan behind every PayM query
  (:func:`repro.core.selection.pay.run_pay_greedy`), seeded as that
  function seeds it; the native backend runs the whole scan in one call.
* **bb_search** — the whole exact branch and bound behind
  ``exact-branch-and-bound`` plans, against the Python search it
  replicates: the paper-shaped N = 22 instance (paper Section 5.1.2) and,
  in full mode, a 40-candidate instance with the ROADMAP's 96-candidate
  shape (error rates 0.3-0.49, budget 0.2 per candidate).

Each workload calls the NumPy reference backend object (for ``bb_search``,
the Python search) and the native backend object directly and verifies the
outputs **bit-identical** — ids, JER bits and search counters — the
same invariant the activation self-check enforces, re-checked here on the
benchmark inputs.
A machine-readable ``BENCH_kernels.json`` artifact is written with the
uniform host-metadata block.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke]
      [--pool-size N] [--repeats N] [--out PATH]

``--smoke`` shrinks the workload for CI smoke jobs (bit-identity is still
enforced; the speedup bar is not).  The full-size acceptance bar is >= 3x
over NumPy on the sweep or the PayM scan at the 1,000-candidate pool; when
the native backend is unavailable the bench records why in the artifact
and exits 0 (the degradation path is itself a supported configuration).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from _common import verification_failure, write_artifact  # noqa: E402
from repro.core import kernels  # noqa: E402
from repro.core.jer import extend_pmf  # noqa: E402
from repro.core.kernels._reference import NumpyBackend  # noqa: E402
from repro.core.juror import jurors_from_arrays  # noqa: E402
from repro.core.kernels._verify import (  # noqa: E402
    _reference_bb_search,
    _reference_pay_scan,
)
from repro.core.selection.exact import _id_ranks  # noqa: E402
from repro.plan import CandidatePool  # noqa: E402
from repro.testing import BENCH_SEED  # noqa: E402

REFERENCE = NumpyBackend()


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and bool(
        np.array_equal(a.view(np.uint64), b.view(np.uint64))
    )


def bench_sweep(rng, batch: int, pool_size: int, repeats: int, native) -> dict:
    eps = rng.uniform(0.05, 0.6, size=(batch, pool_size))
    expected = REFERENCE.sweep(eps)
    got = native.sweep(eps)
    identical = _bits_equal(expected, got)
    numpy_seconds = _best_of(lambda: REFERENCE.sweep(eps), repeats)
    compiled_seconds = _best_of(lambda: native.sweep(eps), repeats)
    return {
        "kernel": "sweep",
        "backend": native.name,
        "batch": batch,
        "pool_size": pool_size,
        "numpy_seconds": numpy_seconds,
        "compiled_seconds": compiled_seconds,
        "speedup": numpy_seconds / compiled_seconds,
        "verified_identical": identical,
    }


def _normalise_pay(scan: tuple) -> tuple:
    pairs, accumulated, jer, considered, evaluations = scan
    # bitwise, not approximate
    return (pairs.tolist(), accumulated.hex(), jer.hex(), considered, evaluations)


def bench_pay(rng, pool_size: int, budget: float, repeats: int, native) -> dict:
    eps = rng.uniform(0.05, 0.45, size=pool_size)
    reqs = rng.uniform(0.01, 0.05, size=pool_size)
    # The scan as run_pay_greedy seeds it: ascending eps*r order, the
    # first candidate admitted, the rest scanned for affordable pairs.
    order = np.argsort(eps * reqs, kind="stable")
    g_eps, g_req = eps[order], reqs[order]
    pmf = extend_pmf(np.ones(1), float(g_eps[0]))
    args = (g_eps, g_req, budget, 1, float(g_req[0]), pmf, float(pmf[1]))
    expected = _normalise_pay(_reference_pay_scan(*args))
    got = _normalise_pay(native.pay_scan(*args))
    identical = expected == got
    numpy_seconds = _best_of(lambda: _reference_pay_scan(*args), repeats)
    compiled_seconds = _best_of(lambda: native.pay_scan(*args), repeats)
    return {
        "kernel": "pay_scan",
        "backend": native.name,
        "pool_size": pool_size,
        "budget": budget,
        "numpy_seconds": numpy_seconds,
        "compiled_seconds": compiled_seconds,
        "speedup": numpy_seconds / compiled_seconds,
        "verified_identical": identical,
    }


def _paper_n22():
    """The paper's ground-truth shape: N=22, eps~N(0.2,.05), r~N(0.05,.2)."""
    rng = np.random.default_rng(2012)
    eps = np.clip(rng.normal(0.2, np.sqrt(0.05), size=22), 0.01, 0.99)
    reqs = np.clip(rng.normal(0.05, np.sqrt(0.2), size=22), 0.0, None)
    return "paper-n22", eps, reqs, 1.0


def _weak_pool(size: int):
    """Uniformly weak candidates, budget 0.2 per candidate."""
    rng = np.random.default_rng(BENCH_SEED)
    eps = rng.uniform(0.3, 0.49, size)
    reqs = rng.uniform(0.0, 1.0, size)
    return f"weak-{size}", eps, reqs, 0.2 * size


def bench_bb_search(instance, repeats: int, native) -> dict:
    label, eps, reqs, budget = instance
    pool = CandidatePool(jurors_from_arrays(eps, reqs))
    n = pool.size
    ranks = _id_ranks(pool.ids)
    expected = _reference_bb_search(pool.eps, pool.reqs, pool.ids, n, budget, True)
    got = native.bb_search(pool.eps, pool.reqs, ranks, n, budget, True)
    identical = (expected[0], expected[1].hex(), expected[2]) == (
        got[0], got[1].hex(), got[2]
    )
    numpy_seconds = _best_of(
        lambda: _reference_bb_search(pool.eps, pool.reqs, pool.ids, n, budget, True),
        repeats,
    )
    compiled_seconds = _best_of(
        lambda: native.bb_search(pool.eps, pool.reqs, ranks, n, budget, True),
        repeats,
    )
    return {
        "kernel": "bb_search",
        "backend": native.name,
        "instance": label,
        "pool_size": n,
        "budget": budget,
        "nodes_visited": got[2][0],
        "numpy_seconds": numpy_seconds,
        "compiled_seconds": compiled_seconds,
        "speedup": numpy_seconds / compiled_seconds,
        "verified_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pool-size", type=int, default=1001, help="candidates per pool"
    )
    parser.add_argument(
        "--budget", type=float, default=3.0, help="PayM budget for the scan bench"
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of repeats")
    parser.add_argument(
        "--out", default="BENCH_kernels.json", help="where to write the JSON artifact"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes; bit-identity enforced, the 3x bar is not (CI smoke)",
    )
    args = parser.parse_args(argv)

    pool_size, repeats = args.pool_size, args.repeats
    batches = (1, 8, 16)
    if args.smoke:
        pool_size, repeats, batches = 151, 2, (1, 4)

    native = kernels.native_backend()
    snapshot = kernels.stats_snapshot()
    print(
        f"bench_kernels: pool {pool_size}, repeats {repeats} "
        f"({'smoke' if args.smoke else 'full'} mode); active backend "
        f"{snapshot['active']!r}"
    )

    rows: list[dict] = []
    rng = np.random.default_rng(BENCH_SEED)
    if native is not None:
        for batch in batches:
            rows.append(bench_sweep(rng, batch, pool_size, repeats, native))
        rows.append(bench_pay(rng, pool_size - 1, args.budget, repeats, native))
        instances = [_paper_n22()]
        if not args.smoke:
            instances.append(_weak_pool(40))
        for instance in instances:
            rows.append(bench_bb_search(instance, repeats, native))

    for row in rows:
        shape = ", ".join(
            f"{k}={row[k]}"
            for k in ("instance", "batch", "pool_size")
            if k in row
        )
        verdict = "identical" if row["verified_identical"] else "DIVERGED"
        print(
            f"  {row['kernel']:<12} {shape:<34} "
            f"numpy {row['numpy_seconds'] * 1e3:9.3f} ms   "
            f"{row['backend']} {row['compiled_seconds'] * 1e3:9.3f} ms   "
            f"{row['speedup']:6.2f}x  ({verdict})"
        )

    anchor_rows = [
        row
        for row in rows
        if (row["kernel"] == "sweep" and row["batch"] == 1)
        or row["kernel"] == "pay_scan"
    ]
    anchor = max((row["speedup"] for row in anchor_rows), default=None)

    write_artifact(
        args.out,
        {
            "benchmark": "kernels",
            "mode": "smoke" if args.smoke else "full",
            "active_backend": snapshot["active"],
            "unavailable": snapshot["unavailable"],
            "workload": {
                "pool_size": pool_size,
                "batches": list(batches),
                "budget": args.budget,
                "repeats": repeats,
            },
            "results": rows,
            "anchor_speedup": anchor,
            "verified_identical": all(row["verified_identical"] for row in rows),
        },
    )

    if not all(row["verified_identical"] for row in rows):
        return verification_failure(
            "a native kernel diverged from the NumPy reference"
        )
    if native is None:
        print(
            "  note: native backend unavailable on this host "
            f"({snapshot['unavailable']['native']}) — nothing to compare"
        )
        return 0
    if not args.smoke and (anchor is None or anchor < 3.0):
        return verification_failure(
            f"anchor speedup {anchor if anchor is None else f'{anchor:.2f}x'} "
            "below the 3x acceptance bar at the 1,000-candidate pool"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
