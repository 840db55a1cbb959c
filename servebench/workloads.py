"""Seeded workload generators.

Every request is built from ``(seed, workload)`` and encoded to HTTP bytes
before any timing starts; the server receives only those bytes.  Operation
``i`` depends only on the seed and on the operations before it, so a run
that completes ``k`` operations has sent exactly the first ``k`` of the
sequence, whatever the interleaving of the two connections.

Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from wire import http_request, request_body

#: Candidates per inline AltrM/PayM request (about 10 KB of JSON).
INLINE_POOL_SIZE = 121
#: Candidates per inline exact request; the budget keeps enumeration small.
EXACT_POOL_SIZE = 18
#: Named pools resident in the server for the pool workloads.
POOLS = 64
#: Candidates per named pool: a strong head over a weak tail, so the AltrM
#: optimum is a short prefix and answers stay small.
POOL_SIZE = 1001
POOL_HEAD = 41
#: Zipf exponent of pool popularity in the repeat streams.
ZIPF_S = 1.3
#: ``max_size`` caps carried by a quarter of the repeat selects.
MAX_SIZE_CAPS = (3, 7, 11, 15, 21)
#: One ``pool-churn`` operation in this many is an update.  Selects there are
#: bimodal: frontier hits near 0.7 ms, and selects that pay a delta repair
#: (or share a batch with one) at 3-9 ms.  At one update in 4 about half the
#: selects are slow and the median sits on the cliff between the two modes
#: (its run-to-run spread was 28%); at one in 6 it sits inside the fast
#: mode while the 99th percentile stays inside the repair mode.
CHURN_UPDATE_EVERY = 6
#: Upper bound on operations per second each workload could complete; the
#: pre-built sequence holds this many operations per timed second.
CAPACITY = {"inline-mix": 1500, "pool-repeat": 6000, "pool-churn": 1500}

WORKLOADS = tuple(CAPACITY)

_TAGS = {name: position for position, name in enumerate(WORKLOADS)}


@dataclass
class Workload:
    """One traffic mix: set-up, warm-up and the timed operation sequence."""

    name: str
    seed: int
    durable: bool  # the server keeps its pools in a ``--data-dir`` catalog
    setup: list[bytes]  # pool creates, sent before warm-up
    warmup: list[bytes]  # untimed requests that touch every pool once
    ops: list[bytes]  # the timed sequence
    is_update: bytearray = field(default_factory=bytearray)  # 1: POST /v1/pool
    #: Every select does the same work, so the slowest answers are the ones
    #: that queued behind the other connection's: the tail is queueing.
    queueing_tail: bool = False

    def body(self, index: int) -> bytes:
        """The JSON body of timed operation ``index``."""
        return request_body(self.ops[index])


def _juror_json(juror_id: str, eps: float, req: float) -> str:
    return f'{{"id": "{juror_id}", "error_rate": {eps!r}, "requirement": {req!r}}}'


def _candidates_json(prefix: str, eps, reqs) -> str:
    return ", ".join(
        _juror_json(f"{prefix}-{j}", e, r)
        for j, (e, r) in enumerate(zip(eps.tolist(), reqs.tolist()))
    )


def inline_request(rng: np.random.Generator, task: str, model: str) -> bytes:
    """One select carrying its own pool (18 candidates for exact, else 121)."""
    size = EXACT_POOL_SIZE if model == "exact" else INLINE_POOL_SIZE
    eps = rng.uniform(0.05, 0.6, size=size)
    reqs = rng.uniform(0.0, 1.0, size=size)
    budget = {"altr": "", "pay": ', "budget": 2.0', "exact": ', "budget": 1.5'}[model]
    body = (
        f'{{"v": 1, "task": "{task}", "candidates": [{_candidates_json(task, eps, reqs)}], '
        f'"model": "{model}"{budget}}}'
    )
    return http_request("/v1/select", body.encode("ascii"))


def _inline_model(index: int) -> str:
    """The fixed 14/1/1 per 16 AltrM/PayM/exact pattern."""
    return {7: "pay", 15: "exact"}.get(index % 16, "altr")


def inline_mix(seed: int, count: int) -> Workload:
    """One-shot 121-candidate pools, every request distinct."""
    rng = np.random.default_rng([seed, _TAGS["inline-mix"]])
    ops = [inline_request(rng, f"t{i}", _inline_model(i)) for i in range(count)]
    warm_rng = np.random.default_rng([seed, _TAGS["inline-mix"], 1])
    warmup = [inline_request(warm_rng, f"w{i}", _inline_model(i)) for i in range(48)]
    return Workload("inline-mix", seed, False, [], warmup, ops, bytearray(count))


@dataclass
class _Pool:
    name: str
    ids: list[str]
    eps: list[float]
    removable: list[str]  # tail ids an add/remove pair may take out, in order
    stable: list[int]  # positions a re-estimate may target (never removed)
    added: int = 0


def _pools(seed: int) -> list[_Pool]:
    rng = np.random.default_rng([seed, 99])
    pools = []
    for k in range(POOLS):
        # Every head has the same shape (seeded jitter only), so answer sizes
        # and per-request costs do not hinge on which pool the seed makes hot.
        eps = np.concatenate(
            [
                np.linspace(0.05, 0.35, POOL_HEAD) + rng.uniform(-0.004, 0.004, POOL_HEAD),
                rng.uniform(0.47, 0.499, size=POOL_SIZE - POOL_HEAD),
            ]
        )
        ids = [f"p{k}-{j}" for j in range(POOL_SIZE)]
        half = POOL_HEAD + (POOL_SIZE - POOL_HEAD) // 2
        removable = [ids[j] for j in rng.permutation(np.arange(POOL_HEAD, half))]
        stable = list(range(POOL_HEAD)) + list(range(half, POOL_SIZE))
        pools.append(_Pool(f"pool-{k:02d}", ids, eps.tolist(), removable, stable))
    return pools


def _create_request(pool: _Pool, rng: np.random.Generator) -> bytes:
    reqs = rng.uniform(0.0, 1.0, size=len(pool.ids)).tolist()
    candidates = ", ".join(
        _juror_json(i, e, r) for i, e, r in zip(pool.ids, pool.eps, reqs)
    )
    body = (
        f'{{"v": 1, "cmd": "pool", "action": "create", "name": "{pool.name}", '
        f'"candidates": [{candidates}]}}'
    )
    return http_request("/v1/pool", body.encode("ascii"))


def _select(task: str, pool: str, max_size: int | None) -> bytes:
    payload = {"v": 1, "task": task, "pool": pool, "model": "altr"}
    if max_size is not None:
        payload["max_size"] = max_size
    return http_request("/v1/select", json.dumps(payload).encode("ascii"))


def _zipf_ranks(rng: np.random.Generator, count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, POOLS + 1) ** ZIPF_S
    return rng.choice(POOLS, size=count, p=weights / weights.sum())


def _pool_workload(name: str, seed: int, count: int, update_every: int) -> Workload:
    pools = _pools(seed)
    rng = np.random.default_rng([seed, _TAGS[name]])
    setup = [_create_request(pool, rng) for pool in pools]
    warmup = [_select(f"w{k}", pool.name, None) for k, pool in enumerate(pools)]
    # Popularity follows a seeded permutation, so the hot pool moves per seed.
    by_rank = rng.permutation(POOLS)
    targets = by_rank[_zipf_ranks(rng, count)]
    capped = rng.random(count) < 0.25
    caps = rng.choice(MAX_SIZE_CAPS, size=count)
    ops: list[bytes] = []
    is_update = bytearray(count)
    for i in range(count):
        pool = pools[targets[i]]
        if update_every and i % update_every == update_every - 1:
            ops.append(_update(pool, rng))
            is_update[i] = 1
        else:
            ops.append(_select(f"r{i}", pool.name, int(caps[i]) if capped[i] else None))
    return Workload(
        name, seed, update_every > 0, setup, warmup, ops, is_update,
        queueing_tail=update_every == 0,
    )


def _update(pool: _Pool, rng: np.random.Generator) -> bytes:
    """A re-estimated error rate, or (one in 8) a remove + add pair.

    Re-estimates only touch jurors no pair removes, and each pair removes a
    distinct original juror and adds a fresh one, so every update is valid in
    whatever order the two connections deliver them, and the size stays put.
    """
    payload: dict = {"v": 1, "cmd": "pool", "action": "update", "name": pool.name}
    if rng.random() < 0.125 and pool.added < len(pool.removable):
        new_id = f"{pool.name}-n{pool.added}"
        payload["remove"] = [pool.removable[pool.added]]
        payload["add"] = [
            {
                "id": new_id,
                "error_rate": float(rng.uniform(0.47, 0.499)),
                "requirement": float(rng.uniform(0.0, 1.0)),
            }
        ]
        pool.added += 1
    else:
        position = pool.stable[int(rng.integers(len(pool.stable)))]
        eps = min(0.499, max(0.02, pool.eps[position] + float(rng.uniform(-0.03, 0.03))))
        pool.eps[position] = eps
        payload["set"] = [{"id": pool.ids[position], "error_rate": eps}]
    return http_request("/v1/pool", json.dumps(payload).encode("ascii"))


def build(name: str, seed: int, seconds: float) -> Workload:
    """The workload ``name`` for ``seed``, sized for ``seconds`` of timing."""
    count = int(CAPACITY[name] * seconds) + 64
    if name == "inline-mix":
        return inline_mix(seed, count)
    if name == "pool-repeat":
        return _pool_workload(name, seed, count, update_every=0)
    if name == "pool-churn":
        return _pool_workload(name, seed, count, update_every=CHURN_UPDATE_EVERY)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
