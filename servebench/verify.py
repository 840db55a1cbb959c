"""Answer checking against a sequential in-process ``JuryService`` oracle.

Every timed response body, minus its ``timings`` block, must equal byte for
byte what the oracle's ``to_dict()`` encodes to for the same request.  Pool
workloads are replayed per pool in the order of the versions the server
acknowledged, and each select is checked at the ``pool_version`` it echoes,
so the check holds whatever the interleaving of the two connections.  The
oracle runs after the timed phase, one pool at a time to keep memory small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.api import JuryService, PoolCommand, SelectionRequest
from wire import request_body

_TIMINGS = b', "timings": {'


def strip_timings(body: bytes) -> bytes:
    """The response body without its trailing ``timings`` block."""
    cut = body.rfind(_TIMINGS)
    return body if cut < 0 else body[:cut]


def encode(payload: dict) -> bytes:
    """What the server writes for ``payload``, minus ``timings``."""
    return strip_timings(json.dumps(payload).encode("utf-8"))


@dataclass
class Verdict:
    """Failed operations of one run, split by cause."""

    http_errors: int = 0  # non-200 status or transport failure
    domain_errors: int = 0  # 200 carrying a ``status: error`` envelope
    mismatches: int = 0  # differs from the oracle
    examples: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.http_errors + self.domain_errors + self.mismatches

    def mismatch(self, index: int, why: str) -> None:
        self.mismatches += 1
        if len(self.examples) < 5:
            self.examples.append(f"op {index}: {why}")


def verify(workload, run) -> Verdict:
    """Check every operation ``run`` sent against the oracle."""
    verdict = Verdict()
    answered = []
    for index in range(run.sent):
        if run.status[index] != 200:
            verdict.http_errors += 1
        elif b'"status": "error"' in run.bodies[index][:200]:
            verdict.domain_errors += 1
            answered.append(index)
        else:
            answered.append(index)
    service = JuryService()
    try:
        if workload.setup:
            _verify_pools(workload, run, answered, service, verdict)
        else:
            _verify_inline(workload, run, answered, service, verdict)
    finally:
        service.close()
    return verdict


def _verify_inline(workload, run, answered, service, verdict, batch=64) -> None:
    for start in range(0, len(answered), batch):
        chunk = answered[start:start + batch]
        requests = [
            SelectionRequest.from_dict(json.loads(workload.body(i))) for i in chunk
        ]
        for index, response in zip(chunk, service.select_many(requests)):
            if strip_timings(run.bodies[index]) != encode(response.to_dict()):
                verdict.mismatch(index, "response differs from the oracle")


def _verify_pools(workload, run, answered, service, verdict) -> None:
    creates = {}
    for request in workload.setup:
        command = PoolCommand.from_dict(json.loads(request_body(request)))
        creates[command.name] = command
    # Per pool: (version after the operation, 0 = update / 1 = select, op).
    events: dict[str, list[tuple[int, int, int]]] = {}
    for index in answered:
        body = json.loads(run.bodies[index])
        request = json.loads(workload.body(index))
        if workload.is_update[index]:
            events.setdefault(request["name"], []).append((body["version"], 0, index))
        else:
            version = body.get("pool_version", -1)
            events.setdefault(request["pool"], []).append((version, 1, index))
    for name, timeline in events.items():
        service.pool(creates[name])
        memo: dict[tuple[int, int | None], dict] = {}
        for version, kind, index in sorted(timeline):
            request = json.loads(workload.body(index))
            if kind == 0:
                ack = service.pool(PoolCommand.from_dict(request))
                if run.bodies[index] != json.dumps(ack).encode("utf-8"):
                    verdict.mismatch(index, f"update ack {run.bodies[index][:120]!r} != {ack}")
                continue
            current = service.registry.get(name).version
            if current != version:
                verdict.mismatch(index, f"select echoed version {version}, oracle at {current}")
                continue
            key = (version, request.get("max_size"))
            expected = memo.get(key)
            if expected is None:
                expected = service.select(SelectionRequest.from_dict(request)).to_dict()
                memo[key] = expected
            expected = dict(expected, task=request["task"])
            if strip_timings(run.bodies[index]) != encode(expected):
                verdict.mismatch(index, f"select on {name}@{version} differs from the oracle")
        service.pool(PoolCommand(action="drop", name=name))
