"""Self-tests of the serving benchmark harness.

Run from the repository root::

    python3 -m pytest -q servebench/selftest.py

They check the harness, not the program: tiny runs emit every metric
``BENCHMARK.json`` names, with its unit; the verifier catches a single
flipped bit; the self-time arithmetic is right on a hand-built span tree;
timings are scaled by the calibration server's figures; CPU pinning
degrades cleanly; and without the program the benchmark fails
without printing a result.  The file is named so that the repository's own
test run does not collect it (each tiny run starts real servers).
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from ledger import Span, busy, self_times  # noqa: E402
from verify import verify  # noqa: E402
from wire import choose_cpu, pin  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT), **kwargs,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def _flip_lowest_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def test_verifier_flags_one_flipped_jer_bit():
    from repro.api import JuryService, SelectionRequest

    workload = workloads.inline_mix(seed=3, count=4)
    service = JuryService()
    bodies = []
    for i in range(4):
        request = SelectionRequest.from_dict(json.loads(workload.body(i)))
        bodies.append(json.dumps(service.select(request).to_dict()).encode("utf-8"))
    run = SimpleNamespace(sent=4, status=[200] * 4, bodies=bodies)
    assert verify(workload, run).failed == 0

    answer = json.loads(bodies[2])
    answer["jer"] = _flip_lowest_bit(answer["jer"])
    bodies[2] = json.dumps(answer).encode("utf-8")
    verdict = verify(workload, run)
    assert (verdict.mismatches, verdict.failed) == (1, 1)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span(0, "server", 0.0, 10.0, None, 0),
        Span(1, "server", 8.0, 12.0, None, 1),  # overlaps span 0: counted once
        Span(2, "service", 1.0, 3.0, 0, 0),
        Span(3, "service", 4.0, 8.0, 0, 0),
        Span(4, "kernel", 5.0, 6.0, 3, 0),
        Span(5, "kernel", 9.0, 9.5, 1, 1),  # a second child name of "server"
    ]
    assert busy(spans[:2]) == 12.0
    own = self_times(spans)
    assert own["server"] == pytest.approx(12.0 - (2.0 + 4.0 + 0.5))
    assert own["service"] == pytest.approx(6.0 - 1.0)
    assert own["kernel"] == pytest.approx(1.5)


def _phase(latencies_ms: list[float]) -> SimpleNamespace:
    return SimpleNamespace(
        sent=len(latencies_ms),
        status=[200] * len(latencies_ms),
        latency=lambda i: latencies_ms[i] / 1e3,
    )


def test_timings_are_scaled_by_the_calibration_server():
    nominal = bench.CALIBRATION_NOMINAL
    # The calibration server ran at half its nominal speed around the phase.
    slow = bench.Calibration(int(nominal["rps"] / 2), 1.0, [2 * nominal["p50_ms"]] * 40)
    assert bench.slowness([slow, slow]) == pytest.approx(2.0)
    phase = _phase([9.0] * bench.PHASE_WARMUP + [4.0] * 40)
    workload = SimpleNamespace(is_update=bytearray(phase.sent), queueing_tail=False)
    # The phase's first answers are left out; the rest are halved.
    scaled = bench.latencies_ms(workload, [phase], [slow, slow], updates=False, scaled=True)
    assert scaled == [pytest.approx(2.0)] * 40
    p50, p99 = bench.latency_percentiles(workload, [phase], [slow, slow], updates=False)
    assert (p50, p99) == (pytest.approx(2.0), pytest.approx(2.0))
    # A queueing tail goes by the calibration server's 99th percentile.
    workload.queueing_tail = True
    p50, p99 = bench.latency_percentiles(workload, [phase], [slow, slow], updates=False)
    assert p50 == pytest.approx(2.0)
    assert p99 == pytest.approx(4.0 * nominal["p99_ms"] / (2 * nominal["p50_ms"]))


def test_pinning_degrades_cleanly_with_one_cpu():
    assert choose_cpu({3}) == 3
    assert choose_cpu(set()) is None
    assert pin(None) is None
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    only = max(os.sched_getaffinity(0))
    proc = _run("--workload", "inline-mix", "--seconds", "0.3",
                preexec_fn=lambda: os.sched_setaffinity(0, {only}))
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["host"]["pinned_cpu"] == only


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "inline-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
