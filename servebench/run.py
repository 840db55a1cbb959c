#!/usr/bin/env python3
"""Wire-to-wire serving benchmark for ``repro.cli http``.

Run from the repository root::

    python3 servebench/run.py --workload pool-repeat --seed 7 --seconds 10 --trace 0

One run launches the real server (``python -m repro.cli http --port 0``,
CLI defaults) in its own process, pins it, the calibration server
(``calib.py``) and this load generator to one CPU, sets the real server up
``SETUPS`` times (reporting the median set-up time), drives the workload
closed-loop over ``CONNECTIONS`` keep-alive connections for ``--seconds``
in phases that alternate with load on the calibration server, checks every
answer against a sequential in-process ``JuryService`` oracle, and prints
one JSON line last: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, with timings scaled to a
nominal host by the calibration server's figures in the same run;
``--trace 1`` runs the traced per-layer ledger instead (see ``README.md``).
The line before it is the run record: values as measured, interference
counters, host, seed, workload sizes.

Exits 1 after printing the result when an answer differs from the oracle,
and 2 without printing a result when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes: the kernel cache and the last spans per
#: workload, plus one ``run-<pid>`` directory (server logs, catalogs) that is
#: removed when the run succeeds.
WORK = ROOT / ".bench_build" / "servebench"
RUN = WORK / f"run-{os.getpid()}"

#: Closed-loop clients, one connection each.
CONNECTIONS = 2
#: Server start + set-up repetitions per run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds of load per program phase, and per calibration phase.  The timed
#: part alternates the load between the calibration server and the program,
#: calibration first and last, so each program phase lies between two
#: calibration phases, each a fraction of a second away.
PHASE_SECONDS = 0.25
CALIBRATION_SECONDS = 0.1
#: Answers at the start of each phase left out of the latency percentiles
#: (at most half the phase's): the phase opens fresh connections to a server
#: that sat idle, and those first answers are slow enough to set a 99th
#: percentile.
PHASE_WARMUP = 16
#: Seconds of untimed load on the calibration server before the timed part.
CALIBRATION_WARMUP_SECONDS = 0.2
#: The calibration server's closed-loop throughput, median and 99th
#: percentile latency on the nominal host the metrics are scaled to.  Fixed
#: constants: they set the scale of every reported timing, so they must not
#: change between commits.
CALIBRATION_NOMINAL = {"rps": 4500.0, "p50_ms": 0.4, "p99_ms": 0.65}
#: Consecutive answers per window of the latency percentiles: at least 10
#: of each window's answers lie beyond its 99th percentile.
WINDOW = 1000

E2E_UNITS = {
    "setup_s": "s",
    "rps": "1/s",
    "select_p50_ms": "ms",
    "select_p99_ms": "ms",
    "cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def windowed_percentile(values: list[float], q: float) -> float:
    """Median over windows of ``WINDOW`` consecutive values of their percentile.

    A run shorter than one window is one window.  A stall of the host that
    lands in one window moves that window's tail, not the reported one.
    """
    windows = [values[i:i + WINDOW] for i in range(0, len(values) - WINDOW + 1, WINDOW)]
    return statistics.median(percentile(window, q) for window in windows or [values])


def host_record(cpu: int | None) -> dict:
    """Who produced the numbers: the fields ``benchmarks/_common`` stamps."""
    import platform

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=str(ROOT),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "git_commit": commit,
        "cpus": os.cpu_count() or 1,
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def build_kernels(env: dict) -> None:
    """Compile (once per checkout) and cache the native kernel backend."""
    subprocess.run(
        [sys.executable, "-c", "from repro.core import kernels; kernels.ensure_ready()"],
        env=env, check=True, timeout=600,
    )


def warmed(phase) -> int:
    """Index of the first answer of ``phase`` the latency percentiles use."""
    return min(PHASE_WARMUP, phase.sent // 2)


@dataclass
class Calibration:
    """One phase of load on the calibration server."""

    completed: int
    seconds: float
    latencies_ms: list[float]

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50)


def start_calibration(env: dict):
    """The calibration server (``calib.py``), pinned with everything else."""
    from wire import Server

    return Server(env, RUN / "calib.log", argv=[sys.executable, str(HERE / "calib.py")])


def calibrate(calib, seconds: float) -> Calibration:
    """Drive the calibration server closed-loop, like the program, for ``seconds``."""
    from wire import calibration_requests, drive

    count = int(CALIBRATION_NOMINAL["rps"] * 3 * seconds) + 64
    run = drive(calib.host, calib.port, calibration_requests(count),
                connections=CONNECTIONS, seconds=seconds)
    latencies = [
        run.latency(i) * 1e3 for i in range(warmed(run), run.sent) if run.status[i] == 200
    ]
    if run.completed != run.sent or not latencies:
        raise RuntimeError("the calibration server failed to answer")
    return Calibration(run.completed, run.seconds, latencies)


def slowness(calibrations: list[Calibration]) -> float:
    """How much slower than nominal the host ran them (> 1: slower), by throughput."""
    rps = sum(c.completed for c in calibrations) / sum(c.seconds for c in calibrations)
    return CALIBRATION_NOMINAL["rps"] / rps


def start_server(workload, env: dict, tag: str):
    """Spawn, create the workload's pools and warm up.

    Returns the server and the seconds it took.
    """
    from wire import Server, call_all

    data_dir = None
    if workload.durable:
        data_dir = RUN / f"data-{tag}"
        shutil.rmtree(data_dir, ignore_errors=True)
    started = time.perf_counter()
    server = Server(env, RUN / f"server-{tag}.log", data_dir)
    try:
        answers = call_all(server.host, server.port, workload.setup + workload.warmup)
        elapsed = time.perf_counter() - started
        for status, body in answers:
            if status != 200 or b'"status": "error"' in body:
                raise RuntimeError(f"set-up request failed: HTTP {status}: {body[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server, elapsed


def merge(phases) -> "Drive":
    """The program phases as one pass over the operation sequence."""
    from array import array

    from wire import Drive

    sent_at, done_at, status, bodies = array("d"), array("d"), array("i"), []
    for phase in phases:
        sent_at.extend(phase.sent_at[: phase.sent])
        done_at.extend(phase.done_at[: phase.sent])
        status.extend(phase.status[: phase.sent])
        bodies.extend(phase.bodies[: phase.sent])
    return Drive(
        sent=len(bodies),
        completed=sum(phase.completed for phase in phases),
        started=phases[0].started,
        finished=phases[-1].finished,
        sent_at=sent_at,
        done_at=done_at,
        status=status,
        bodies=bodies,
        exhausted=False,
    )


def measure(workload, env: dict, seconds: float, cpu: int | None):
    """Set up ``SETUPS`` times, then alternate the load for ``seconds`` of program time.

    Returns the program phases, the calibration phases around them, the
    set-ups, the server's CPU seconds over the timed part, its peak RSS and
    the interference record.
    """
    import gc

    import workloads
    from wire import drive, http_get, self_cpu_seconds, steal_ticks

    calib = start_calibration(env)
    try:
        setups = []
        for attempt in range(SETUPS):
            server, elapsed = start_server(workload, env, str(attempt))
            setups.append(elapsed)
            if attempt < SETUPS - 1:
                server.stop()
        cap = int(workloads.CAPACITY[workload.name] * PHASE_SECONDS) + 64
        phases, calibrations, first = [], [], 0
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            calibrate(calib, CALIBRATION_WARMUP_SECONDS)
            steal0, server_cpu0, own_cpu0 = (
                steal_ticks(cpu), server.cpu_seconds(), self_cpu_seconds()
            )
            calibrations.append(calibrate(calib, CALIBRATION_SECONDS))
            count = max(1, round(seconds / PHASE_SECONDS))
            while len(phases) < count and first < len(workload.ops):
                phase = drive(server.host, server.port, workload.ops[first:first + cap],
                              connections=CONNECTIONS, seconds=seconds / count)
                phases.append(phase)
                first += phase.sent
                calibrations.append(calibrate(calib, CALIBRATION_SECONDS))
            steal1, server_cpu1, own_cpu1 = (
                steal_ticks(cpu), server.cpu_seconds(), self_cpu_seconds()
            )
        finally:
            gc.enable()
            gc.unfreeze()
            try:
                rss = server.peak_rss_mb()
                stats = json.loads(http_get(server.host, server.port, "/v1/stats"))
            finally:
                server.stop()
    finally:
        calib.stop()
    completed = sum(phase.completed for phase in phases)
    interference = {
        "steal_ticks": steal1 - steal0,
        "calibration_rps": CALIBRATION_NOMINAL["rps"] / slowness(calibrations),
        "calibration_p50_ms": percentile([x for c in calibrations for x in c.latencies_ms], 50),
        "calibration_p99_ms": percentile([x for c in calibrations for x in c.latencies_ms], 99),
        "phases": len(phases),
        "loadgen_cpu_ms_per_req": (own_cpu1 - own_cpu0) * 1e3 / max(completed, 1),
        "kernel_backend": stats["kernels"]["active"],
        "frontier_hits": stats["engine"]["frontier_hits"],
        "async_batches": stats["async"]["batches"],
        "async_answered": stats["async"]["answered"],
        "exhausted": first >= len(workload.ops),
    }
    return phases, calibrations, setups, server_cpu1 - server_cpu0, rss, interference


def latencies_ms(workload, phases, calibrations, updates: bool, scaled: bool) -> list[float]:
    """Wire latencies of the answered selects (or updates), phase by phase.

    Each phase's first ``PHASE_WARMUP`` answers are left out.  ``scaled``
    divides each by its phase's slowness: the calibration server's median
    latency in the phases just before and after it, over its nominal one.
    """
    out, first = [], 0
    for k, phase in enumerate(phases):
        slow = 1.0
        if scaled:
            around = (calibrations[k].p50_ms + calibrations[k + 1].p50_ms) / 2
            slow = around / CALIBRATION_NOMINAL["p50_ms"]
        out.extend(
            phase.latency(i) * 1e3 / slow
            for i in range(warmed(phase), phase.sent)
            if phase.status[i] == 200 and workload.is_update[first + i] == updates
        )
        first += phase.sent
    return out


def latency_percentiles(workload, phases, calibrations, updates: bool) -> tuple[float, float]:
    """The 50th and 99th percentile latencies at nominal host speed.

    Both are taken over latencies scaled phase by phase, except the 99th
    percentile of a workload whose tail is queueing: that one is the
    program's as measured, over the calibration server's in the same run,
    times the calibration server's nominal one.  A queueing tail does not
    grow with the host's slowness the way work does; the calibration
    server's tail, queueing too, moves with it.
    """
    scaled = latencies_ms(workload, phases, calibrations, updates, scaled=True)
    p50 = windowed_percentile(scaled, 50)
    if not workload.queueing_tail:
        return p50, windowed_percentile(scaled, 99)
    measured = latencies_ms(workload, phases, calibrations, updates, scaled=False)
    calibration = [x for c in calibrations for x in c.latencies_ms]
    tail = CALIBRATION_NOMINAL["p99_ms"] / windowed_percentile(calibration, 99)
    return p50, windowed_percentile(measured, 99) * tail


def end_to_end(workload, phases, calibrations, setups, server_cpu, rss) -> tuple[dict, dict]:
    """The metrics at nominal host speed, and the same values as measured.

    Throughput, CPU per request and set-up time are scaled by the host's
    slowness over the timed part, the latencies as
    :func:`latency_percentiles` says; ``server_rss_mb`` is not a timing.
    """
    completed = sum(phase.completed for phase in phases)
    select_ms = latencies_ms(workload, phases, calibrations, updates=False, scaled=False)
    raw = {
        "setup_s": statistics.median(setups),
        "rps": completed / sum(phase.seconds for phase in phases),
        "select_p50_ms": windowed_percentile(select_ms, 50),
        "select_p99_ms": windowed_percentile(select_ms, 99),
        "cpu_ms_per_req": server_cpu * 1e3 / completed,
        "server_rss_mb": rss,
    }
    slow = slowness(calibrations)
    p50, p99 = latency_percentiles(workload, phases, calibrations, updates=False)
    values = {
        "setup_s": raw["setup_s"] / slow,
        "rps": raw["rps"] * slow,
        "select_p50_ms": p50,
        "select_p99_ms": p99,
        "cpu_ms_per_req": raw["cpu_ms_per_req"] / slow,
        "server_rss_mb": rss,
    }
    metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    return metrics, raw


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: repro.testing.BENCH_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.testing import BENCH_SEED
    from verify import verify
    from wire import choose_cpu, pin, program_env

    seed = BENCH_SEED if args.seed is None else args.seed
    RUN.mkdir(parents=True, exist_ok=True)
    cpu = pin(choose_cpu())
    env = program_env(SRC, WORK)
    # The in-process oracle and ledger run on the same defaults as the server.
    os.environ.clear()
    os.environ.update(env)
    build_kernels(env)

    workload = workloads.build(args.workload, seed, args.seconds)
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "connections": CONNECTIONS,
        "host": host_record(cpu),
    }
    if args.trace:
        from ledger import traced_run

        metrics, runs, tracer = traced_run(workload, env, args.seconds, start_server, RUN)
        spans_path = WORK / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        phases, calibrations, setups, server_cpu, rss, record["interference"] = measure(
            workload, env, args.seconds, cpu
        )
        metrics, record["as_measured"] = end_to_end(
            workload, phases, calibrations, setups, server_cpu, rss
        )
        if latencies_ms(workload, phases, calibrations, updates=True, scaled=False):
            record["update_p50_ms"], record["update_p99_ms"] = latency_percentiles(
                workload, phases, calibrations, updates=True
            )
        runs = (merge(phases),)
    verdicts = [verify(workload, run) for run in runs]
    record["operations"] = [run.sent for run in runs]
    record["updates"] = [sum(workload.is_update[: run.sent]) for run in runs]
    record["verification"] = [vars(verdict) for verdict in verdicts]
    mismatches = sum(verdict.mismatches for verdict in verdicts)
    if not mismatches:
        shutil.rmtree(RUN, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": sum(run.sent for run in runs),
        "failed": sum(verdict.failed for verdict in verdicts),
        "metrics": metrics,
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
