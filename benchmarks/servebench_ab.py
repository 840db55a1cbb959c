"""A/B pairs of ``servebench`` runs: a parent tree against a change.

Usage::

    python3 benchmarks/servebench_ab.py PARENT CHANGE --workload pool-repeat \
        --pairs 10 [--seed 11] [--claim cpu_ms_per_req]

``PARENT`` and ``CHANGE`` are checkout roots (export the parent with
``git archive <commit> | tar -x -C <dir>``).  The script deletes every
``__pycache__`` in both trees once (a stale one skews ``setup_s``), then
runs ``servebench/run.py --seconds 10`` from each root, alternating which
side goes first, and prints every result line as it arrives.  At the end it
prints, per end-to-end metric of ``BENCHMARK.json``: each side's median and
quartiles, the pairs the change won (ties count for neither side), the
verdict against the metric's bound and, for ``--claim``, whether the gain
rule holds (at least 9 of 10 pairs won, and a median gap larger than the
parent's interquartile range).

It uses the standard library only, and reads but never writes
``BENCHMARK.json`` and ``servebench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def pairs_won(parent: list[float], change: list[float], direction: str) -> int:
    """Pairs in which the change beat the parent; ties count for neither."""
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], direction: str) -> bool:
    """The claim rule: 9 of 10 pairs won, median gap beyond the parent's IQR."""
    q1, median, q3 = quartiles(parent)
    gap = statistics.median(change) - median
    if direction == "lower":
        gap = -gap
    return pairs_won(parent, change, direction) * 10 >= 9 * len(parent) and gap > q3 - q1


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """``ok``, ``worse`` (past the bound) or ``unresolved`` (too noisy to tell).

    The change is worse when its median is worse than the parent's by more
    than ``bound`` (a fraction of the parent's median).  A parent whose IQR
    exceeds the bound cannot tell, unless every change run beats every
    parent run.
    """
    q1, median, q3 = quartiles(parent)
    if all(better(c, p, direction) for c in change for p in parent):
        return "ok"
    if median and (q3 - q1) / abs(median) > bound:
        return "unresolved"
    worse_by = statistics.median(change) / median - 1.0 if median else 0.0
    if direction == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "ok"


def summarise(runs: list[dict], benchmark: dict, claim: str | None) -> list[str]:
    """The report lines for completed pairs (``runs``: one dict per pair)."""
    lines = []
    for metric in benchmark["end_to_end"]:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        p, c = quartiles(parent), quartiles(change)
        line = (
            f"{name:15s} parent {p[1]:10.4f} [{p[0]:.4f}, {p[2]:.4f}]  "
            f"change {c[1]:10.4f} [{c[0]:.4f}, {c[2]:.4f}]  "
            f"{(c[1] / p[1] - 1) * 100 if p[1] else 0.0:+6.1f}%  "
            f"won {pairs_won(parent, change, direction)}/{len(runs)}  "
            f"bound {verdict(parent, change, direction, bound)}"
        )
        if name == claim:
            line += f"  claim {'holds' if gain_holds(parent, change, direction) else 'fails'}"
        lines.append(line)
    for side in ("parent", "change"):
        failed = [run[side]["failed"] for run in runs]
        correct = all(run[side]["correct"] for run in runs)
        exhausted = [run[side]["exhausted"] for run in runs]
        lines.append(f"{side}: failed {failed}, correct {correct}, exhausted {exhausted}")
    return lines


def clear_pycache(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(root: Path, workload: str, seed: int | None) -> dict:
    """One ``servebench`` run from ``root``: its result line, plus ``exhausted``."""
    command = [sys.executable, "servebench/run.py", "--workload", workload,
               "--seconds", str(SECONDS)]
    if seed is not None:
        command += ["--seed", str(seed)]
    out = subprocess.run(command, cwd=root, capture_output=True, text=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"servebench printed no result from {root}:\n{out[-2000:]}")
    result = lines[-1]
    record = next((line["record"] for line in lines if "record" in line), {})
    result["exhausted"] = record.get("interference", {}).get("exhausted")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--claim", default=None, help="the end-to-end metric claimed")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in benchmark["end_to_end"]}
    if args.claim is not None and args.claim not in names:
        parser.error(f"--claim must be one of {sorted(names)}")
    for root in (args.parent, args.change):
        clear_pycache(root)
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        run = {}
        for side in order:
            run[side] = run_once(getattr(args, side), args.workload, args.seed)
            print(json.dumps({"pair": pair, "side": side, "result": run[side]}), flush=True)
        runs.append(run)
    print(f"{args.workload}, seed {args.seed}, {len(runs)} pairs (median [Q1, Q3])")
    for line in summarise(runs, benchmark, args.claim):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
