"""The verdict logic of ``benchmarks/servebench_ab.py``, on canned results.

No server is started: the pairs below are made-up result lines.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("servebench_ab", ROOT / "benchmarks" / "servebench_ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [0.164, 0.160, 0.170, 0.166, 0.162, 0.168, 0.165, 0.161, 0.167, 0.163]


class TestGainRule:
    def test_a_clear_gain_holds(self):
        change = [value * 0.55 for value in PARENT]
        assert ab.pairs_won(PARENT, change, "lower") == 10
        assert ab.gain_holds(PARENT, change, "lower")

    def test_eight_of_ten_pairs_is_not_enough(self):
        change = [value * 0.5 for value in PARENT[:8]] + [1.0, 1.0]
        assert ab.pairs_won(PARENT, change, "lower") == 8
        assert not ab.gain_holds(PARENT, change, "lower")

    def test_ties_count_for_neither_side(self):
        change = list(PARENT[:2]) + [value * 0.5 for value in PARENT[2:]]
        assert ab.pairs_won(PARENT, change, "lower") == 8
        assert ab.pairs_won(change, PARENT, "lower") == 0

    def test_a_gap_inside_the_parents_iqr_fails(self):
        change = [value - 0.001 for value in PARENT]  # wins every pair, by little
        assert ab.pairs_won(PARENT, change, "lower") == 10
        assert not ab.gain_holds(PARENT, change, "lower")

    def test_higher_is_better_metrics(self):
        rps = [4500.0 + 10 * i for i in range(10)]
        assert ab.gain_holds(rps, [value * 1.5 for value in rps], "higher")
        assert not ab.gain_holds(rps, [value * 0.7 for value in rps], "higher")


class TestBoundVerdict:
    def test_within_the_bound_is_ok(self):
        assert ab.verdict(PARENT, [value * 1.1 for value in PARENT], "lower", 0.25) == "ok"

    def test_past_the_bound_is_worse(self):
        assert ab.verdict(PARENT, [value * 1.3 for value in PARENT], "lower", 0.25) == "worse"
        rps = [1000.0 + i for i in range(10)]
        assert ab.verdict(rps, [value * 0.7 for value in rps], "higher", 0.25) == "worse"

    def test_a_noisy_parent_is_unresolved(self):
        noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        assert ab.verdict(noisy, [1.5] * 10, "lower", 0.25) == "unresolved"

    def test_unless_every_change_run_beats_every_parent_run(self):
        noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        assert ab.verdict(noisy, [0.9] * 10, "lower", 0.25) == "ok"


def _result(values: dict, failed: int = 0) -> dict:
    return {
        "correct": failed == 0,
        "failed": failed,
        "exhausted": False,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def test_summary_reports_every_metric_and_the_claim():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    runs = [
        {
            "parent": _result({name: cpu * 10 if name != "cpu_ms_per_req" else cpu
                               for name in names}),
            "change": _result({name: cpu * 10 if name != "cpu_ms_per_req" else cpu / 2
                               for name in names}),
        }
        for cpu in PARENT
    ]
    lines = ab.summarise(runs, benchmark, "cpu_ms_per_req")
    assert len(lines) == len(names) + 2
    (cpu_line,) = [line for line in lines if line.startswith("cpu_ms_per_req")]
    assert "won 10/10" in cpu_line and "claim holds" in cpu_line
    assert "bound ok" in cpu_line
    assert all("claim" not in line for line in lines if line is not cpu_line)
    assert lines[-1].startswith("change: failed [0, 0")


@pytest.mark.parametrize("values", [[0.5], [0.4, 0.6]])
def test_quartiles_of_short_samples(values):
    q1, median, q3 = ab.quartiles(values)
    assert q1 <= median <= q3
