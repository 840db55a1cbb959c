"""Integration tests: every paper artefact regenerates with the right shape.

These run the bench-scale (``small``) configurations and assert the
*qualitative* findings of the paper — orderings, monotonicity, crossovers —
not absolute numbers (our substrate differs from the authors' testbed).
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro.core.selection.altr import select_jury_altr
from repro.experiments.fig3a import Fig3aConfig, run_fig3a
from repro.experiments.fig3b import Fig3bConfig, run_fig3b
from repro.experiments.fig3c import Fig3cConfig, run_fig3c
from repro.experiments.fig3d import run_fig3d
from repro.experiments.fig3e import Fig3eConfig, run_fig3e
from repro.experiments.fig3f import run_fig3f
from repro.experiments.fig3g import Fig3gConfig, run_fig3g
from repro.experiments.fig3h import Fig3hConfig, run_fig3h
from repro.experiments.fig3i import run_fig3i
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.table2 import TABLE2_ROWS, run_table2
from repro.synth.generators import generate_workload


class TestTable2:
    def test_reproduced_matches_paper_within_rounding(self):
        result = run_table2()
        reproduced = result.series_named("reproduced")
        printed = result.series_named("paper")
        for row in range(1, len(TABLE2_ROWS) + 1):
            ours = reproduced.y_at(row)
            paper = printed.y_at(row)
            # Row 6 is the paper's known misprint (0.0805 vs exact 0.0852).
            tolerance = 0.006 if row == 6 else 5e-4
            assert ours == pytest.approx(paper, abs=tolerance)

    def test_five_juror_crowd_is_best(self):
        result = run_table2()
        reproduced = result.series_named("reproduced")
        values = {p.note: p.y for p in reproduced.points}
        assert min(values, key=values.get) == "A,B,C,D,E"


class TestFig3a:
    def test_shape_collapse_above_half(self):
        result = run_fig3a(Fig3aConfig.small())
        tight = result.series_named("var(0.1)")
        # Below the 0.5 threshold the optimum uses many jurors; above it the
        # jury collapses to "the hands of the few".
        below = [tight.y_at(x) for x in (0.1, 0.3)]
        above = [tight.y_at(x) for x in (0.7, 0.9)]
        assert max(above) < max(below)
        assert min(above) <= 5

    def test_all_sizes_odd(self):
        result = run_fig3a(Fig3aConfig.small())
        for series in result.series:
            for point in series.points:
                assert int(point.y) % 2 == 1


def _fig3b_workloads(cfg: Fig3bConfig) -> dict[tuple[float, int], list]:
    """The candidate lists ``run_fig3b`` times, drawn in its order."""
    rng = np.random.default_rng(cfg.seed)
    return {
        (mean, n): list(
            generate_workload(
                n, eps_mean=float(mean), eps_variance=cfg.spread**2, rng=rng
            ).jurors
        )
        for mean in cfg.means
        for n in cfg.sizes
    }


class TestFig3b:
    def test_bound_helps_error_prone_population(self):
        cfg = Fig3bConfig(sizes=(300, 600), means=(0.1, 0.6), seed=32)
        n = 600
        # One wall-clock sample swings by 2x on a shared host; compare the
        # medians of repeated runs.
        runs = [run_fig3b(cfg) for _ in range(5)]

        def median_time(name: str) -> float:
            return statistics.median(run.series_named(name).y_at(n) for run in runs)

        # Pruning fires for the mean-0.6 population and must help there.
        assert median_time("m(0.6,b)") < median_time("m(0.6)")
        # For mean 0.1 the bound never applies; overhead must stay small.
        assert median_time("m(0.1,b)") < median_time("m(0.1)") * 1.5

        # The same effect through work counters, which no host can skew.
        workloads = _fig3b_workloads(cfg)

        def altr(mean: float, use_bound: bool):
            return select_jury_altr(
                workloads[mean, n],
                strategy="per-jury",
                jer_method=cfg.jer_method,
                use_bound=use_bound,
            ).stats

        prone, prone_plain = altr(0.6, True), altr(0.6, False)
        assert runs[0].series_named("m(0.6,b)").points[-1].note == (
            f"pruned={prone.pruned_by_bound}"
        )  # the experiment timed this very workload
        assert prone.pruned_by_bound > 0
        assert prone.jer_evaluations < prone_plain.jer_evaluations
        assert altr(0.1, True).pruned_by_bound == 0

    def test_time_grows_with_n(self):
        result = run_fig3b(Fig3bConfig.small())
        series = result.series_named("m(0.1)")
        assert series.ys == sorted(series.ys)


class TestFig3cAnd3d:
    def test_cost_never_exceeds_budget(self):
        result = run_fig3c(Fig3cConfig.small())
        for series in result.series:
            for point in series.points:
                assert point.y <= point.x + 1e-9

    def test_cost_monotone_in_budget(self):
        result = run_fig3c(Fig3cConfig.small())
        for series in result.series:
            assert series.ys == sorted(series.ys)

    def test_jer_monotone_decreasing_in_budget(self):
        result = run_fig3d(Fig3cConfig.small())
        for series in result.series:
            ys = series.ys
            assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))

    def test_lower_mean_population_dominates(self):
        """Paper: 'a candidate set with lower individual error-rates forms a
        better jury within the same budget'."""
        result = run_fig3d(Fig3cConfig.small())
        good = result.series_named("m(0.3)")
        bad = result.series_named("m(0.6)")
        for x in good.xs:
            assert good.y_at(x) <= bad.y_at(x) + 1e-12


class TestFig3eAnd3f:
    def test_opt_dominates_appx_on_jer(self):
        result = run_fig3f(Fig3eConfig.small())
        appx = result.series_named("APPX")
        opt = result.series_named("OPT")
        for x in appx.xs:
            assert opt.y_at(x) <= appx.y_at(x) + 1e-12

    def test_costs_within_budget(self):
        result = run_fig3e(Fig3eConfig.small())
        for series in result.series:
            for point in series.points:
                assert point.y <= point.x + 1e-9

    def test_opt_jer_monotone_in_budget(self):
        result = run_fig3f(Fig3eConfig.small())
        ys = result.series_named("OPT").ys
        assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))


class TestFig3g:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3g(Fig3gConfig.small())

    def test_all_series_present(self, result):
        names = {s.name for s in result.series}
        assert names == {"HT", "HT-B", "PR", "PR-B"}

    def test_bounding_prunes_on_normalised_data(self, result):
        """After Section 4.1.3 normalisation most users sit near error rate
        1, so the lower bound fires and the -B series run faster at scale."""
        largest = max(result.series_named("HT").xs)
        assert result.series_named("HT-B").y_at(largest) <= result.series_named(
            "HT"
        ).y_at(largest)
        assert result.series_named("PR-B").y_at(largest) <= result.series_named(
            "PR"
        ).y_at(largest)

    def test_time_grows_with_candidates(self, result):
        for name in ("HT", "PR"):
            ys = result.series_named(name).ys
            assert ys == sorted(ys)


class TestFig3hAnd3i:
    @pytest.fixture(scope="class")
    def cfg(self):
        return Fig3hConfig.small()

    def test_precision_recall_in_unit_interval(self, cfg):
        result = run_fig3h(cfg)
        for series in result.series:
            for point in series.points:
                assert 0.0 <= point.y <= 1.0

    def test_sizes_odd_and_positive(self, cfg):
        result = run_fig3i(cfg)
        for series in result.series:
            for point in series.points:
                assert point.y >= 1
                assert int(point.y) % 2 == 1

    def test_true_sizes_never_larger_jer(self, cfg):
        """The OPT jury's JER lower-bounds PayALG's on the same workload."""
        from repro.experiments.fig3h import paym_twitter_sweep

        records = paym_twitter_sweep(cfg)
        for rows in records.values():
            for row in rows:
                assert row["opt_jer"] <= row["appx_jer"] + 1e-12


class TestRunnerDispatch:
    def test_all_ids_registered(self):
        expected = {
            "table2",
            "fig3a",
            "fig3b",
            "fig3c",
            "fig3d",
            "fig3e",
            "fig3f",
            "fig3g",
            "fig3h",
            "fig3i",
            "ablation-bounds",
            "ablation-weighted",
            "ablation-adaptive",
            "ablation-planner",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig9z")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            run_experiment("table2", scale="galactic")

    def test_table2_runs_via_dispatcher(self):
        result = run_experiment("table2", scale="small")
        assert result.experiment_id == "table2"

    def test_cli_main_table2(self, capsys):
        from repro.experiments.runner import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "completed" in out
