"""JuryService: one dispatch path, bit-identical to the engine underneath."""

from __future__ import annotations

import pytest

from repro.api import (
    ErrorInfo,
    JuryService,
    PoolCommand,
    SelectionRequest,
)
from repro.core.juror import Juror
from repro.core.selection.altr import select_jury_altr
from repro.core.selection.pay import select_jury_pay
from repro.errors import InvalidJuryError, PoolNotFoundError
from repro.plan import execute_plan, plan_query
from repro.service import (
    BatchSelectionEngine,
    PoolRegistry,
    QueryOutcome,
    SelectionQuery,
)

FIGURE1 = [
    ("A", 0.1, 0.20),
    ("B", 0.2, 0.20),
    ("C", 0.2, 0.20),
    ("D", 0.3, 0.40),
    ("E", 0.3, 0.65),
    ("F", 0.4, 0.10),
    ("G", 0.4, 0.10),
]


def _jurors() -> tuple[Juror, ...]:
    return tuple(Juror(eps, req, juror_id=cid) for cid, eps, req in FIGURE1)


class TestSelect:
    def test_select_matches_scalar_selector(self):
        response = JuryService().select(
            SelectionRequest(task_id="t", candidates=_jurors())
        )
        expected = select_jury_altr(list(_jurors()))
        assert response.status == "ok"
        assert response.jer == expected.jer
        assert tuple(j.juror_id for j in response.members) == expected.juror_ids
        assert response.model == "AltrM"

    def test_select_many_mixed_models(self):
        service = JuryService()
        responses = service.select_many(
            [
                SelectionRequest(task_id="a", candidates=_jurors()),
                SelectionRequest(
                    task_id="p", candidates=_jurors(), model="pay", budget=1.0
                ),
                SelectionRequest(
                    task_id="e", candidates=_jurors(), model="exact", budget=1.0
                ),
            ]
        )
        assert [r.status for r in responses] == ["ok"] * 3
        assert responses[1].jer == select_jury_pay(list(_jurors()), budget=1.0).jer
        assert responses[2].algorithm.startswith("OPT")
        assert responses[2].jer <= responses[1].jer + 1e-12

    def test_explain_embeds_plan_without_executing(self):
        service = JuryService()
        response = service.explain(
            SelectionRequest(task_id="t", candidates=_jurors())
        )
        assert response.status == "ok" and not response.members
        assert response.plan["operator"] == "altr-sweep"
        assert service.engine.stats.queries_run == 0

    def test_explain_flag_inside_select_many(self):
        service = JuryService()
        responses = service.select_many(
            [
                SelectionRequest(task_id="run", candidates=_jurors()),
                SelectionRequest(task_id="plan", candidates=_jurors(), explain=True),
            ]
        )
        assert responses[0].members and responses[0].plan is None
        assert responses[1].plan is not None and not responses[1].members

    def test_error_response_carries_stable_code(self):
        response = JuryService().select(
            SelectionRequest(task_id="t", pool="ghost")
        )
        assert response.status == "error"
        assert response.error.code == "pool-not-found"
        assert "ghost" in response.error.message

    def test_one_bad_request_does_not_poison_the_batch(self):
        pricey = (Juror(0.2, 9.0, juror_id="x"),)
        responses = JuryService().select_many(
            [
                SelectionRequest(task_id="ok", candidates=_jurors()),
                SelectionRequest(
                    task_id="bad", candidates=pricey, model="pay", budget=1.0
                ),
            ]
        )
        assert responses[0].status == "ok"
        assert responses[1].status == "error"
        assert responses[1].error.code == "infeasible-selection"


class TestPoolCommands:
    def _create(self, service, name="P1"):
        return service.pool(
            PoolCommand(action="create", name=name, candidates=_jurors())
        )

    def test_create_select_and_version_echo(self):
        service = JuryService()
        ack = self._create(service)
        assert ack["ok"] and ack["version"] == 0 and ack["size"] == 7
        response = service.select(SelectionRequest(task_id="t", pool="P1"))
        assert response.status == "ok" and response.pool_version == 0

    def test_update_bumps_version_and_changes_answers(self):
        service = JuryService()
        self._create(service)
        before = service.select(SelectionRequest(task_id="b", pool="P1"))
        ack = service.pool(
            PoolCommand(
                action="update",
                name="P1",
                add=(Juror(0.01, juror_id="ace"),),
            )
        )
        assert ack["version"] == 1
        after = service.select(SelectionRequest(task_id="a", pool="P1"))
        assert after.pool_version == 1
        assert after.jer < before.jer
        assert "ace" in [j.juror_id for j in after.members]

    def test_update_is_atomic(self):
        service = JuryService()
        self._create(service)
        with pytest.raises(InvalidJuryError, match="ghost"):
            service.pool(
                PoolCommand(action="update", name="P1", remove=("A", "ghost"))
            )
        assert service.registry.get("P1").version == 0
        assert service.registry.get("P1").size == 7

    @pytest.mark.parametrize(
        "fields, version",
        [
            ({"remove": ("A",), "add": (Juror(0.35, juror_id="A"),)}, 2),
            ({"add": (Juror(0.35, juror_id="new"),), "updates": (("new", 0.05, 1.0),)}, 2),
            ({"remove": ("B",), "add": (Juror(0.3, juror_id="B"),),
              "updates": (("B", None, 2.0),)}, 3),
            ({"remove": ("A", "A")}, None),
            ({"remove": ("A",), "updates": (("A", 0.15, None),)}, None),
            ({"add": (Juror(0.35, juror_id="new"), Juror(0.4, juror_id="new"))}, None),
        ],
        ids=["remove+add", "add+set", "remove+add+set", "remove-twice", "remove+set",
             "add-twice"],
    )
    def test_update_steps_see_the_earlier_steps(self, fields, version):
        """Each step is validated against the membership the steps before it
        leave: a rejected command applies nothing."""
        service = JuryService()
        self._create(service)
        command = PoolCommand(action="update", name="P1", **fields)
        if version is None:
            with pytest.raises(InvalidJuryError):
                service.pool(command)
            assert service.registry.get("P1").version == 0
        else:
            assert service.pool(command)["version"] == version

    def test_set_entry_errors_name_their_position(self):
        service = JuryService()
        self._create(service)
        with pytest.raises(InvalidJuryError, match=r"set entry #0"):
            service.pool(
                PoolCommand(
                    action="update", name="P1", updates=(("A", 7.0, None),)
                )
            )

    def test_partial_set_keeps_other_field(self):
        service = JuryService()
        self._create(service)
        service.pool(
            PoolCommand(action="update", name="P1", updates=(("A", 0.15, None),))
        )
        juror = service.registry.get("P1").get("A")
        assert juror.error_rate == 0.15 and juror.requirement == 0.20

    def test_drop_then_select_fails_with_code(self):
        service = JuryService()
        self._create(service)
        service.pool(PoolCommand(action="drop", name="P1"))
        with pytest.raises(PoolNotFoundError):
            service.registry.get("P1")
        response = service.select(SelectionRequest(task_id="t", pool="P1"))
        assert response.error.code == "pool-not-found"

    def test_stats_payload(self):
        service = JuryService()
        self._create(service)
        service.select(SelectionRequest(task_id="t", pool="P1"))
        stats = service.stats()
        assert stats["pools"]["P1"] == {"version": 0, "size": 7}
        assert stats["queries_run"] == 1
        # Every counter block is surfaced: in-pass profile reuse, planner
        # memo, answer frontier, and the engine's work counters.  The named
        # select above built its pool's frontier.
        assert stats["cache"] == {"hits": 0, "misses": 0}
        assert {"hits", "misses", "entries", "maxsize"} <= stats["planner"].keys()
        assert stats["frontier"] == {"hits": 0, "builds": 1}
        assert stats["engine"]["queries_run"] == 1
        assert set(stats["engine"]) == {
            "queries_run", "batch_sweeps", "pools_swept", "frontier_hits",
            "kernel_backend",
        }
        # frontier.builds is the one count of versions built: no alias.
        assert "live_profiles" not in stats
        # One execution path: no scheduler, shard or worker blocks.
        assert not {"scheduler", "shards", "workers", "in_process"} & stats.keys()

    def test_stats_frontier_block_counts_every_mode(self):
        """Each named select lands in the counter of the mode its pool's
        frontier took: the first select of every version builds it whole,
        whether churn hit the sorted tail or the head, and a repeat hits;
        every answer is the plan pipeline's on a snapshot of the version."""
        service = JuryService()
        self._create(service)
        for task, updates in [
            ("built", ()),
            ("cached", ()),
            ("tail-churn", (("G", 0.45, None),)),
            ("head-churn", (("A", 0.05, None),)),
        ]:
            if updates:
                service.pool(PoolCommand(action="update", name="P1", updates=updates))
            response = service.select(SelectionRequest(task_id=task, pool="P1"))
            live = service.registry.get("P1")
            expected = execute_plan(plan_query(pool=live.snapshot(), model="altr"))
            assert response.jer == expected.jer
            assert [m.juror_id for m in response.members] == list(expected.juror_ids)
            assert response.pool_version == live.version
        stats = service.stats()
        assert stats["frontier"] == {"hits": 1, "builds": 3}
        assert stats["engine"]["frontier_hits"] == 1
        assert service.registry.get("P1").stats.frontier_builds == 3


class TestOverflowingCost:
    """Requirements whose sum overflows: JSON has no ``Infinity``, so the
    select is an ``invalid-requirement`` error on every path, and AltrM
    answers it with no NumPy warning.  The library's result keeps its
    ``inf``."""

    HUGE = tuple(Juror(0.1 * k, 1e308, juror_id=f"h{k}") for k in (1, 2, 3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "source", ["inline", "named", "exact", "exact-enumerate", "exact-branch-and-bound"]
    )
    def test_select_is_an_error(self, source):
        service = JuryService()
        if source == "named":
            service.pool(PoolCommand(action="create", name="H", candidates=self.HUGE))
            request = SelectionRequest(task_id="t", pool="H")
        elif source.startswith("exact"):
            method = source.removeprefix("exact").lstrip("-") or "auto"
            request = SelectionRequest(
                task_id="t", candidates=self.HUGE, model="exact", method=method
            )
        else:
            request = SelectionRequest(task_id="t", candidates=self.HUGE)
        for response in (service.select(request), service.select_many([request])[0]):
            assert response.status == "error"
            assert response.error.code == "invalid-requirement"
            assert "overflows" in response.error.message
            assert "Infinity" not in response.to_json()
        service.close()

    def test_library_result_keeps_inf(self):
        with pytest.warns(RuntimeWarning):
            assert select_jury_altr(list(self.HUGE)).total_cost == float("inf")


class TestConstruction:
    def test_adopts_engine_with_registry(self):
        registry = PoolRegistry()
        engine = BatchSelectionEngine(registry=registry)
        service = JuryService(engine=engine)
        assert service.engine is engine and service.registry is registry

    def test_rejects_engine_without_registry(self):
        with pytest.raises(ValueError, match="registry"):
            JuryService(engine=BatchSelectionEngine())

    def test_rejects_conflicting_engine_and_options(self):
        engine = BatchSelectionEngine(registry=PoolRegistry())
        with pytest.raises(ValueError, match="not both"):
            JuryService(engine=engine, data_dir="unused")


class TestOutcomeErrorInfo:
    def test_failed_outcome_threads_exception_into_error_info(self):
        """The engine threads the failure exception through
        QueryOutcome.exception; error_info carries the registry code."""
        engine = BatchSelectionEngine()
        pricey = (Juror(0.2, 9.0, juror_id="x"),)
        outcome = engine.run(
            [SelectionQuery(task_id="bad", candidates=pricey, model="pay", budget=1.0)]
        )[0]
        assert not outcome.ok
        assert isinstance(outcome.exception, Exception)
        info = outcome.error_info
        assert isinstance(info, ErrorInfo)
        assert info.code == "infeasible-selection"
        assert "affordable" in info.message

    def test_legacy_flat_error_string_is_gone(self):
        """The deprecated QueryOutcome.error message string was removed
        after its one-release window; error_info is the one error surface."""
        outcome = QueryOutcome(task_id="t")
        assert not hasattr(outcome, "error")

    def test_ok_outcome_has_no_error_info(self):
        engine = BatchSelectionEngine()
        outcome = engine.run(
            [SelectionQuery(task_id="ok", candidates=_jurors())]
        )[0]
        assert outcome.ok and outcome.error_info is None
