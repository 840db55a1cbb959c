"""Native-vs-reference bit-identity and registry behaviour for ``repro.core.kernels``.

The native backend object is called side by side with the NumPy reference
object, from one-candidate shapes up; whole selections are compared with
native active and with it unavailable (the registry monkeypatched by the
``native_unavailable`` fixture).  Where native cannot activate on a host,
the tests that need it skip with the recorded reason.  The equivalence
contract is bit-identity (:data:`repro.testing.KERNEL_EQUIVALENCE_ULPS` is
pinned to zero): a backend that cannot reproduce NumPy's floating-point
results exactly is deactivated by its self-check, not tolerated by a
looser assertion here.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.jer import extend_pmf, prefix_jer_profile
from repro.core.juror import Juror
from repro.core.kernels._reference import NumpyBackend
from repro.core.kernels._verify import _SWEEP_SCALES, _reference_pay_scan
from repro.core.selection.altr import select_jury_altr
from repro.core.selection.exact import select_jury_optimal
from repro.core.selection.pay import run_pay_greedy
from repro.testing import KERNEL_EQUIVALENCE_ULPS

REFERENCE = NumpyBackend()

#: (batch, pool) shapes covering the sweep's odd/even and recursion edges.
SWEEP_SHAPES = ((1, 1), (2, 3), (3, 17), (1, 64), (2, 65), (1, 129), (1, 515))

#: Pool sizes from tiny scans through the pairwise regimes.
PAY_POOLS = (3, 7, 8, 13, 25, 120, 311)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes()


def _pool(rng, size: int) -> list[Juror]:
    eps = rng.uniform(0.02, 0.48, size=size)
    reqs = np.round(rng.uniform(0.5, 3.0, size=size), 3)
    return [
        Juror(float(e), float(r), juror_id=f"w{i}")
        for i, (e, r) in enumerate(zip(eps, reqs))
    ]


def _budget(jurors: list[Juror]) -> float:
    # Affordable by construction: at least the priciest single candidate,
    # so tiny pools cannot raise InfeasibleSelectionError.
    reqs = [j.requirement for j in jurors]
    return float(max(sum(reqs) / 4.0, max(reqs)))


def _fingerprint(result) -> tuple:
    return (
        result.juror_ids,
        result.jer.hex(),
        result.stats.juries_considered,
        result.stats.jer_evaluations,
    )


@st.composite
def sweep_rows(draw) -> np.ndarray:
    """1-3 rows of 1-260 error rates (every width mod 8), drawn from a mix
    of the self-check's scales, tiny through near 1; sorted or not."""
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 260))
    mask = draw(st.integers(1, 2 ** len(_SWEEP_SCALES) - 1))  # a non-empty mix
    scales = [scale for i, scale in enumerate(_SWEEP_SCALES) if mask >> i & 1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lows, highs = np.array(scales).T
    pick = rng.integers(len(scales), size=(b, n))
    eps = rng.uniform(lows[pick], highs[pick])
    return np.sort(eps, axis=1) if draw(st.booleans()) else eps


def test_equivalence_contract_is_bit_identity():
    assert KERNEL_EQUIVALENCE_ULPS == 0


class TestNativeMatchesReference:
    """The two backend objects called directly, below and past every crossover."""

    def test_sweep(self, native, rng):
        for batch, pool in SWEEP_SHAPES:
            eps = rng.uniform(0.01, 0.6, size=(batch, pool))
            assert _bits(REFERENCE.sweep(eps)) == _bits(native.sweep(eps)), (batch, pool)

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(eps=sweep_rows())
    def test_sweep_on_mixed_scales(self, native, eps):
        """Subnormal tails, near-1 rates and every vector remainder."""
        assert _bits(REFERENCE.sweep(eps)) == _bits(native.sweep(eps)), eps.shape

    @settings(
        max_examples=2000,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(patterns=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_float_reprs_on_raw_bit_patterns(self, native, patterns):
        """The printer writes ``float.__repr__``'s text for any finite double."""
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert native.float_reprs(values) == list(map(float.__repr__, values.tolist()))

    def test_float_reprs_through_the_registry(self):
        """The wire encoder's entry point: native or not, the same text."""
        values = [0.1, -0.0, 5e-324, 1e16, 9.999999999999999e-05, 2.0**46 + 0.125]
        assert kernels.float_reprs(values) == list(map(float.__repr__, values))
        assert kernels.float_reprs([]) == []
        assert "float_reprs" not in kernels.dispatch_counts()

    def test_convolve(self, native, rng):
        """The binding nothing dispatches: the self-check's hook on the fold
        behind ``bb_search``'s bound."""
        base = np.ones(1, dtype=np.float64)
        for e in rng.uniform(0.05, 0.45, size=12):
            base = extend_pmf(base, float(e))
        for k in (1, 9, 200):
            eps = rng.uniform(0.05, 0.45, size=k)
            assert _bits(REFERENCE.convolve(base, eps)) == _bits(
                native.convolve(base, eps)
            ), k

    def test_pay_scan(self, native, rng):
        for size in PAY_POOLS:
            eps = rng.uniform(0.02, 0.48, size=size)
            reqs = np.round(rng.uniform(0.5, 3.0, size=size), 3)
            order = np.argsort(eps * reqs, kind="stable")
            g_eps, g_req = eps[order], reqs[order]
            pmf = extend_pmf(np.ones(1), float(g_eps[0]))
            args = (g_eps, g_req, float(np.sum(reqs) / 4.0), 1, float(g_req[0]),
                    pmf, float(pmf[1]))
            ref = _reference_pay_scan(*args)
            got = native.pay_scan(*args)
            assert ref[0].tolist() == got[0].tolist(), size
            assert (ref[1].hex(), ref[2].hex()) == (got[1].hex(), got[2].hex()), size
            assert ref[3:] == got[3:], size


def _select_everything(rng) -> list[tuple]:
    """AltrM, PayM (both variants) and exact answers on pools of every regime."""
    answers = []
    for size in PAY_POOLS + (121,):
        jurors = _pool(rng, size)
        budget = _budget(jurors)
        answers.append(_fingerprint(select_jury_altr(jurors)))
        for variant in ("paper", "improved"):
            answers.append(_fingerprint(run_pay_greedy(jurors, budget, variant=variant)))
        ns, jers = prefix_jer_profile([j.error_rate for j in jurors])
        answers.append((ns.tolist(), _bits(jers)))
        # Exact only on small pools, where it enumerates.
        if size <= 13:
            answers.append(_fingerprint(select_jury_optimal(jurors, budget=budget)))
            answers.append(_fingerprint(select_jury_optimal(jurors)))
    return answers


class TestWholeSelections:
    def test_selections_match_with_native_unavailable(self, native, rng, request):
        seed_state = rng.bit_generator.state
        kernels.reset_dispatch_counters()
        with_native = _select_everything(rng)
        counts = kernels.dispatch_counts()
        # Every dispatch runs native, whatever the pool size; enumeration
        # dispatches nothing.
        assert set(counts) == {"sweep", "pay_scan"}
        assert {b for per_kernel in counts.values() for b in per_kernel} == {"native"}

        request.getfixturevalue("native_unavailable")
        rng.bit_generator.state = seed_state
        kernels.reset_dispatch_counters()
        without = _select_everything(rng)
        counts = kernels.dispatch_counts()
        assert {b for per_kernel in counts.values() for b in per_kernel} == {"numpy"}
        assert with_native == without


class TestRegistry:
    def test_stats_snapshot_shape(self):
        snapshot = kernels.stats_snapshot()
        assert set(snapshot) == {
            "active", "available", "unavailable", "dispatch", "lazy_activations",
        }
        assert snapshot["active"] in ("numpy", "native")
        assert "numpy" in snapshot["available"]
        assert snapshot["lazy_activations"] >= 0

    def test_active_native_has_no_unavailable_reason(self, native):
        snapshot = kernels.stats_snapshot()
        assert snapshot["active"] == "native"
        assert snapshot["available"] == ["native", "numpy"]
        assert snapshot["unavailable"] == {}

    def test_every_kernel_dispatches_native(self, native):
        assert kernels.KERNEL_NAMES == ("sweep", "pay_scan", "bb_search")
        for kernel in kernels.KERNEL_NAMES:
            assert kernels.backend_for(kernel) is native

    def test_unavailable_native_serves_the_reference_with_its_reason(
        self, native_unavailable
    ):
        assert kernels.backend_for("sweep").name == "numpy"
        assert kernels.ensure_ready() == "numpy"
        snapshot = kernels.stats_snapshot()
        assert snapshot["active"] == "numpy"
        assert snapshot["available"] == ["numpy"]
        assert snapshot["unavailable"] == {"native": "RuntimeError: disabled by test"}

    def test_failed_activation_records_the_reason(self, tmp_path, monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(blocker / "kernels"))
        monkeypatch.setattr(kernels, "_native_backend", kernels._UNPROBED)
        monkeypatch.setattr(kernels, "_native_reason", None)
        assert kernels.ensure_ready() == "numpy"
        reason = kernels.stats_snapshot()["unavailable"]["native"]
        assert reason.startswith("NotADirectoryError")
        assert kernels.backend_for("sweep").name == "numpy"

    def test_fresh_activation_dispatches_nothing(self, monkeypatch):
        """The self-check's reference runs are not served dispatches: a
        service that has answered nothing reports none."""
        from repro.api import JuryService

        monkeypatch.setattr(kernels, "_native_backend", kernels._UNPROBED)
        monkeypatch.setattr(kernels, "_native_reason", None)
        kernels.reset_dispatch_counters()
        service = JuryService()
        try:
            assert kernels.dispatch_counts() == {}
            assert service.stats()["kernels"]["dispatch"] == {}
        finally:
            service.close()

    def test_dispatch_counters_accumulate_per_kernel(self, rng):
        eps = rng.uniform(0.05, 0.6, size=41)
        kernels.reset_dispatch_counters()
        expected = kernels.ensure_ready()
        prefix_jer_profile(eps)
        prefix_jer_profile(eps)
        counts = kernels.dispatch_counts()
        assert counts["sweep"][expected] == 2


class TestColdStart:
    def test_engine_construction_precompiles_backends(self, monkeypatch):
        """The native activation must happen at engine construction (via
        ``ensure_ready``), never inside a query dispatch — so the compile
        cost cannot poison per-query timings or the engine's counters."""
        from repro.service.batch import BatchSelectionEngine, SelectionQuery

        # Forget the activation (restored afterwards): force a fresh one.
        monkeypatch.setattr(kernels, "_native_backend", kernels._UNPROBED)
        monkeypatch.setattr(kernels, "_lazy_activations", 0)
        engine = BatchSelectionEngine()
        assert engine.stats.kernel_backend == kernels.ensure_ready()
        # Activation happened eagerly above; the queries below must not
        # trigger a lazy (in-dispatch) compile.
        jurors = [Juror(0.1 + 0.02 * i, juror_id=f"w{i}") for i in range(25)]
        outcomes = engine.run([SelectionQuery(task_id="t0", candidates=jurors)])
        assert outcomes[0].ok
        assert kernels.lazy_activations() == 0

    def test_first_dispatch_without_ensure_ready_counts_as_lazy(self, native, monkeypatch):
        monkeypatch.setattr(kernels, "_native_backend", kernels._UNPROBED)
        monkeypatch.setattr(kernels, "_lazy_activations", 0)
        assert kernels.backend_for("sweep").name == "native"
        assert kernels.lazy_activations() == 1

    def test_service_stats_surface_kernel_block(self):
        from repro.api import JuryService

        service = JuryService()
        try:
            payload = service.stats()
        finally:
            service.close()
        assert payload["engine"]["kernel_backend"] == kernels.ensure_ready()
        block = payload["kernels"]
        assert block["active"] == kernels.ensure_ready()
        assert "dispatch" in block and "crossovers" not in block
        assert "requested" not in block and "env_note" not in block
