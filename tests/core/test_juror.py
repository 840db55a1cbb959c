"""Unit tests for the Juror and Jury domain model."""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.juror import Juror, Jury, jurors_from_arrays
from repro.errors import (
    EvenJurySizeError,
    InvalidErrorRateError,
    InvalidJuryError,
    InvalidRequirementError,
)


class TestJuror:
    def test_basic_construction(self):
        j = Juror(0.25, 0.5, juror_id="alice")
        assert j.error_rate == 0.25
        assert j.requirement == 0.5
        assert j.juror_id == "alice"

    def test_accuracy_complements_error_rate(self):
        j = Juror(0.3)
        assert j.accuracy == pytest.approx(0.7)

    def test_default_requirement_is_altruistic(self):
        assert Juror(0.2).is_altruistic

    def test_paid_juror_is_not_altruistic(self):
        assert not Juror(0.2, 0.01).is_altruistic

    def test_auto_generated_ids_are_unique(self):
        a, b = Juror(0.1), Juror(0.1)
        assert a.juror_id != b.juror_id

    def test_cost_quality_key_is_product(self):
        j = Juror(0.25, 0.4)
        assert j.cost_quality_key == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_rejects_error_rate_outside_open_interval(self, bad):
        with pytest.raises(InvalidErrorRateError):
            Juror(bad)

    def test_rejects_non_numeric_error_rate(self):
        with pytest.raises(InvalidErrorRateError):
            Juror("high")

    @pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf")])
    def test_rejects_bad_requirement(self, bad):
        with pytest.raises(InvalidRequirementError):
            Juror(0.2, bad)

    def test_zero_requirement_is_valid(self):
        assert Juror(0.2, 0.0).requirement == 0.0

    def test_rejects_empty_id(self):
        with pytest.raises(InvalidJuryError):
            Juror(0.2, juror_id="")

    def test_frozen(self):
        j = Juror(0.2)
        with pytest.raises(AttributeError):
            j.error_rate = 0.5

    def test_equality_and_hash(self):
        a = Juror(0.2, 0.1, juror_id="x")
        b = Juror(0.2, 0.1, juror_id="x")
        assert a == b
        assert hash(a) == hash(b)

    def test_trusted_juror_is_no_larger_than_a_constructed_one(self):
        """A trusted juror keeps the class's key-sharing dict: it takes no
        more memory than one built by the constructor, and equals it."""

        def footprint(make) -> float:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            jurors = [make(f"j{i}") for i in range(2000)]
            used = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.stop()
            del jurors
            return used / 2000

        constructed = footprint(lambda name: Juror(0.25, 1.5, juror_id=name))
        trusted = footprint(lambda name: Juror._trusted(0.25, 1.5, name))
        assert trusted <= constructed + 8
        a, b = Juror(0.25, 1.5, juror_id="a"), Juror._trusted(0.25, 1.5, "a")
        assert a == b and hash(a) == hash(b)
        assert sys.getsizeof(b.__dict__) <= sys.getsizeof(a.__dict__)
        assert list(vars(b)) == list(vars(a))

    def test_int_error_rate_rejected_at_bounds(self):
        with pytest.raises(InvalidErrorRateError):
            Juror(1)


class TestJury:
    def test_basic_construction(self):
        jury = Jury([Juror(0.1, juror_id="a"), Juror(0.2, juror_id="b"),
                     Juror(0.3, juror_id="c")])
        assert jury.size == 3
        assert jury.majority_threshold == 2

    def test_from_error_rates(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3])
        assert jury.size == 3
        np.testing.assert_allclose(jury.error_rates, [0.1, 0.2, 0.3])

    def test_from_error_rates_with_requirements(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        assert jury.total_cost == pytest.approx(6.0)

    def test_mismatched_requirement_length_rejected(self):
        with pytest.raises(InvalidJuryError):
            Jury.from_error_rates([0.1, 0.2, 0.3], [1.0])

    def test_empty_jury_rejected(self):
        with pytest.raises(InvalidJuryError):
            Jury([])

    def test_even_size_rejected_by_default(self):
        with pytest.raises(EvenJurySizeError):
            Jury([Juror(0.1, juror_id="a"), Juror(0.2, juror_id="b")])

    def test_even_size_allowed_when_requested(self):
        jury = Jury([Juror(0.1, juror_id="a"), Juror(0.2, juror_id="b")],
                    allow_even=True)
        assert jury.size == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidJuryError):
            Jury([Juror(0.1, juror_id="same"), Juror(0.2, juror_id="same"),
                  Juror(0.3, juror_id="other")])

    def test_non_juror_members_rejected(self):
        with pytest.raises(InvalidJuryError):
            Jury([0.1, 0.2, 0.3])  # type: ignore[list-item]

    def test_sequence_protocol(self):
        members = [Juror(0.1, juror_id="a"), Juror(0.2, juror_id="b"),
                   Juror(0.3, juror_id="c")]
        jury = Jury(members)
        assert len(jury) == 3
        assert list(jury) == members
        assert jury[0] == members[0]
        assert members[1] in jury

    def test_error_rates_view_is_readonly(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            jury.error_rates[0] = 0.9

    def test_requirements_view_is_readonly(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3], [1, 2, 3])
        with pytest.raises(ValueError):
            jury.requirements[0] = 0.0

    def test_total_cost(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3], [0.5, 0.25, 0.25])
        assert jury.total_cost == pytest.approx(1.0)

    def test_majority_threshold_examples(self):
        assert Jury.from_error_rates([0.1]).majority_threshold == 1
        assert Jury.from_error_rates([0.1] * 5).majority_threshold == 3
        assert Jury.from_error_rates([0.1] * 7).majority_threshold == 4

    def test_sorted_by_error_rate(self):
        jury = Jury.from_error_rates([0.3, 0.1, 0.2])
        ordered = jury.sorted_by_error_rate()
        np.testing.assert_allclose(ordered.error_rates, [0.1, 0.2, 0.3])

    def test_union(self):
        jury = Jury.from_error_rates([0.1])
        bigger = jury.union([Juror(0.2, juror_id="x"), Juror(0.3, juror_id="y")])
        assert bigger.size == 3

    def test_without(self):
        members = [Juror(0.1, juror_id="a"), Juror(0.2, juror_id="b"),
                   Juror(0.3, juror_id="c")]
        jury = Jury(members)
        smaller = jury.without(members[1])
        assert smaller.size == 2
        assert members[1] not in smaller

    def test_without_missing_member_raises(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3])
        with pytest.raises(InvalidJuryError):
            jury.without(Juror(0.5, juror_id="stranger"))

    def test_equality_is_set_based(self):
        a = Juror(0.1, juror_id="a")
        b = Juror(0.2, juror_id="b")
        c = Juror(0.3, juror_id="c")
        assert Jury([a, b, c]) == Jury([c, a, b])
        assert hash(Jury([a, b, c])) == hash(Jury([c, b, a]))

    def test_is_allowed_altrm(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3], [10, 10, 10])
        assert jury.is_allowed()  # AltrM: always allowed.

    def test_is_allowed_paym(self):
        jury = Jury.from_error_rates([0.1, 0.2, 0.3], [0.5, 0.3, 0.2])
        assert jury.is_allowed(budget=1.0)
        assert not jury.is_allowed(budget=0.9)

    def test_juror_ids(self):
        jury = Jury([Juror(0.1, juror_id="a"), Juror(0.2, juror_id="b"),
                     Juror(0.3, juror_id="c")])
        assert jury.juror_ids == ("a", "b", "c")


class TestJurorsFromArrays:
    def test_lengths_must_match(self):
        with pytest.raises(InvalidJuryError):
            jurors_from_arrays([0.1, 0.2], [0.5])

    def test_ids_use_prefix(self):
        cands = jurors_from_arrays([0.1, 0.2], id_prefix="u")
        assert [c.juror_id for c in cands] == ["u1", "u2"]

    def test_default_requirements_are_zero(self):
        cands = jurors_from_arrays([0.1, 0.2, 0.3])
        assert all(c.requirement == 0.0 for c in cands)

    def test_returns_plain_list(self):
        assert isinstance(jurors_from_arrays([0.5]), list)
