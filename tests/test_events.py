"""Word construction and validation."""

import pytest

from morsewidth.errors import ValidationError
from morsewidth.events import (
    EventKind,
    MorseEvent,
    MorseWord,
    TangleWord,
    cap,
    component_count,
    cross,
    cup,
    require_knot,
    validate,
)

TREFOIL = [cup(1), cup(2), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1)]


def codes(violations):
    return [v.code for v in violations]


class TestEvents:
    def test_constructors_and_tokens(self):
        assert cup(3).token() == "b3"
        assert cap(1).token() == "d1"
        assert cross(2, +1).token() == "x2+"
        assert cross(2, -1).token() == "x2-"

    def test_cross_requires_sign(self):
        with pytest.raises(ValueError):
            MorseEvent(EventKind.CROSS, 1, 0)
        with pytest.raises(ValueError):
            MorseEvent(EventKind.CUP, 1, 1)


class TestMorseWord:
    def test_counts(self):
        w = MorseWord(TREFOIL)
        assert w.counts == (0, 2, 4, 4, 4, 4, 2, 0)
        assert w.crossing_count == 3
        assert w.component_count == 1
        assert w.is_knot

    def test_str_round_trip_tokens(self):
        assert str(MorseWord(TREFOIL)) == "b1 b2 x3- x3- x3- d2 d1"

    def test_equality_and_hash(self):
        a, b = MorseWord(TREFOIL), MorseWord(list(TREFOIL))
        assert a == b and hash(a) == hash(b)
        assert a != MorseWord([cup(1), cap(1)])

    def test_two_component_link_accepted(self):
        w = MorseWord([cup(1), cup(1), cap(1), cap(1)])
        assert w.component_count == 2
        assert not w.is_knot
        with pytest.raises(ValidationError) as err:
            require_knot(w)
        assert codes(err.value.violations) == ["MultipleComponents"]

    def test_empty_word_rejected(self):
        with pytest.raises(ValidationError) as err:
            MorseWord([])
        assert codes(err.value.violations) == ["EmptyWord"]

    def test_bad_cup_index(self):
        with pytest.raises(ValidationError) as err:
            MorseWord([cup(2), cap(1)])
        assert "BadIndex" in codes(err.value.violations)

    def test_cup_index_zero(self):
        with pytest.raises(ValidationError) as err:
            MorseWord([cup(0), cap(1)])
        assert "BadIndex" in codes(err.value.violations)

    def test_cap_on_too_few_strands(self):
        with pytest.raises(ValidationError) as err:
            MorseWord([cap(1)])
        assert "NegativeCount" in codes(err.value.violations)

    def test_nonzero_end(self):
        with pytest.raises(ValidationError) as err:
            MorseWord([cup(1)])
        assert "NonzeroEnd" in codes(err.value.violations)

    def test_multiple_violations_collected(self):
        # bad cup index, then the cap still finds no strands
        with pytest.raises(ValidationError) as err:
            MorseWord([cup(0), cap(1)])
        assert len(err.value.violations) >= 2

    def test_violation_positions_are_event_indices(self):
        with pytest.raises(ValidationError) as err:
            MorseWord([cup(1), cross(5, 1), cap(1)])
        v = next(v for v in err.value.violations if v.code == "BadIndex")
        assert v.position == 1


class TestValidateFunction:
    def test_knot_flag(self):
        link = [cup(1), cup(1), cap(1), cap(1)]
        assert validate(link, knot=False) == []
        assert "MultipleComponents" in codes(validate(link, knot=True))

    @pytest.mark.parametrize(
        "events, boundary, knot",
        [([], -2, True), ([cup(1), cap(1)], -2, False), ([cross(1, 1), cap(2)], 3, False)],
    )
    def test_bad_boundary_is_refused_as_a_tangle_refuses_it(self, events, boundary, knot):
        expected = ["BadIndex at event 0: boundary strand count must be even and positive"]
        assert [str(v) for v in validate(events, boundary, knot=knot)] == expected
        with pytest.raises(ValidationError) as err:
            TangleWord(boundary, events)
        assert [str(v) for v in err.value.violations] == expected

    def test_component_count_helper(self):
        assert component_count(MorseWord(TREFOIL)) == 1


class TestTangleWord:
    def test_basic(self):
        t = TangleWord(4, [cross(1, 1), cross(2, 1), cap(2), cap(1)])
        assert t.boundary_strands == 4
        assert t.arc_count == 2
        assert t.counts == (4, 4, 4, 2, 0)
        assert str(t) == "tangle 4 x1+ x2+ d2 d1"

    def test_boundary_must_be_even_positive(self):
        for bad in (0, -2, 3):
            with pytest.raises(ValidationError):
                TangleWord(bad, [cap(1)])

    def test_closed_component_rejected(self):
        # the cup-cap pair closes a loop inside the tangle
        with pytest.raises(ValidationError) as err:
            TangleWord(2, [cup(1), cap(1), cap(1)])
        assert "MultipleComponents" in codes(err.value.violations)

    def test_must_end_at_zero(self):
        with pytest.raises(ValidationError) as err:
            TangleWord(4, [cap(1)])
        assert "NonzeroEnd" in codes(err.value.violations)

    def test_violations_in_event_order(self):
        # Loops close at events 1 and 5, around a bad index at event 2; the
        # end rule comes last.
        events = [cup(1), cap(1), cross(7, 1), cap(1), cup(1), cap(1)]
        expected = [
            "MultipleComponents at event 1: cap closes a component inside a tangle",
            "BadIndex at event 2: crossing index 7 outside 1..3",
            "MultipleComponents at event 5: cap closes a component inside a tangle",
            "NonzeroEnd at event 6: 2 strands left open",
        ]
        assert [str(v) for v in validate(events, 4, knot=False)] == expected
        with pytest.raises(ValidationError) as err:
            TangleWord(4, events)
        assert str(err.value) == "; ".join(expected)
