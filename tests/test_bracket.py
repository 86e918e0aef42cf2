"""Bracket polynomial engine against frozen values and the reference
state-sum in oracles.py."""

import pytest

from conftest import random_closed_word, random_knot_word
from morsewidth.bracket import (
    DELTA,
    MAX_STATE_SUM_CROSSINGS,
    LaurentPoly,
    jones_normalized,
    kauffman_bracket,
    writhe,
)
from morsewidth.errors import BudgetExceeded, ValidationError
from morsewidth.events import MorseWord, cap, cross, cup
from oracles import oracle_bracket, oracle_jones, oracle_writhe

UNKNOT = MorseWord([cup(1), cap(1)])
KINK_POS = MorseWord([cup(1), cross(1, +1), cap(1)])
KINK_NEG = MorseWord([cup(1), cross(1, -1), cap(1)])
TREFOIL = MorseWord([cup(1), cup(2), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1)])
FIGURE8 = MorseWord(
    [cup(1), cup(2), cup(3), cross(4, 1), cross(5, -1), cross(4, 1), cross(5, -1), cap(3), cap(2), cap(1)]
)


class TestLaurentPoly:
    def test_ring_axioms_smoke(self):
        a = LaurentPoly({3: 2, -1: 1})
        b = LaurentPoly({0: 1, 3: -2})
        assert (a + b).coefficients() == {-1: 1, 0: 1}  # A^3 terms cancel
        assert (a + b) - b == a
        assert a * b == b * a
        assert a * LaurentPoly.one() == a
        assert a * LaurentPoly.zero() == LaurentPoly.zero()
        assert (a * b).coefficients() == {3: 2, -1: 1, 6: -4, 2: -2}

    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({5: 0}) == LaurentPoly.zero()
        assert not LaurentPoly.zero()

    def test_power(self):
        assert DELTA**0 == LaurentPoly.one()
        assert DELTA**2 == DELTA * DELTA
        with pytest.raises(ValueError):
            DELTA ** (-1)

    def test_str(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.one()) == "1"
        assert str(DELTA) == "-A^2 - A^-2"
        assert str(LaurentPoly({3: 1, 0: -2})) == "A^3 - 2"

    def test_hashable(self):
        assert hash(LaurentPoly({1: 1})) == hash(LaurentPoly({1: 1}))


class TestFrozenValues:
    """Anchors computed independently by hand and by the reference
    implementation before being frozen here."""

    def test_unknot(self):
        assert kauffman_bracket(UNKNOT) == LaurentPoly.one()
        assert writhe(UNKNOT) == 0
        assert jones_normalized(UNKNOT) == LaurentPoly.one()

    def test_kinks_normalize_to_one(self):
        assert kauffman_bracket(KINK_POS) == LaurentPoly({-3: -1})
        assert writhe(KINK_POS) == -1
        assert jones_normalized(KINK_POS) == LaurentPoly.one()
        assert kauffman_bracket(KINK_NEG) == LaurentPoly({3: -1})
        assert writhe(KINK_NEG) == +1
        assert jones_normalized(KINK_NEG) == LaurentPoly.one()

    def test_trefoil_eight_state_sum(self):
        assert kauffman_bracket(TREFOIL) == LaurentPoly({-5: -1, 3: -1, 7: 1})
        assert kauffman_bracket(TREFOIL) != LaurentPoly.one()
        assert writhe(TREFOIL) == -3
        assert jones_normalized(TREFOIL) == LaurentPoly({4: 1, 12: 1, 16: -1})

    def test_figure8_palindromic(self):
        jones = jones_normalized(FIGURE8)
        assert writhe(FIGURE8) == 0
        assert jones == LaurentPoly({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1})
        # amphichiral: invariant under A -> A^-1
        assert jones == LaurentPoly({-e: c for e, c in jones.coefficients().items()})

    def test_connected_sum_multiplies_brackets(self):
        from morsewidth.invariants import connected_sum

        s = connected_sum(TREFOIL, FIGURE8)
        assert jones_normalized(s) == jones_normalized(TREFOIL) * jones_normalized(FIGURE8)


class TestAgainstReference:
    def test_bracket_fuzz(self, rng):
        for _ in range(100):
            w = random_closed_word(rng, max_events=18)
            if w.crossing_count > 7:
                continue
            assert kauffman_bracket(w).coefficients() == oracle_bracket(w)

    def test_writhe_and_jones_fuzz(self, rng):
        for _ in range(80):
            w = random_knot_word(rng, max_events=18, max_crossings=7)
            assert writhe(w) == oracle_writhe(w)
            assert jones_normalized(w).coefficients() == oracle_jones(w)


class TestBudget:
    def test_cap_is_18(self):
        assert MAX_STATE_SUM_CROSSINGS == 18

    def test_refuses_above_cap(self):
        events = [cup(1)] + [cross(1, 1)] * 19 + [cap(1)]
        with pytest.raises(BudgetExceeded):
            kauffman_bracket(MorseWord(events))

    def test_at_cap_not_refused_cheaply(self):
        # exactly 18 crossings must not raise on entry; use a word whose
        # state space collapses fast (all same-index kinks)
        events = [cup(1)] + [cross(1, 1)] * 18 + [cap(1)]
        out = kauffman_bracket(MorseWord(events))
        assert out == LaurentPoly({-3: -1}) ** 18


class TestGuards:
    def test_writhe_needs_knot(self):
        link = MorseWord([cup(1), cup(1), cap(1), cap(1)])
        with pytest.raises(ValidationError):
            writhe(link)
        with pytest.raises(ValidationError):
            jones_normalized(link)

    def test_bracket_accepts_links(self):
        link = MorseWord([cup(1), cup(1), cap(1), cap(1)])
        assert kauffman_bracket(link) == DELTA
