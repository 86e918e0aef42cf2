"""The level-sweep bracket against the state-sum oracle, on wide words,
and on 13-18-crossing knots that a state sum could not afford."""

import random

import pytest

from morsewidth.bracket import LaurentPoly, jones_normalized, kauffman_bracket
from morsewidth.catalog import catalog, torus_plat
from morsewidth.invariants import connected_sum
from morsewidth.textio import parse

from conftest import random_closed_word, random_knot_word
from oracles import oracle_bracket

# (p, q) with gcd 1 and 13 to 18 crossings; trunk 2p runs from 4 to 18.
BIG_TORUS = [(2, 13), (2, 15), (2, 17), (3, 7), (3, 8), (4, 5), (5, 4), (9, 2)]


def mirror(poly: LaurentPoly) -> LaurentPoly:
    """A -> A^-1."""
    return LaurentPoly({-e: c for e, c in poly.coefficients().items()})


def test_fuzz_against_state_sum():
    rng = random.Random(20261018)
    checked = links = 0
    while checked < 300:
        w = random_closed_word(rng, max_events=rng.randint(4, 28))
        if w.crossing_count > 9:
            continue
        assert kauffman_bracket(w).coefficients() == oracle_bracket(w), str(w)
        checked += 1
        links += w.component_count > 1
    assert links > 0


def test_more_than_255_strands():
    word = parse("b1 " * 140 + "x1+ x2- x1+ " + "d1 " * 140)
    assert max(word.counts) == 280
    assert kauffman_bracket(word).coefficients() == oracle_bracket(word)


@pytest.mark.parametrize("p,q", BIG_TORUS)
def test_mirror_inverts_a(p, q):
    assert kauffman_bracket(torus_plat(p, q, +1)) == mirror(
        kauffman_bracket(torus_plat(p, q, -1))
    )


@pytest.mark.parametrize(
    "a,b",
    [
        (torus_plat(2, 7), torus_plat(3, 4)),
        (torus_plat(2, 9), torus_plat(2, 7, +1)),
        (torus_plat(3, 4), torus_plat(3, 5)),
        (catalog("figure8_plat"), torus_plat(3, 5, +1)),
    ],
)
def test_connected_sum_multiplies_jones(a, b):
    total = connected_sum(a, b)
    assert 13 <= total.crossing_count <= 18
    assert jones_normalized(total) == jones_normalized(a) * jones_normalized(b)


def _big_knots():
    words = [torus_plat(p, q, s) for p, q in BIG_TORUS for s in (+1, -1)]
    rng = random.Random(4)
    while len(words) < 24:
        w = random_knot_word(rng, max_events=44, max_crossings=18)
        if w.crossing_count >= 13:
            words.append(w)
    return words


def test_jones_at_one_and_exponents():
    for w in _big_knots():
        assert 13 <= w.crossing_count <= 18
        coeffs = jones_normalized(w).coefficients()
        assert sum(coeffs.values()) == 1, str(w)
        assert all(e % 4 == 0 for e in coeffs), str(w)
