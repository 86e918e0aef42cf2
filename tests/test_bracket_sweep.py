"""The level-sweep bracket against the state-sum oracle, on wide words,
and on 13-18-crossing knots that a state sum could not afford: there
against the torus knots' closed form, and by its algebraic properties."""

import random

import pytest

import morsewidth.bracket as bracket_mod
from morsewidth.bracket import LaurentPoly, jones_normalized, kauffman_bracket
from morsewidth.catalog import catalog, torus_plat
from morsewidth.invariants import connected_sum
from morsewidth.moves import MoveKind, apply_move, enumerate_moves
from morsewidth.textio import parse

from conftest import random_closed_word, random_knot_word, spy
from oracles import oracle_bracket, oracle_jones, oracle_torus_jones

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


def _inserted_and_scrambled(word, rng):
    """One seeded R1 or R2 insertion that stays within 18 crossings, then
    seeded moves that keep the crossing count."""
    inserts = {MoveKind.R1_INSERT}
    if word.crossing_count <= 16:
        inserts.add(MoveKind.R2_INSERT)
    scramble = {MoveKind.COMMUTE_DISTANT, MoveKind.YANG_BAXTER, MoveKind.ZIGZAG_INSERT,
                MoveKind.ZIGZAG_CANCEL}
    for kinds in [inserts] + [scramble] * 6:
        word = apply_move(word, rng.choice([m for m in enumerate_moves(word) if m.kind in kinds]))
    return word


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (2, 9), (5, 2)])
def test_torus_closed_form_matches_the_state_sum(p, q):
    assert oracle_jones(torus_plat(p, q)) == oracle_torus_jones(p, q)


@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("p,q", BIG_TORUS)
def test_big_torus_jones_closed_form(p, q, sign):
    expected = LaurentPoly(oracle_torus_jones(p, q))
    if sign > 0:
        expected = mirror(expected)
    word = torus_plat(p, q, sign)
    copy = _inserted_and_scrambled(word, random.Random(f"{p} {q} {sign}"))
    assert copy.events != word.events
    assert word.crossing_count < copy.crossing_count <= 18
    assert jones_normalized(word) == expected
    assert jones_normalized(copy) == expected, str(copy)


@pytest.mark.parametrize("p,q,joins", [(9, 2, 8835), (7, 2, 1234), (3, 5, 49)])
def test_join_count(monkeypatch, p, q, joins):
    # Every state that enters a crossing or a cap is joined once, so this is
    # the number of states the sweep carries through them.
    calls = spy(monkeypatch, "_join", bracket_mod)
    kauffman_bracket(torus_plat(p, q))
    assert len(calls) == joins
