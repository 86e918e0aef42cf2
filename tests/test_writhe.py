"""Writhe by the direction-parity sweep against the independent walk in
oracles.py, on random knots, long torus plats, mirrors and single moves."""

import random

import pytest

from conftest import random_knot_word
from morsewidth.bracket import writhe
from morsewidth.catalog import torus_plat
from morsewidth.errors import ValidationError
from morsewidth.events import MorseWord, cap, cross, cup
from morsewidth.moves import WRITHE_CHANGING, apply_move, enumerate_moves
from oracles import oracle_writhe


def test_random_knots_match_oracle():
    rng = random.Random(5)
    for _ in range(1000):
        word = random_knot_word(rng, max_events=24, max_crossings=12)
        assert writhe(word) == oracle_writhe(word), word


@pytest.mark.parametrize("p,q", [(3, 40), (7, 6)])
def test_long_torus_plats_match_oracle(p, q):
    word = torus_plat(p, q)
    assert writhe(word) == oracle_writhe(word)


@pytest.mark.parametrize(
    "p,q", [(2, 3), (2, 9), (3, 4), (3, 7), (4, 5), (5, 2), (5, 6), (9, 2)]
)
def test_mirror_negates(p, q):
    assert writhe(torus_plat(p, q, +1)) == -writhe(torus_plat(p, q, -1))


def test_move_deltas():
    rng = random.Random(11)
    checked = {True: 0, False: 0}
    for _ in range(40):
        word = random_knot_word(rng, max_events=16, max_crossings=6)
        before = writhe(word)
        for move in enumerate_moves(word):
            delta = writhe(apply_move(word, move)) - before
            changing = move.kind in WRITHE_CHANGING
            assert delta in ((-1, 1) if changing else (0,)), (word, move, delta)
            checked[changing] += 1
    assert checked[True] and checked[False]


def test_hopf_link_refused():
    hopf = MorseWord([cup(1), cup(3), cross(2, 1), cross(2, 1), cap(3), cap(1)])
    assert hopf.component_count == 2
    with pytest.raises(ValidationError):
        writhe(hopf)
