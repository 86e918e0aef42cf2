"""Golden traces: exact search results and move-system output, pinned.

Each search below is pinned on its best word, the moves of its trace,
the number of positions it visited and its objective value.  ``visited``
depends on the enumeration order of the moves, on deduplication by
canonical key and on the seeded tiebreak, so a refactor of the move
rules or of the search loop that keeps these values has kept the
behaviour.  The move digest covers every move that ``enumerate_moves``
lists on a fixed set of random closed words, together with the word
``apply_move`` makes from it and the move ``inverse_move`` returns.
"""

import hashlib
import random

import pytest

from conftest import random_closed_word
from morsewidth.catalog import catalog, pad_with_fingers
from morsewidth.moves import apply_move, enumerate_moves, inverse_move
from morsewidth.search import (
    Objective,
    ObjectiveKind,
    SearchConfig,
    beam_search,
    exhaustive_min,
)

TREFOIL = "b1 b2 x3- x3- x3- d2 d1"
TWO_CANCELS = ("ZigZagCancel@3", "ZigZagCancel@2")


def pinned(result):
    return (
        str(result.best_word),
        tuple(str(m) for m in result.trace),
        result.visited,
        result.objective_value,
    )


BEAM_4_STEPS_8 = SearchConfig(beam_width=4, max_steps=8, insertion_budget=1, random_seed=9)
BEAM_8_STEPS_6 = SearchConfig(beam_width=8, max_steps=6, random_seed=9)


@pytest.mark.parametrize(
    "kind, config, expected",
    [
        (ObjectiveKind.GABAI_WIDTH, BEAM_4_STEPS_8, (TREFOIL, TWO_CANCELS, 990, (8,))),
        (ObjectiveKind.CRITICAL_COUNT, BEAM_4_STEPS_8, (TREFOIL, TWO_CANCELS, 990, (4,))),
        (ObjectiveKind.OTP_LEX, BEAM_4_STEPS_8, (TREFOIL, TWO_CANCELS, 990, ((4,), 8))),
        (ObjectiveKind.TRUNK_ONLY, BEAM_4_STEPS_8, (TREFOIL, TWO_CANCELS, 1089, (4,))),
        (ObjectiveKind.GABAI_WIDTH, BEAM_8_STEPS_6, (TREFOIL, TWO_CANCELS, 2726, (8,))),
        (ObjectiveKind.CRITICAL_COUNT, BEAM_8_STEPS_6, (TREFOIL, TWO_CANCELS, 2726, (4,))),
        (ObjectiveKind.OTP_LEX, BEAM_8_STEPS_6, (TREFOIL, TWO_CANCELS, 2726, ((4,), 8))),
        (ObjectiveKind.TRUNK_ONLY, BEAM_8_STEPS_6, (TREFOIL, TWO_CANCELS, 3003, (4,))),
    ],
)
def test_beam_on_twice_padded_trefoil(kind, config, expected):
    start = pad_with_fingers(catalog("trefoil_plat"), 2)
    assert pinned(beam_search(start, Objective(kind), config)) == expected


def test_beam_on_bt134():
    config = SearchConfig(beam_width=4, max_steps=2, insertion_budget=0)
    result = beam_search(catalog("bt134"), Objective(), config)
    assert pinned(result) == (
        "b1 b1 b1 b1 d2 d2 b1 b1 d2 d2 b1 b1 b1 d2 d2 d2 d2 d1",
        ("ZigZagCancel@4", "ZigZagCancel@8"),
        1470,
        (98,),
    )


@pytest.mark.parametrize(
    "radius, insertion_budget, visited",
    [(2, 0, 72), (2, 1, 112), (3, 0, 140), (3, 1, 904)],
)
def test_exhaustive_on_padded_trefoil(radius, insertion_budget, visited):
    result = exhaustive_min(
        catalog("padded_trefoil"), Objective(), radius=radius, insertion_budget=insertion_budget
    )
    assert pinned(result) == (TREFOIL, ("ZigZagCancel@2",), visited, (8,))


def test_move_system_digest():
    rng = random.Random(20171017)
    digest = hashlib.sha256()
    count = 0
    for _ in range(40):
        word = random_closed_word(rng, max_events=14)
        for move in enumerate_moves(word):
            out = apply_move(word, move)
            back = inverse_move(word, move)
            digest.update(f"{word}|{move}|{out}|{back}\n".encode())
            count += 1
    assert count == 4280
    assert digest.hexdigest() == (
        "9dfa1b66952ff54cbf9cdf438bb494d7c3a9d546934dee64c2a24754b44b74d0"
    )
