"""Move enumeration, the strand counts its scan sums, the ZigZagInsert
parameter order, and the identity hashes of the enum members that key the
move table and the search's delta fields."""

import random

import pytest

import morsewidth.moves as moves_mod
from conftest import random_closed_word, site_entries
from morsewidth.moves import MoveKind, _zigzag_insert_params, enumerate_moves
from morsewidth.search import ObjectiveKind


@pytest.mark.parametrize("strands_below", range(21))
def test_zigzag_insert_params_are_listed_sorted(strands_below):
    left = [(i, "left") for i in range(2, strands_below + 2)]
    right = [(i, "right") for i in range(1, strands_below + 1)]
    assert _zigzag_insert_params((), strands_below) == sorted(left + right)


def test_running_counts_equal_the_simulated_counts():
    rng = random.Random(2026)
    pairs = 0
    for _ in range(400):
        word = random_closed_word(rng)
        assert moves_mod._counts(word.events) == word.counts, str(word)
        moves = sum(len(found) for *_, found in site_entries(word))  # moves, not entries
        assert moves == len(enumerate_moves(word)), str(word)
        pairs += moves
    assert pairs > 10_000


@pytest.mark.parametrize("enum", [MoveKind, ObjectiveKind])
def test_enum_members_hash_by_identity(enum):
    members = list(enum)
    for a in members:
        assert hash(a) == object.__hash__(a)
        assert a != a.value and a != a.name
        for b in members:
            assert (a == b) is (a is b)
    assert len({*members, *members}) == len(members)
