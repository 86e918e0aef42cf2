"""Budgeted move enumeration, the strand counts its scan sums, the
ZigZagInsert parameter order, and the identity hashes of the enum members
that key sets and dicts."""

import random

import pytest

import morsewidth.moves as moves_mod
from conftest import random_closed_word
from morsewidth.events import EventKind
from morsewidth.moves import LENGTH_DELTA, MoveKind, _zigzag_insert_params, enumerate_moves
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
        codes = moves_mod._encode(word.events)
        assert moves_mod._counts(codes) == word.counts, str(word)
        entries = list(moves_mod._sites(codes, None))
        assert all(n == word.counts[k] for k, n, *_ in entries), str(word)
        pairs += sum(len(found) for *_, found in entries)  # moves, not entries
    assert pairs > 10_000


@pytest.mark.parametrize("max_delta", range(-2, 3))
def test_budget_drops_exactly_the_kinds_over_it(max_delta):
    rng = random.Random(40 + max_delta)
    for _ in range(40):
        word = random_closed_word(rng, max_events=18)
        every = enumerate_moves(word)
        expected = [m for m in every if LENGTH_DELTA[m.kind] <= max_delta]
        assert enumerate_moves(word, max_delta=max_delta) == expected
    assert enumerate_moves(word, max_delta=None) == every


@pytest.mark.parametrize("enum", [EventKind, MoveKind, ObjectiveKind])
def test_enum_members_hash_by_identity(enum):
    members = list(enum)
    for a in members:
        assert hash(a) == object.__hash__(a)
        assert a != a.value and a != a.name
        for b in members:
            assert (a == b) is (a is b)
    assert len({*members, *members}) == len(members)
