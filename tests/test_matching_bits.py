"""The bracket sweep's int matchings (bit k is 1 when strand k's partner
lies above it) against partner arrays: every crossingless matching of at
most 12 strands, every position."""

import pytest

from morsewidth.bracket import _cap, _cup, _join, _partner

from oracles import oracle_cap, oracle_cup, oracle_dyck, oracle_join, oracle_matchings

SIZES = range(0, 14, 2)


def test_matchings_are_catalan_many():
    assert [len(oracle_matchings(n)) for n in SIZES] == [1, 1, 2, 5, 14, 42, 132]


@pytest.mark.parametrize("n", SIZES)
def test_partner(n):
    for m in oracle_matchings(n):
        x = oracle_dyck(m)
        assert [_partner(x, k) for k in range(n)] == m


@pytest.mark.parametrize("n", SIZES)
def test_cup(n):
    for m in oracle_matchings(n):
        x = oracle_dyck(m)
        for i in range(n + 1):
            assert _cup(x, i) == oracle_dyck(oracle_cup(m, i)), (m, i)


@pytest.mark.parametrize("n", SIZES[1:])
def test_join_and_cap(n):
    pairs = set()  # bits i, i+1 of the matchings tried
    for m in oracle_matchings(n):
        x = oracle_dyck(m)
        for i in range(n - 1):
            joined, loop = oracle_join(m, i)
            assert _join(x, i) == (oracle_dyck(joined), loop), (m, i)
            capped, loop = oracle_cap(m, i)
            assert _cap(x, i) == (oracle_dyck(capped), loop), (m, i)
            pairs.add((x >> i & 1, x >> (i + 1) & 1))
    # Every case of _join: 1, 0 closes a loop; 0, 1 and 1, 1 and 0, 0 do not.
    assert pairs == ({(1, 0)} if n == 2 else {(1, 0), (0, 1), (1, 1), (0, 0)})
