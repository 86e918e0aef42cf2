"""Every search shares the move caches, and keys each candidate from its window.

The moves of a site and the checked rewrite of a window are facts of the
rule table, so one cache of each serves every search: a second identical
search makes no local check at all.  Each cache is bounded, least recently
used out, and a search reads the same moves from a small cache as from a
large one; a one-off ``enumerate_moves`` caches nothing.  The width and
critical-count keys of
a new position are its parent's key plus the window's change, so a width
search builds no level profile for its candidates.  ``canonical_key``
scans once and sorts only the sequences that need it; it must equal the
bubble passes of ``tests/oracles.py`` on every input.
"""

import dataclasses
import functools
import random

import pytest

import morsewidth.invariants as invariants_mod
import morsewidth.moves as moves_mod
import morsewidth.search as search_mod
from conftest import clear_move_caches, random_closed_events
from morsewidth.catalog import catalog, pad_with_fingers
from morsewidth.events import MorseEvent, MorseWord, cap, cross, cup
from morsewidth.moves import Move, MoveKind, canonical_key, enumerate_moves
from morsewidth.search import SearchConfig, beam_search, exhaustive_min
from oracles import oracle_canonical_key


@pytest.fixture
def cold_memos():
    """Empty shared caches at the start of one test."""
    clear_move_caches()


@pytest.fixture
def local_checks(monkeypatch):
    """The events of every local check (``moves._simulate``)."""
    calls = []
    original = moves_mod._simulate

    def counting(events, start_count, tangle):
        calls.append(tuple(events))
        return original(events, start_count, tangle)

    monkeypatch.setattr(moves_mod, "_simulate", counting)
    return calls


SEARCHES = [
    lambda start: beam_search(start, config=SearchConfig(max_steps=4, random_seed=3)),
    lambda start: exhaustive_min(start, radius=3, insertion_budget=1),
]


@pytest.mark.parametrize("search", SEARCHES, ids=["beam", "exhaustive"])
def test_a_second_identical_search_makes_no_local_check(cold_memos, local_checks, search):
    start = pad_with_fingers(catalog("trefoil_plat"), 1)
    first = search(start)
    assert local_checks
    local_checks.clear()
    second = search(start)
    assert local_checks == []
    assert second.best_word == first.best_word
    assert second.trace == first.trace
    assert second.visited == first.visited > 500


def test_small_caches_give_the_same_search(monkeypatch):
    # Four entries each: nearly every lookup evicts one and misses.
    search = SEARCHES[1]
    start = pad_with_fingers(catalog("trefoil_plat"), 1)
    first = search(start)
    for name in ("_site", "_rewrite"):
        small = functools.lru_cache(maxsize=4)(getattr(moves_mod, name).__wrapped__)
        monkeypatch.setattr(search_mod, name, small)
    second = search(start)
    assert search_mod._rewrite.cache_info().currsize == 4
    assert search_mod._site.cache_info().misses > 100
    assert (second.best_word, second.trace, second.visited) == (
        first.best_word,
        first.trace,
        first.visited,
    )


def sized_caches(monkeypatch, site_size, rewrite_size):
    """New ``_site`` and ``_rewrite`` caches of these sizes where ``search`` looks them up."""
    for name, size in (("_site", site_size), ("_rewrite", rewrite_size)):
        cache = functools.lru_cache(maxsize=size)(getattr(moves_mod, name).__wrapped__)
        monkeypatch.setattr(search_mod, name, cache)
    return search_mod._site, search_mod._rewrite


@pytest.mark.parametrize("over", [False, True])
def test_a_search_empties_memos_over_their_cap(local_checks, monkeypatch, over):
    # Caches that hold what one search fills serve a second search whole;
    # one entry fewer each, the least recently used goes and must be checked again.
    search = SEARCHES[1]
    start = pad_with_fingers(catalog("trefoil_plat"), 1)
    first = search(start)
    unbounded = sized_caches(monkeypatch, None, None)
    search(start)
    held = [cache.cache_info().currsize for cache in unbounded]
    caches = sized_caches(monkeypatch, held[0] - over, held[1] - over)
    search(start)
    local_checks.clear()
    second = search(start)
    assert bool(local_checks) == over
    assert [cache.cache_info().currsize for cache in caches] == [n - over for n in held]
    assert (second.best_word, second.trace, second.visited) == (
        first.best_word,
        first.trace,
        first.visited,
    )


def test_enumerate_moves_fills_no_cache(cold_memos):
    start = catalog("padded_trefoil")
    exhaustive_min(start, radius=1)
    held = moves_mod._site.cache_info().currsize
    assert held > 0
    moves = enumerate_moves(pad_with_fingers(catalog("bt134"), 2))
    assert len(moves) > 100
    assert moves_mod._site.cache_info().currsize == held


def test_memo_keys_hold_the_rules_themselves(cold_memos):
    # An equal copy of a rule is another key of the rewrite cache.
    rule = moves_mod._RULES[MoveKind.R2_CANCEL]
    window, n0 = (cross(1, 1), cross(1, -1)), 2
    entry = moves_mod._rewrite(rule, window, (), n0)
    assert moves_mod._rewrite(rule, window, (), n0) is entry
    again = moves_mod._rewrite(dataclasses.replace(rule), window, (), n0)
    assert again == entry and again is not entry
    assert moves_mod._rewrite.cache_info()[:2] == (1, 2)  # (hits, misses)


def test_rules_hash_and_compare_by_identity():
    rule = moves_mod._RULES[MoveKind.R2_CANCEL]
    copy = dataclasses.replace(rule)
    assert hash(rule) == object.__hash__(rule)
    assert copy != rule and len({rule, copy}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.width = 1


@pytest.fixture
def profiles(monkeypatch):
    """Every word whose level profile is built, wherever the call is made."""
    calls = []
    original = invariants_mod.level_profile

    def counting(word):
        calls.append(word)
        return original(word)

    for module in (invariants_mod, search_mod):
        monkeypatch.setattr(module, "level_profile", counting)
    return calls


@pytest.mark.parametrize("name", ["padded_trefoil", "bt134"])
def test_width_search_builds_two_profiles(profiles, name):
    start = catalog(name)
    result = beam_search(start, config=SearchConfig(max_steps=4))
    assert result.visited > 100
    # One for the start's key and one for the report of the word returned.
    assert profiles == [start, result.best_word]


def random_events(rng: random.Random) -> list[MorseEvent]:
    """Events of any kind and index, often in long crossing runs."""
    events = []
    for _ in range(rng.randint(0, 40)):
        pick = rng.randrange(8)
        if pick == 0:
            events.append(cup(rng.randint(1, 9)))
        elif pick == 1:
            events.append(cap(rng.randint(1, 9)))
        else:
            events.append(cross(rng.randint(1, 9), rng.choice((1, -1))))
    return events


def test_canonical_key_equals_the_bubble_oracle():
    rng = random.Random(20261019)
    sorted_inputs = 0
    for n in range(2400):
        events = random_events(rng) if n % 2 else random_closed_events(rng, max_events=30)
        expected = oracle_canonical_key(events)
        for given in (events, tuple(events)):
            key = canonical_key(given)
            assert type(key) is tuple and key == expected, [str(e) for e in events]
        if n % 2 == 0:
            assert canonical_key(MorseWord(events)) == expected
        sorted_inputs += expected != tuple(events)
    assert sorted_inputs > 600
    assert canonical_key(()) == () == canonical_key([]) == oracle_canonical_key(())


def test_canonical_key_sinks_a_crossing_through_a_long_run():
    run = [cross(i, 1) for i in range(9, 2, -2)] + [cross(1, -1)]
    assert canonical_key(run) == oracle_canonical_key(run) == tuple(run[::-1])
    # A cup stops the crossings on either side of it.
    mixed = [cross(5, 1), cup(2), cross(7, 1), cross(3, 1), cap(1), cross(1, 1)]
    expected = (cross(5, 1), cup(2), cross(3, 1), cross(7, 1), cap(1), cross(1, 1))
    assert canonical_key(mixed) == oracle_canonical_key(mixed) == expected


def test_a_key_in_normal_form_is_returned_as_it_is():
    events = (cup(1), cross(1, 1), cross(3, -1), cross(2, 1), cap(1))
    assert canonical_key(events) is events


def test_move_is_a_tuple_with_the_old_repr():
    move = Move(MoveKind.R2_INSERT, 4, (2, -1))
    assert isinstance(move, tuple) and move == (MoveKind.R2_INSERT, 4, (2, -1))
    assert repr(move) == "Move(kind=<MoveKind.R2_INSERT: 'R2Insert'>, site=4, params=(2, -1))"
    assert str(move) == "R2Insert@4(2,-1)"
    assert Move(MoveKind.R2_CANCEL, 3) == Move(MoveKind.R2_CANCEL, 3, ())
    with pytest.raises(AttributeError):
        move.site = 5
