"""Every search shares the move caches, and keys each candidate from its window.

The moves of a site and the checked rewrite of a window are facts of the
rule table, so one cache of each serves every search: a second identical
search makes no local check at all.  ``enumerate_moves`` reads the same
site cache, and the insertion rules' moves at one strand count are one
shared list.  Each cache is bounded, least recently used out, and a
search reads the same moves from a small cache as from a large one.  The
width and critical-count keys of a new position are its parent's key plus
the window's change, so a width search builds no level profile for its
candidates.  The other keys come from one bounded memo of keys by levels,
so a second identical search of them builds no level profile either, and
a memo of four entries gives the same searches.  The seam check spares
most children of ordered positions a normal-form scan, and one fixed
search pins how many scans remain.  ``canonical_key``
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
from conftest import (
    BEAM_8_STEPS_6,
    SEARCHES,
    clear_move_caches,
    random_closed_events,
    random_events,
    spy,
)
from morsewidth.catalog import catalog, pad_with_fingers
from morsewidth.events import MorseWord, cap, cross, cup
from morsewidth.moves import Move, MoveKind, canonical_key, enumerate_moves
from morsewidth.search import Objective, ObjectiveKind, SearchConfig, beam_search, exhaustive_min
from oracles import oracle_canonical_key


@pytest.fixture
def cold_memos():
    """Empty shared caches at the start of one test."""
    clear_move_caches()


@pytest.fixture
def local_checks(monkeypatch):
    """The events of every local check (``moves._simulate``)."""
    return spy(monkeypatch, "_simulate", moves_mod, record=lambda args, _: tuple(args[0]))


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
    for module, name in ((moves_mod, "_site"), (search_mod, "_rewrite")):
        small = functools.lru_cache(maxsize=4)(getattr(moves_mod, name).__wrapped__)
        monkeypatch.setattr(module, name, small)
    second = search(start)
    assert search_mod._rewrite.cache_info().currsize == 4
    assert moves_mod._site.cache_info().misses > 100
    assert (second.best_word, second.trace, second.visited) == (
        first.best_word,
        first.trace,
        first.visited,
    )


def sized_caches(monkeypatch, site_size, rewrite_size):
    """New ``_site`` and ``_rewrite`` caches of these sizes where a search looks them up."""
    for module, name, size in (
        (moves_mod, "_site", site_size),
        (search_mod, "_rewrite", rewrite_size),
    ):
        cache = functools.lru_cache(maxsize=size)(getattr(moves_mod, name).__wrapped__)
        monkeypatch.setattr(module, name, cache)
    return moves_mod._site, search_mod._rewrite


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


def test_a_search_reads_the_sites_enumerate_moves_cached(cold_memos):
    start = catalog("padded_trefoil")
    assert len(enumerate_moves(start)) > 100
    filled = moves_mod._site.cache_info()
    assert filled.currsize > 0
    exhaustive_min(start, radius=1)
    # Radius 1 scans the start's sites alone, and each one is cached already.
    after = moves_mod._site.cache_info()
    assert (after.hits, after.misses) == (filled.hits + len(start.events) + 1, filled.misses)


def test_site_entries_at_one_strand_count_share_their_insertion_lists(cold_memos):
    n = 4
    windows = ((cup(1), cap(2)), (cross(1, 1),), ())
    entries = [moves_mod._site(moves_mod._encode(window), n) for window in windows]
    found = [{kind: moves for kind, _, moves in entry} for entry in entries]
    for kind in (MoveKind.ZIGZAG_INSERT, MoveKind.R2_INSERT):
        first, *others = [moves[kind] for moves in found]
        assert first and all(moves is first for moves in others)
    wider = {kind: moves for kind, _, moves in moves_mod._site((), n + 2)}
    assert wider[MoveKind.ZIGZAG_INSERT] is not found[0][MoveKind.ZIGZAG_INSERT]


def test_memo_keys_hold_the_rules_themselves(cold_memos):
    # An equal copy of a rule is another key of the rewrite cache.
    rule = moves_mod._RULES[MoveKind.R2_CANCEL]
    window, n0 = moves_mod._encode((cross(1, 1), cross(1, -1))), 2
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
    return spy(
        monkeypatch, "level_profile", invariants_mod, search_mod, record=lambda args, _: args[0]
    )


@pytest.mark.parametrize("name", ["padded_trefoil", "bt134"])
def test_width_search_builds_two_profiles(profiles, name):
    start = catalog(name)
    result = beam_search(start, config=SearchConfig(max_steps=4))
    assert result.visited > 100
    # One for the start's key and one for the report of the word returned.
    assert profiles == [start, result.best_word]


@pytest.fixture
def keyed(monkeypatch):
    """The levels of every level profile a search's key memo builds."""
    return spy(monkeypatch, "LevelProfile", search_mod, record=lambda args, _: args[0])


@pytest.mark.parametrize("name", ["padded_trefoil", "bt134"])
def test_a_second_otp_search_builds_two_profiles(cold_memos, profiles, keyed, name):
    start, otp = catalog(name), Objective(ObjectiveKind.OTP_LEX)
    first = beam_search(start, otp, SearchConfig(max_steps=4))
    # A profile per distinct levels of a new position, not one per position.
    assert len(set(keyed)) == len(keyed) and 0 < 10 * len(keyed) < first.visited
    profiles.clear()
    keyed.clear()
    second = beam_search(start, otp, SearchConfig(max_steps=4))
    assert profiles == [start, second.best_word] and keyed == []
    assert (second.best_word, second.trace, second.visited) == (
        first.best_word,
        first.trace,
        first.visited,
    )


LEVEL_KEYS = [ObjectiveKind.OTP_LEX, ObjectiveKind.HEIGHT, ObjectiveKind.TRUNK_ONLY]


@pytest.mark.parametrize("kind", LEVEL_KEYS, ids=lambda kind: kind.value)
def test_a_small_level_key_memo_gives_the_same_search(monkeypatch, kind):
    start, objective, config = catalog("bt134"), Objective(kind), SearchConfig(8, 3, 1, 5)
    first = beam_search(start, objective, config)
    small = functools.lru_cache(maxsize=4)(search_mod._level_key.__wrapped__)
    monkeypatch.setattr(search_mod, "_level_key", small)
    second = beam_search(start, objective, config)
    assert small.cache_info().currsize == 4 and small.cache_info().misses > 50
    assert (second.best_word, second.trace, second.visited, second.objective_value) == (
        first.best_word,
        first.trace,
        first.visited,
        first.objective_value,
    )


def test_a_fixed_search_makes_a_pinned_number_of_scans(monkeypatch):
    # The seam check spares most children of ordered positions a scan; a
    # looser check scans more keys and finds the same ones, so only this
    # count shows it.
    scans = spy(monkeypatch, "_normal", search_mod)
    start = pad_with_fingers(catalog("trefoil_plat"), 2)
    result = beam_search(start, config=BEAM_8_STEPS_6)
    assert (len(scans), result.visited) == (244, 2726)


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
