"""The frontier loop keys a spliced candidate before it builds a position.

A search splices one position (its events) from its parent per new
position and none for a duplicate; the only whole word it simulates is
the one it returns.  Skipping duplicates is sound because words sharing
a canonical key share their strand counts and component count.  Events
are ints, so keys hash in C.
"""

import copy
import pickle
import random

import pytest

import morsewidth.events as events_mod
import morsewidth.moves as moves_mod
import morsewidth.search as search_mod
from conftest import SEARCHES, clear_move_caches, random_closed_word, spy
from morsewidth.catalog import catalog, pad_with_fingers
from morsewidth.errors import InvalidMove
from morsewidth.events import EventKind, MorseEvent, MorseWord, cap, cross, cup
from morsewidth.moves import LENGTH_DELTA, MoveKind, apply_move, canonical_key, enumerate_moves
from morsewidth.search import SearchConfig, beam_search


@pytest.fixture
def simulations(monkeypatch):
    """Every events passed to ``_simulate``, from words and local checks
    alike, with the shared move caches emptied first."""
    calls = spy(
        monkeypatch, "_simulate", events_mod, moves_mod, record=lambda args, _: tuple(args[0])
    )
    clear_move_caches()
    return calls


@pytest.fixture
def patched(monkeypatch):
    """Every position a search splices from its parent: (key, events, trail, ordered, levels)."""
    return spy(monkeypatch, "_child", search_mod, record=lambda _, position: position)


@pytest.mark.parametrize("search", SEARCHES, ids=["beam", "exhaustive"])
def test_search_simulates_only_the_word_it_returns(simulations, search):
    start = pad_with_fingers(catalog("trefoil_plat"), 1)
    simulations.clear()
    result = search(start)
    assert result.visited > 500
    *local, last = simulations
    assert last == result.best_word.events and len(last) > 3
    # Every other simulation is a local check: a window or its rewrite,
    # of at most three events.
    assert local and all(len(events) <= 3 for events in local)


@pytest.mark.parametrize("search", SEARCHES, ids=["beam", "exhaustive"])
def test_search_patches_each_new_position_once(patched, search):
    start = pad_with_fingers(catalog("trefoil_plat"), 1)
    result = search(start)
    assert result.visited > 500
    assert len(patched) == result.visited - 1
    assert len({events for _, events, *_ in patched}) == len(patched)


def test_component_change_is_refused_inside_a_search(patch_rule):
    # A closed loop in place of a finger: a valid word with one more component.
    def loop(window, params):
        return (cup(params[0]), cap(params[0]))

    patch_rule(MoveKind.ZIGZAG_INSERT, rewrite=loop)
    with pytest.raises(InvalidMove, match="component count"):
        beam_search(catalog("trefoil_plat"), config=SearchConfig(max_steps=2))


def test_key_of_word_equals_key_of_its_events():
    rng = random.Random(20261018)
    for _ in range(300):
        word = random_closed_word(rng)
        key = canonical_key(word)
        assert key == canonical_key(word.events) == canonical_key(list(word.events))
        assert type(key) is tuple
    assert canonical_key(()) == () and canonical_key([cup(1)]) == (cup(1),)


def test_words_sharing_a_key_share_counts_and_components():
    rng = random.Random(7)
    shapes: dict[tuple, set] = {}
    for _ in range(60):
        word = random_closed_word(rng)
        rebuilt = MorseWord(canonical_key(word))
        assert (rebuilt.counts, rebuilt.component_count) == (
            word.counts,
            word.component_count,
        )
        for move in enumerate_moves(word):
            if LENGTH_DELTA[move.kind] > 0:
                continue
            out = apply_move(word, move)
            shape = (out.counts, out.component_count)
            shapes.setdefault(canonical_key(out), set()).add((out.events, shape))
    shared = [group for group in shapes.values() if len(group) > 1]
    assert shared  # distinct words do meet on one key
    for group in shapes.values():
        assert len({shape for _, shape in group}) == 1


def test_events_hash_compare_and_sort_as_their_codes():
    assert MorseEvent.__hash__ is int.__hash__
    assert int(cross(2, 1)) == 11 and cup(1) == 4
    for e in (cup(1), cap(1), cross(2, -1), cross(2, 1), cup(300)):
        assert hash(e) == hash(int(e))
    assert cup(1) == MorseEvent(EventKind.CUP, 1) != cap(1)
    assert (cup(2).kind, cup(2).index, cup(2).sign) == (EventKind.CUP, 2, 0)
    events = [cross(2, 1), cup(3), cap(1), cross(2, -1), cup(1)]
    assert sorted(events) == [cup(1), cap(1), cross(2, -1), cross(2, 1), cup(3)]
    assert sorted(events) == sorted(events, key=int)


def test_events_repr_names_the_event():
    events = (cup(1), cap(2), cross(3, -1), cross(1, 1))
    assert [repr(e) for e in events] == ["cup(1)", "cap(2)", "cross(3, -1)", "cross(1, 1)"]
    assert [f"{e}" for e in events] == ["b1", "d2", "x3-", "x1+"]


def test_events_copy_and_pickle_as_events():
    for e in (cup(1), cap(2), cross(3, -1), cross(1, 1)):
        for again in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert type(again) is MorseEvent and again == e


@pytest.mark.parametrize(
    "kind, sign",
    [(EventKind.CROSS, 0), (EventKind.CROSS, 2), (EventKind.CUP, 1), (EventKind.CAP, -1)],
)
def test_bad_sign_raises_value_error(kind, sign):
    with pytest.raises(ValueError):
        MorseEvent(kind, 1, sign)


@pytest.mark.parametrize("kind", ["cup", "cross", 0, None])
def test_a_kind_that_is_not_an_event_kind_raises_value_error(kind):
    with pytest.raises(ValueError, match=repr(kind)):
        MorseEvent(kind, 1)
    with pytest.raises(ValueError, match=repr(kind)):
        MorseEvent(kind, 1, 1)


def test_events_are_immutable():
    event = cross(1, -1)
    with pytest.raises(AttributeError):
        event.index = 2
    with pytest.raises(AttributeError):
        event.extra = 0
    assert not hasattr(event, "__dict__")
