"""Shared generators for fuzzed words, and the helpers and searches that
several test files share.

Plain random.Random generators (fast, seeded per test) rather than
hypothesis strategies for the bulk-count properties; hypothesis is used
where shrinking helps (parsers, orderings).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import morsewidth.moves as moves_mod
import morsewidth.search as search_mod
from morsewidth.events import MorseEvent, MorseWord, cap, cross, cup
from morsewidth.search import SearchConfig, beam_search, exhaustive_min


def random_closed_events(
    rng: random.Random,
    max_events: int = 24,
    cross_weight: int = 2,
) -> list[MorseEvent]:
    """Random locally valid closed word (possibly a link)."""
    events = [cup(1)]
    n = 2
    while True:
        pick = rng.randrange(2 + cross_weight)
        if pick == 0:
            events.append(cup(rng.randint(1, n + 1)))
            n += 2
        elif pick == 1:
            events.append(cap(rng.randint(1, n - 1)))
            n -= 2
            if n == 0:
                return events
        else:
            events.append(cross(rng.randint(1, n - 1), rng.choice((1, -1))))
        if len(events) >= max_events:
            while n > 0:
                events.append(cap(rng.randint(1, max(1, n - 1))))
                n -= 2
            return events


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


def random_closed_word(rng: random.Random, **kw) -> MorseWord:
    return MorseWord(random_closed_events(rng, **kw))


def random_knot_word(
    rng: random.Random, max_events: int = 24, max_crossings: int = 8
) -> MorseWord:
    """Rejection-sample single-component words under a crossing cap."""
    while True:
        word = MorseWord(random_closed_events(rng, max_events=max_events))
        if word.component_count == 1 and word.crossing_count <= max_crossings:
            return word


def random_bridge_events(rng: random.Random, max_bridge: int = 6) -> list[MorseEvent]:
    """Bridge position: all cups, then crossings, then all caps.
    Caps pick adjacent strands of distinct arcs so the word is a knot."""
    b = rng.randint(1, max_bridge)
    events = [cup(rng.randint(1, 2 * k + 1)) for k in range(b)]
    slots = []
    fresh = 0
    for e in events:
        slots[e.index - 1 : e.index - 1] = [fresh, fresh]
        fresh += 1
    for _ in range(rng.randint(0, 2 * b)):
        i = rng.randint(1, 2 * b - 1)
        events.append(cross(i, rng.choice((1, -1))))
        slots[i - 1], slots[i] = slots[i], slots[i - 1]
    while len(slots) > 2:
        j = next(j for j in range(1, len(slots)) if slots[j - 1] != slots[j])
        events.append(cap(j))
        a, bb = slots[j - 1], slots[j]
        del slots[j - 1 : j + 1]
        slots = [a if x == bb else x for x in slots]
    events.append(cap(1))
    return events


def random_bridge_word(rng: random.Random, **kw) -> MorseWord:
    return MorseWord(random_bridge_events(rng, **kw))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def clear_move_caches() -> None:
    """Empty every cache that every search shares: the site moves, rewrites
    and insertion images, and the keys of levels."""
    moves_mod._site.cache_clear()
    moves_mod._rewrite.cache_clear()
    moves_mod._images.cache_clear()
    search_mod._level_key.cache_clear()


@pytest.fixture
def patch_rule():
    """``patch_rule(kind, **fields)`` replaces fields of one rule of the move
    table for one test.  The search caches hold the rules they were filled
    with, so they are emptied when a rule is patched and again after the
    table is restored: no patched rule outlives its test in them."""
    saved = dict(moves_mod._RULES)

    def patch(kind, **fields):
        moves_mod._RULES[kind] = dataclasses.replace(moves_mod._RULES[kind], **fields)
        clear_move_caches()

    yield patch
    moves_mod._RULES.update(saved)
    clear_move_caches()


def spy(monkeypatch, name, *modules, record=lambda args, result: args):
    """Wrap ``modules[0].<name>`` and patch the wrapper into every module
    given, each of which must hold the name already.  Returns the list of
    ``record(args, result)``, appended after each call returns."""
    calls = []
    original = getattr(modules[0], name)

    def recording(*args):
        result = original(*args)
        calls.append(record(args, result))
        return result

    for module in modules:
        monkeypatch.setattr(module, name, recording)
    return calls


# A beam and an exhaustive search, from the once-padded trefoil in the tests
# that run them.
SEARCHES = [
    lambda start: beam_search(start, config=SearchConfig(max_steps=4, random_seed=3)),
    lambda start: exhaustive_min(start, radius=3, insertion_budget=1),
]

# The two beam searches of the golden traces, on the twice-padded trefoil.
BEAM_4_STEPS_8 = SearchConfig(beam_width=4, max_steps=8, insertion_budget=1, random_seed=9)
BEAM_8_STEPS_6 = SearchConfig(beam_width=8, max_steps=6, random_seed=9)
