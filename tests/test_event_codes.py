"""The int event codes the search loop runs on.

A code is ``index << 2 | t`` with t = 0 for a cup, 1 for a cap, 2 for a
negative and 3 for a positive crossing.  Encoding and decoding must be
inverse on every event, the normal form of codes must equal the bubble
passes of ``tests/oracles.py`` on the decoded events, and the public
``canonical_key`` must still take a word or any event sequence.
"""

import random

from conftest import random_closed_events, random_events
from morsewidth.events import MorseEvent, MorseWord, cap, cross, cup
from morsewidth.moves import _decode, _encode, _normal, canonical_key
from oracles import oracle_canonical_key


def test_codes_round_trip():
    # Indices past 256 are past the small-int cache: codes compare by value.
    events = [
        event
        for i in range(1, 301)
        for event in (cup(i), cap(i), cross(i, -1), cross(i, 1))
    ]
    codes = _encode(events)
    assert type(codes) is tuple and all(type(c) is int for c in codes)
    assert codes == tuple(range(4, 4 * 301))  # index << 2 | t, t in event order
    decoded = _decode(codes)
    assert decoded == tuple(events)
    assert all(type(e) is MorseEvent for e in decoded)
    assert _encode(decoded) == codes
    assert [c & 2 != 0 for c in codes[:4]] == [False, False, True, True]


def test_normal_form_of_codes_equals_the_bubble_oracle():
    rng = random.Random(20261021)
    moved = 0
    for n in range(2000):
        events = random_events(rng) if n % 2 else random_closed_events(rng, max_events=30)
        codes = _encode(events)
        key = _normal(codes)
        expected = oracle_canonical_key(events)
        assert _decode(key) == expected, [str(e) for e in events]
        assert (key is codes) is (expected == tuple(events))
        moved += key is not codes
    assert moved > 500


def test_canonical_key_takes_a_word_or_any_event_sequence():
    rng = random.Random(3)
    for _ in range(200):
        events = random_closed_events(rng, max_events=20)
        expected = oracle_canonical_key(events)
        word = MorseWord(events)
        for given in (word, events, tuple(events), iter(events), (e for e in events)):
            key = canonical_key(given)
            assert type(key) is tuple and key == expected
            assert all(type(e) is MorseEvent for e in key)
    assert canonical_key([]) == () == canonical_key(iter(()))
