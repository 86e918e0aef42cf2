"""An event is its int code.

A ``MorseEvent``'s value is ``index << 2 | t`` with t = 0 for a cup, 1 for
a cap, 2 for a negative and 3 for a positive crossing.  Its fields must
read back from the code for every index, and ``canonical_key`` must take a
word or any event sequence.
"""

import random

from conftest import random_closed_events
from morsewidth.events import EventKind, MorseEvent, MorseWord
from morsewidth.moves import canonical_key
from oracles import oracle_canonical_key


def test_events_round_trip():
    # Negative indices round-trip because >> rounds down; indices past 256
    # are past the small-int cache, so codes must compare by value.
    fields = [(EventKind.CUP, 0), (EventKind.CAP, 0), (EventKind.CROSS, -1), (EventKind.CROSS, 1)]
    for index in range(-3, 301):
        for t, (kind, sign) in enumerate(fields):
            e = MorseEvent(kind, index, sign)
            assert type(e) is MorseEvent
            assert (e.kind, e.index, e.sign) == (kind, index, sign)
            assert int(e) == index << 2 | t


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
