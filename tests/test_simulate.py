"""The word simulation against an independent component walk.

``_simulate`` traces components by linking each open strand end to the
far end of its arc.  ``oracle_components`` knows nothing of that: it
records strand pieces and finds components by a graph walk afterwards.
The two must agree on the strand counts, the closed-component count and
every violation (code and position), for valid and invalid words alike.
"""

import random

import pytest

from conftest import random_closed_events
from morsewidth.errors import ValidationError
from morsewidth.events import MorseWord, TangleWord, _simulate, cap, cross, cup, validate
from oracles import oracle_components


def simulated(events, start=0):
    trace = _simulate(events, start, tangle=start > 0)
    codes = [(v.code, v.position) for v in trace.violations]
    return list(trace.counts), trace.closed_components, codes


def random_tangle_events(rng: random.Random, strands: int, max_events: int = 20):
    """Random locally valid events from ``strands`` boundary strands down
    to zero; they may close a component, which a tangle refuses."""
    events, n = [], strands
    while len(events) < max_events:
        pick = rng.randrange(4)
        if pick == 0:
            events.append(cup(rng.randint(1, n + 1)))
            n += 2
        elif pick == 1 and n >= 2:
            events.append(cap(rng.randint(1, n - 1)))
            n -= 2
        elif n >= 2:
            events.append(cross(rng.randint(1, n - 1), rng.choice((1, -1))))
    while n > 0:
        events.append(cap(rng.randint(1, n - 1)))
        n -= 2
    return events


def random_raw_events(rng: random.Random, max_events: int = 16):
    """Events with indices drawn past both ends of the valid range."""
    events = []
    for _ in range(rng.randint(1, max_events)):
        i = rng.randint(-1, 7)
        pick = rng.randrange(3)
        events.append(cup(i) if pick == 0 else cap(i) if pick == 1 else cross(i, 1))
    return events


def test_closed_words_match_the_oracle():
    rng = random.Random(20261018)
    links = 0
    for _ in range(2000):
        events = random_closed_events(rng, max_events=rng.randint(2, 30))
        expected = oracle_components(events)
        assert simulated(events) == expected
        word = MorseWord(events)
        assert list(word.counts) == expected[0]
        assert word.component_count == expected[1]
        links += word.component_count > 1
    assert links > 100  # links are exercised, not only knots


def test_tangles_match_the_oracle():
    rng = random.Random(7)
    refused = 0
    for _ in range(600):
        strands = 2 * rng.randint(1, 4)
        events = random_tangle_events(rng, strands)
        expected = oracle_components(events, strands)
        assert simulated(events, strands) == expected
        assert [v.code for v in validate(events, strands)] == [c for c, _ in expected[2]]
        if expected[2]:
            refused += 1
            with pytest.raises(ValidationError):
                TangleWord(strands, events)
        else:
            assert TangleWord(strands, events).component_count == 0
    assert 50 < refused < 550  # both outcomes are exercised


def test_bad_indices_match_the_oracle():
    rng = random.Random(11)
    codes = set()
    for _ in range(1000):
        events = random_raw_events(rng)
        start = rng.choice((0, 0, 2, 4))
        expected = oracle_components(events, start)
        assert simulated(events, start) == expected
        codes.update(c for c, _ in expected[2])
    assert codes == {"BadIndex", "NegativeCount", "NonzeroEnd", "MultipleComponents"}


def test_tangle_refuses_a_closed_component():
    events = [cup(1), cap(1), cap(1)]  # a loop above the boundary arc
    with pytest.raises(ValidationError) as err:
        TangleWord(2, events)
    assert [(v.code, v.position) for v in err.value.violations] == [
        ("MultipleComponents", 1)
    ]
    assert oracle_components(events, 2)[2] == [("MultipleComponents", 1)]


@pytest.mark.parametrize(
    "events, message",
    [
        ([cup(3)], "BadIndex at event 0: cup index 3 outside 1..1"),
        ([cap(1)], "NegativeCount at event 0: cap with only 0 strands"),
        ([cup(1), cap(2), cap(1)], "BadIndex at event 1: cap index 2 outside 1..1"),
        ([cup(1), cross(2, 1), cap(1)], "BadIndex at event 1: crossing index 2 outside 1..1"),
    ],
)
def test_each_kind_names_itself_in_its_violation(events, message):
    """The text a user reads: the kind's name, the index and its range."""
    assert [str(v) for v in validate(events)] == [message]
