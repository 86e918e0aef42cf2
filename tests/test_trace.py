"""The strand trace that ``_simulate`` leaves behind, read as a graph.

A closed word's strand pieces are its ends: a cup opens ends p and p ^ 1,
and the trace's ``ends`` pairs each capped end with its cap partner.  The
cup pairs and the cap pairs each match every end once, so together they
form cycles, one per component; this counts them by a walk that never
reads ``closed``.  ``crossed`` holds two ends per crossing.
"""

import random

from conftest import random_closed_events
from morsewidth.events import EventKind, MorseWord, TangleWord, _simulate
from oracles import oracle_components
from test_simulate import random_tangle_events


def cycles(ends: list[int]) -> int:
    """Cycles of the cup pairs p <-> p ^ 1 and the cap pairs p <-> ends[p]."""
    seen = [False] * len(ends)
    count = 0
    for start in range(0, len(ends), 2):
        if seen[start]:
            continue
        count += 1
        end = start
        while not seen[end]:  # across a cup from end to end ^ 1, then across its cap
            seen[end] = seen[end ^ 1] = True
            end = ends[end ^ 1]
    return count


def test_cup_and_cap_pairs_form_one_cycle_per_component():
    rng = random.Random(20261020)
    links = 0
    for _ in range(3000):
        events = random_closed_events(rng, max_events=rng.randint(2, 30))
        ends = _simulate(events, 0).ends
        assert all(ends[ends[e]] == e != ends[e] for e in range(len(ends)))
        word = MorseWord(events)
        assert cycles(ends) == word.component_count == oracle_components(events)[1]
        links += word.component_count > 1
    assert links > 500  # links are exercised, not only knots


def crossings(events) -> int:
    return sum(e.kind is EventKind.CROSS for e in events)


def test_crossing_count_counts_the_crossing_events():
    rng = random.Random(3)
    tangles = 0
    for _ in range(500):
        events = random_closed_events(rng, max_events=rng.randint(2, 30))
        word = MorseWord(events)
        assert word.crossing_count == crossings(events)
        strands = 2 * rng.randint(1, 3)
        events = random_tangle_events(rng, strands, max_events=rng.randint(1, 10))
        if not _simulate(events, strands).closed:
            assert TangleWord(strands, events).crossing_count == crossings(events)
            tangles += 1
    assert tangles > 100  # accepted tangles are exercised, not only refused ones
