"""Search results over many seeded searches, pinned by one digest.

The golden traces pin a few searches on catalog words; this digest pins
300 more on padded random knots, every objective, beam and breadth-first
search in turn.  A change to the move caches, the candidate keys or the
frontier loop that keeps every best word, trace, visited count and
objective value keeps this digest.  A second digest pins the beam's
selection at its edges: no position kept, one, two, and more than any
step makes.
"""

import hashlib
import random

from conftest import random_knot_word
from morsewidth.catalog import pad_with_fingers
from morsewidth.search import Objective, ObjectiveKind, SearchConfig, beam_search, exhaustive_min


def test_search_result_digest():
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    searches = visited = 0
    for knot in range(60):
        start = pad_with_fingers(random_knot_word(rng, max_events=12, max_crossings=4), 1)
        for kind in ObjectiveKind:
            if searches % 2:
                result = exhaustive_min(start, Objective(kind), radius=2, insertion_budget=1)
            else:
                config = SearchConfig(beam_width=4, max_steps=4, random_seed=knot)
                result = beam_search(start, Objective(kind), config)
            trace = " ".join(map(str, result.trace))
            line = f"{result.best_word}|{trace}|{result.visited}|{result.objective_value}\n"
            digest.update(line.encode())
            searches += 1
            visited += result.visited
    assert searches == 300
    assert visited == 50066
    assert digest.hexdigest() == (
        "cd6b4ba4387b0241cb78c24faadeea40264e09dfd842d262cf652539ee28b047"
    )


def test_beam_width_edge_digest():
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    searches = visited = largest = 0
    for knot in range(40):
        start = pad_with_fingers(random_knot_word(rng, max_events=12, max_crossings=4), 1)
        for kind in ObjectiveKind:
            for beam_width in (0, 1, 2, 10_000):
                config = SearchConfig(beam_width, 3, insertion_budget=0, random_seed=knot)
                result = beam_search(start, Objective(kind), config)
                trace = " ".join(map(str, result.trace))
                line = f"{beam_width}|{result.best_word}|{trace}|{result.visited}|"
                digest.update(f"{line}{result.objective_value}\n".encode())
                searches += 1
                visited += result.visited
                largest = max(largest, result.visited)
    # No step makes more candidates than a search visits, so the widest
    # beam keeps every candidate of every step.
    assert (searches, visited) == (800, 82935) and largest < 10_000
    assert digest.hexdigest() == (
        "f507ea3ce2ff851bd91e3d21275aff24aa4bee1b247321062e9ecbe68e87941d"
    )
