"""A search patches each new position (its events and strand counts) from
its parent instead of simulating it, and two caches feed it: the moves
valid at a site and the checked rewrite of a window.

Every patched position must equal the validating constructor's word
(counts, component count and objective key), the boundary matching that
licenses a patch must agree with the independent component walk of
``tests/oracles.py``, and a rewrite that breaks locality must be refused.
A rule replaced in the table is seen by the next search once both caches
are emptied, as the ``patch_rule`` fixture does.
"""

import random

import pytest

import morsewidth.moves as moves_mod
import morsewidth.search as search_mod
from conftest import random_closed_word, random_knot_word
from morsewidth.catalog import catalog, pad_with_fingers
from morsewidth.errors import InvalidMove
from morsewidth.events import EventKind, MorseWord, _simulate, cap, cross, cup
from morsewidth.invariants import level_profile
from morsewidth.moves import Move, MoveKind, apply_move, enumerate_moves
from morsewidth.search import Objective, ObjectiveKind, SearchConfig, beam_search, exhaustive_min
from oracles import oracle_components, oracle_matching


@pytest.fixture
def children(monkeypatch):
    """(objective, parent events, move, candidate) of every new position."""
    made = []
    original = search_mod._child

    def recording(objective, parent, move, end, events, rewrite):
        candidate = original(objective, parent, move, end, events, rewrite)
        made.append((objective, parent[1], move, candidate))
        return candidate

    monkeypatch.setattr(search_mod, "_child", recording)
    return made


def golden_searches(objective):
    """The searches of tests/test_golden_traces.py."""
    twice_padded = pad_with_fingers(catalog("trefoil_plat"), 2)
    for config in (
        SearchConfig(beam_width=4, max_steps=8, insertion_budget=1, random_seed=9),
        SearchConfig(beam_width=8, max_steps=6, random_seed=9),
    ):
        yield beam_search(twice_padded, objective, config)
    yield beam_search(catalog("bt134"), objective, SearchConfig(4, 2, 0))
    for radius, insertion_budget in ((2, 0), (2, 1), (3, 0), (3, 1)):
        yield exhaustive_min(catalog("padded_trefoil"), objective, radius, insertion_budget)


def random_searches(objective):
    rng = random.Random(20261018)
    for k in range(30):
        start = pad_with_fingers(random_knot_word(rng, max_events=12, max_crossings=4), 1)
        if k % 2:
            yield exhaustive_min(start, objective, radius=2, insertion_budget=1)
        else:
            config = SearchConfig(beam_width=4, max_steps=4, random_seed=k)
            yield beam_search(start, objective, config)


@pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda kind: kind.value)
def test_patched_candidates_equal_simulated_words(children, kind):
    objective = Objective(kind)
    visited = sum(result.visited - 1 for result in golden_searches(objective))
    visited += sum(result.visited - 1 for result in random_searches(objective))
    assert len(children) == visited > 5000
    kept_key = 0
    for searched_for, parent_events, move, (key, events, counts, trail) in children:
        assert searched_for is objective and trail[1] is move
        parent, simulated = MorseWord(parent_events), MorseWord(events)
        assert counts == simulated.counts, str(simulated)
        assert simulated.component_count == parent.component_count
        assert key == objective.key(simulated), str(simulated)
        assert apply_move(parent, move) == simulated
        kept_key += key == objective.key(parent)
    assert 0 < kept_key < len(children)


def random_window(rng: random.Random, n: int, length: int):
    """Events on ``n`` strands below; a few indices fall outside their range."""
    events = []
    for _ in range(length):
        pick = rng.randrange(3)
        if pick == 0:
            events.append(cup(rng.randint(0, n + 2)))
        elif pick == 1:
            events.append(cap(rng.randint(0, n)))
        else:
            events.append(cross(rng.randint(0, n), rng.choice((1, -1))))
        n = max(0, n + (2 if pick == 0 else -2 if pick == 1 else 0))
    return events


def test_boundary_matching_agrees_with_the_component_walk():
    rng = random.Random(6)
    shapes = set()
    for _ in range(3000):
        n = rng.randint(0, 6)
        events = random_window(rng, n, rng.randint(0, 4))
        trace = _simulate(events, n, n > 0)
        counts, closed, bad = oracle_components(events, n)
        assert list(trace.counts) == counts
        assert trace.closed_components == closed
        assert [(v.code, v.position) for v in trace.violations] == bad
        assert list(trace.matching) == oracle_matching(events, n)
        shapes.add((n, trace.matching))
    assert len(shapes) > 300


def test_every_rewrite_of_a_random_word_passes_the_local_check():
    rng = random.Random(11)
    for _ in range(100):
        word = random_closed_word(rng, max_events=16)
        for k, kind, rule, params in moves_mod._sites(
            word.events, word.counts, None, moves_mod._site
        ):
            end = k + rule.width
            window = word.events[k:end]
            entry = moves_mod._rewrite(rule, window, params, word.counts[k])
            new, local, flat, width_change, critical_change = entry
            assert local is not None, (str(word), kind, k, params)
            out = apply_move(word, Move(kind, k, params))
            assert out.counts == word.counts[:k] + local + word.counts[end + 1 :]
            levels = [c for c, d in zip(out.counts, out.counts[1:]) if c != d]
            assert flat is (levels == [c for c, d in zip(word.counts, word.counts[1:]) if c != d])
            assert width_change == level_profile(out).width - level_profile(word).width
            critical = [sum(e.kind is not EventKind.CROSS for e in w.events) for w in (word, out)]
            assert critical_change == critical[1] - critical[0]


# Rewrites that break locality, each swapped into one rule's table entry.
BROKEN = {
    "loop": (MoveKind.ZIGZAG_INSERT, lambda w, p: (cup(p[0]), cap(p[0]))),
    "top count": (MoveKind.ZIGZAG_INSERT, lambda w, p: (cup(p[0]),)),
    # One crossing instead of two: same counts and loops, other connectivity.
    "swap": (MoveKind.R2_INSERT, lambda w, p: (cross(*p),)),
    "bad index": (MoveKind.R2_INSERT, lambda w, p: (cross(p[0] + 50, 1), cross(p[0] + 50, -1))),
}


@pytest.mark.parametrize("name", BROKEN)
@pytest.mark.parametrize("exhaustive", [False, True], ids=["beam", "exhaustive"])
def test_search_refuses_a_rewrite_that_is_not_local(patch_rule, name, exhaustive):
    start = catalog("padded_trefoil" if exhaustive else "trefoil_plat")
    kind, rewrite = BROKEN[name]
    patch_rule(kind, rewrite=rewrite)
    with pytest.raises(InvalidMove, match="component count or the strands"):
        if exhaustive:
            exhaustive_min(start, radius=1, insertion_budget=2)
        else:
            beam_search(start, config=SearchConfig(max_steps=2))


@pytest.mark.parametrize("exhaustive", [False, True], ids=["beam", "exhaustive"])
def test_result_refuses_counts_that_differ_from_its_word(monkeypatch, exhaustive):
    # Every checked rewrite claims counts 2 higher: no local check sees it,
    # so only the whole word the search returns can.
    original = moves_mod._rewrite

    def lifted(*args):
        new, local, *rest = original(*args)
        return (new, local and tuple(c + 2 for c in local), *rest)

    monkeypatch.setattr(search_mod, "_rewrite", lifted)
    start = catalog("padded_trefoil")
    with pytest.raises(InvalidMove, match="patched counts"):
        if exhaustive:
            exhaustive_min(start, radius=1)
        else:
            beam_search(start, config=SearchConfig(max_steps=1))


def test_a_rule_patched_after_a_search_is_seen(patch_rule):
    start = catalog("padded_trefoil")
    every = enumerate_moves(start)
    before = exhaustive_min(start, radius=2)
    assert MoveKind.ZIGZAG_CANCEL in {m.kind for m in before.trace}

    patch_rule(MoveKind.ZIGZAG_CANCEL, params=lambda w, n: [])
    kept = [m for m in every if m.kind is not MoveKind.ZIGZAG_CANCEL]
    assert enumerate_moves(start) == kept != every
    after = exhaustive_min(start, radius=2)
    assert MoveKind.ZIGZAG_CANCEL not in {m.kind for m in after.trace}
    assert after.visited < before.visited

    loop_kind, loop = BROKEN["loop"]
    patch_rule(loop_kind, rewrite=loop)
    with pytest.raises(InvalidMove, match="component count"):
        exhaustive_min(start, radius=1, insertion_budget=2)


def per_rule_moves(word, max_delta):
    """Enumeration without a cache: every rule's predicate at every site."""
    moves = []
    for k in range(len(word.events) + 1):
        for kind, rule in moves_mod._RULES.items():
            end = k + rule.width
            if end > len(word.events):
                continue
            if max_delta is not None and rule.length_delta > max_delta:
                continue
            for params in rule.params(word.events[k:end], word.counts[k]):
                moves.append(Move(kind, k, params))
    return moves


@pytest.mark.parametrize("max_delta", [None, -2, -1, 0, 1, 2])
def test_enumeration_equals_a_per_rule_loop(max_delta):
    rng = random.Random(200)
    kinds = set()
    for _ in range(200):
        word = random_closed_word(rng, max_events=18)
        moves = enumerate_moves(word, max_delta)
        assert moves == per_rule_moves(word, max_delta), str(word)
        kinds.update(m.kind for m in moves)
    if max_delta is None:
        assert kinds == set(MoveKind)

