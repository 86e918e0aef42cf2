"""A search splices each new position's events from its parent's instead
of simulating them, and two caches feed it: the moves valid at a site and
the checked rewrite of a window, which the search stores in the site's
entry the first time it reads it.

Every spliced position must equal the validating constructor's word
(component count, objective key and carried levels) and the table rule's
own rewrite, the boundary matching that licenses a splice must agree with
the independent component walk of ``tests/oracles.py``, and a rewrite
that breaks locality must be refused, by a search and by ``apply_move``
alike.
A rule replaced in the table is seen by the next search once the caches
are emptied, as the ``patch_rule`` fixture does, and a fake in place of
the rewrite cache once the site cache is, as ``patch_rewrite`` does.  A search
runs on the word's own events, which are ints.  A position in
``canonical_key`` normal form is flagged ordered, and its child by a
rewrite that is in order, with its two seams in order, is keyed by its
events with no scan: every flag must equal the scan's answer, and a seam
check that ignores either seam must be caught.
"""

import random

import pytest

import morsewidth.moves as moves_mod
import morsewidth.search as search_mod
from conftest import (
    BEAM_4_STEPS_8,
    BEAM_8_STEPS_6,
    random_closed_word,
    random_knot_word,
    site_entries,
    spy,
)
from morsewidth.catalog import catalog, pad_with_fingers
from morsewidth.errors import InvalidMove
from morsewidth.events import EventKind, MorseWord, _validated_trace, cap, cross, cup
from morsewidth.invariants import level_profile, levels
from morsewidth.moves import (
    Move,
    MoveKind,
    apply_move,
    canonical_key,
    enumerate_moves,
    inverse_move,
)
from morsewidth.search import Objective, ObjectiveKind, SearchConfig, beam_search, exhaustive_min
from oracles import oracle_components, oracle_matching


@pytest.fixture
def children(monkeypatch):
    """(objective, parent, move, flat, candidate) of every new position, where
    flat says that its rewrite keeps the levels."""

    def made(args, candidate):
        objective, parent, kind, site, params, _, rewrite, _, _ = args
        return (objective, parent, Move(kind, site, params), rewrite[1], candidate)

    return spy(monkeypatch, "_child", search_mod, record=made)


def golden_searches(objective):
    """The searches of tests/test_golden_traces.py."""
    twice_padded = pad_with_fingers(catalog("trefoil_plat"), 2)
    for config in (BEAM_4_STEPS_8, BEAM_8_STEPS_6):
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
    carried = kind not in (ObjectiveKind.GABAI_WIDTH, ObjectiveKind.CRITICAL_COUNT)
    for searched_for, (_, parent_events, _, _, parent_levels), move, flat, child in children:
        key, events, trail, _, lv = child
        assert searched_for is objective and Move(*trail[1:]) == move
        parent, simulated = MorseWord(parent_events), MorseWord(events)
        assert simulated.component_count == parent.component_count
        assert key == objective.key(simulated), str(simulated)
        # The spliced levels are the new word's own, or None where none are
        # carried; a flat rewrite's child shares its parent's tuple.
        assert lv == (levels(simulated.counts) if carried else None)
        assert lv is parent_levels or not flat
        # The table's own rule, not apply_move, which shares the search's caches.
        k, rule = move.site, moves_mod._RULES[move.kind]
        window = parent_events[k : k + rule.width]
        assert move.params in rule.params(window, parent.counts[k])
        spliced = parent_events[:k] + rule.rewrite(window, move.params)
        assert spliced + parent_events[k + rule.width :] == events
        kept_key += key == objective.key(parent)
    assert 0 < kept_key < len(children)


def in_normal_form(events) -> bool:
    return canonical_key(events) == events


def seams(parent_events, site, width, new):
    """The pairs a rewrite of ``width`` events at ``site`` makes with the word
    round it: (below, first) and (last, above), or (below, above) for an
    empty rewrite; a cup code, 0, stands in past either end."""
    padded = (0, *parent_events, 0)
    below, above = padded[site], padded[site + width + 1]
    return [(below, new[0]), (new[-1], above)] if new else [(below, above)]


@pytest.fixture
def orders(monkeypatch):
    """(skipped, events, ordered) of every new position, where skipped means
    that its parent was ordered, its rewrite is in normal form and so is each
    pair at its seams (as ``canonical_key`` decides),
    so that the search took its events as its key with no scan."""

    def made(args, _):
        _, parent, kind, site, _, events, rewrite, ordered, _ = args
        width = moves_mod._RULES[kind].width
        pairs = [rewrite[0], *seams(parent[1], site, width, rewrite[0])]
        skipped = parent[3] and all(map(in_normal_form, pairs))
        return (skipped, events, ordered)

    return spy(monkeypatch, "_child", search_mod, record=made)


def misordered(made):
    """The new positions whose ordered flag is not ``canonical_key(events) ==
    events``, or whose skipped key is not ``canonical_key(events)``.  A wrong
    skipped key of a duplicate shows here too: the key is its events, not in
    normal form, so the first position that carries it is new."""
    return [
        events
        for skipped, events, ordered in made
        if ordered != in_normal_form(events) or (skipped and not ordered)
    ]


def unordered_searches(objective):
    """Searches from starts that are not in ``canonical_key`` normal form."""
    rng = random.Random(5)
    starts = 0
    while starts < 4:
        start = random_knot_word(rng, max_events=14, max_crossings=6)
        if canonical_key(start.events) != start.events:
            starts += 1
            yield exhaustive_min(start, objective, radius=2, insertion_budget=1)


def every_search(objective):
    for results in (
        golden_searches(objective),
        random_searches(objective),
        unordered_searches(objective),
    ):
        yield from results


def test_ordered_flags_equal_the_scan(orders):
    visited = sum(result.visited - 1 for result in every_search(Objective()))
    assert len(orders) == visited
    assert misordered(orders) == []
    skipped = sum(skipped for skipped, _, _ in orders)
    ordered = sum(ordered for _, _, ordered in orders)
    assert 5000 < skipped < ordered < len(orders)


@pytest.fixture
def patch_rewrite(monkeypatch):
    """``patch_rewrite(fake)`` puts ``fake`` in place of the ``_rewrite`` a
    search reads, for one test.  The site cache holds the rewrite entries a
    search stored in it, so it is emptied when the fake goes in and again
    at the end: no fake entry outlives its test in it."""

    def patch(fake):
        monkeypatch.setattr(moves_mod, "_rewrite", fake)
        moves_mod._site.cache_clear()

    yield patch
    moves_mod._site.cache_clear()


def test_a_rewrite_claiming_order_for_crossings_is_caught(patch_rewrite, orders):
    # R2Insert puts two crossings into the word, which may land out of order
    # next to a crossing already there: here its first and last codes are
    # claimed to be cups, which are in order next to anything.
    r2_insert = moves_mod._RULES[MoveKind.R2_INSERT]
    original = moves_mod._rewrite

    def claiming(rule, window, params, n0):
        entry = original(rule, window, params, n0)
        return entry[:4] + (True, 0, 0) + entry[7:] if rule is r2_insert else entry

    patch_rewrite(claiming)
    for _ in every_search(Objective()):
        pass
    assert len(misordered(orders)) > 100


@pytest.mark.parametrize("seam", [5, 6], ids=["lower", "upper"])
def test_a_seam_check_that_ignores_one_seam_is_caught(patch_rewrite, orders, seam):
    # A cup code in place of the rewrite's first (last) code is in order with
    # any code below (above) it: the search no longer checks that seam.
    original = moves_mod._rewrite

    def ignoring(rule, window, params, n0):
        entry = original(rule, window, params, n0)
        return entry[:seam] + (0,) + entry[seam + 1 :] if entry[0] else entry

    patch_rewrite(ignoring)
    for _ in every_search(Objective()):
        pass
    assert len(misordered(orders)) > 100


def test_seams_decide_the_order_of_a_child():
    rng = random.Random(12)
    kept, stayed, left = set(), 0, 0
    for _ in range(100):
        word = random_closed_word(rng, max_events=16)
        ev = word.events
        ordered = in_normal_form(ev)
        for k, n, kind, rule, found in site_entries(word):
            window = ev[k : k + rule.width]
            for params in found:
                new, *_, in_order, first, last, _, _ = moves_mod._rewrite(rule, window, params, n)
                assert in_order is in_normal_form(new)
                assert (first, last) == ((new[0], new[-1]) if new else (None, None))
                if not ordered:
                    continue
                # A child of an ordered word is ordered exactly when its
                # rewrite and both seams are.
                out = apply_move(word, Move(kind, k, params)).events
                pairs = [new, *seams(ev, k, rule.width, new)]
                assert (canonical_key(out) == out) is all(map(in_normal_form, pairs))
                if all(map(in_normal_form, pairs)):
                    kept.add(kind)
                    stayed += 1
                else:
                    left += 1
    # Unlike a rule that keeps order only when no crossing goes in or out,
    # the seams keep it for every kind of move.
    assert kept == set(MoveKind)
    assert stayed > 5000 and left > 200


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
        trace, violations = _validated_trace(tuple(events), n, knot=False)
        counts, closed, bad = oracle_components(events, n)
        if trace is None:  # the empty closed word, refused whole
            assert [v.code for v in violations] == ["EmptyWord"] and bad == []
            continue
        assert list(trace.counts) == counts
        assert len(trace.closed) == closed
        assert [(v.code, v.position) for v in violations] == bad
        assert list(trace.matching) == oracle_matching(events, n)
        shapes.add((n, trace.matching))
    assert len(shapes) > 300


def test_every_rewrite_of_a_random_word_passes_the_local_check():
    rng = random.Random(11)
    for _ in range(100):
        word = random_closed_word(rng, max_events=16)
        for k, n, kind, rule, found in site_entries(word):
            end = k + rule.width
            window = word.events[k:end]
            for params in found:
                entry = moves_mod._rewrite(rule, window, params, n)
                new, flat, width_change, critical_change, *_, inner, replaced = entry
                out = apply_move(word, Move(kind, k, params))
                assert out.events == word.events[:k] + new + word.events[end:]
                now = [c for c, d in zip(out.counts, out.counts[1:]) if c != d]
                old = [c for c, d in zip(word.counts, word.counts[1:]) if c != d]
                assert flat is (now == old)
                # The new levels take the place of the window's cups and caps.
                j = sum(e.kind is not EventKind.CROSS for e in word.events[:k])
                assert old[:j] + list(inner) + old[j + replaced :] == now
                assert width_change == level_profile(out).width - level_profile(word).width
                critical = [
                    sum(e.kind is not EventKind.CROSS for e in w.events) for w in (word, out)
                ]
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


@pytest.mark.parametrize(
    "name, listed", [("loop", 40), ("top count", 40), ("swap", 28), ("bad index", 28)]
)
def test_apply_move_refuses_a_rewrite_that_is_not_local(patch_rule, name, listed):
    # apply_move licenses a move as the search does, by the local check.
    word = catalog("trefoil_plat")
    kind, rewrite = BROKEN[name]
    every = [move for move in enumerate_moves(word) if move.kind is kind]
    assert len(every) == listed
    patch_rule(kind, rewrite=rewrite)
    for move in every:
        with pytest.raises(InvalidMove, match="component count or the strands"):
            apply_move(word, move)


def test_the_local_check_counts_loops_and_refuses_none():
    # A window and its rewrite that each close one loop keep the component
    # count: a check that read them as tangles would refuse both loops.
    moved = moves_mod._Rule(2, 0, False, lambda w, n: [()], lambda w, p: (cup(3), cap(3)))
    new = moves_mod._rewrite(moved, (cup(1), cap(1)), (), 2)[0]
    assert new == (cup(3), cap(3))


def test_inverse_move_refuses_when_no_listed_move_undoes(patch_rule):
    word = catalog("trefoil_plat")
    every = [move for move in enumerate_moves(word) if move.kind is MoveKind.R2_INSERT]
    assert len(every) == 28
    patch_rule(MoveKind.R2_CANCEL, params=lambda w, n: [])
    for move in every:
        with pytest.raises(InvalidMove, match="no move undoes"):
            inverse_move(word, move)


@pytest.mark.parametrize("exhaustive", [False, True], ids=["beam", "exhaustive"])
def test_result_refuses_another_component_count(patch_rewrite, exhaustive):
    # Every checked rewrite gains a small closed loop and claims to thin the
    # word: no local check sees it, so only the whole word returned can.
    original = moves_mod._rewrite

    def looped(*args):
        new, *_, inner, critical = original(*args)
        loop = (cup(1), cap(1))
        return (new + loop, False, -100, -100, False, None, None, inner, critical)

    patch_rewrite(looped)
    start = catalog("padded_trefoil")
    with pytest.raises(InvalidMove, match="another component count"):
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


def per_rule_moves(word):
    """Enumeration without a cache: every rule's predicate at every site."""
    moves = []
    for k in range(len(word.events) + 1):
        for kind, rule in moves_mod._RULES.items():
            end = k + rule.width
            if end > len(word.events):
                continue
            for params in rule.params(word.events[k:end], word.counts[k]):
                moves.append(Move(kind, k, params))
    return moves


def test_enumeration_equals_a_per_rule_loop():
    rng = random.Random(200)
    kinds = set()
    for _ in range(200):
        word = random_closed_word(rng, max_events=18)
        moves = enumerate_moves(word)
        assert moves == per_rule_moves(word), str(word)
        kinds.update(m.kind for m in moves)
    assert kinds == set(MoveKind)

