"""Functions that delegate to shared code, against their standalone forms.

``is_bridge_position``, ``pad_with_fingers``, ``classify_positions`` and
the two word classes reuse the level profile, the rule table, the
objective keys and one shared value base.  The references below are the
direct versions they replace: a cup-before-cap scan, a hand splice of
one finger, per-report minima and per-class equality.
"""

import random

import pytest

from conftest import random_bridge_word, random_closed_word, random_knot_word
from morsewidth.catalog import catalog, entries, pad_with_fingers, torus_plat
from morsewidth.events import EventKind, MorseWord, TangleWord, cap, cross, cup
from morsewidth.invariants import embedding_report, is_bridge_position
from morsewidth.moves import apply_move, enumerate_moves
from morsewidth.search import classify_positions


def scan_bridge(word):
    """Every cup precedes every cap."""
    seen_cap = False
    for e in word.events:
        if e.kind is EventKind.CAP:
            seen_cap = True
        elif e.kind is EventKind.CUP and seen_cap:
            return False
    return True


def splice_fingers(word, count):
    """One cup(m), cap(m + 1) spliced in below the first widest level, per finger."""
    for _ in range(count):
        m = max(word.counts)
        k = word.counts.index(m)
        events = list(word.events)
        events[k:k] = [cup(m), cap(m + 1)]
        word = MorseWord(events)
    return word


def test_bridge_position_matches_scan():
    rng = random.Random(20261018)
    seen = set()
    for n in range(2000):
        word = random_bridge_word(rng) if n % 4 == 0 else random_closed_word(rng)
        expected = scan_bridge(word)
        assert is_bridge_position(word) is expected, str(word)
        seen.add(expected)
    assert seen == {True, False}


def knot_words():
    names = [name for name, _ in entries() if name != "torus_plat(p,q)"]
    words = [catalog(name) for name in names]
    words += [torus_plat(p, q) for p, q in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 3), (5, 2))]
    return [w for w in words if isinstance(w, MorseWord)]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_pad_with_fingers_matches_splice(count):
    for word in knot_words():
        padded = pad_with_fingers(word, count)
        assert padded.events == splice_fingers(word, count).events, str(word)
        assert padded.component_count == word.component_count


def report_minima(words):
    """The Venn flags and minima, read off one report per word."""
    reports = [embedding_report(w) for w in words]
    min_width = min(r.width for r in reports)
    min_critical = min(r.critical_count for r in reports)
    min_otp = min((r.otp_vector, r.width) for r in reports)
    flags = [
        (r.width == min_width, r.critical_count == min_critical, (r.otp_vector, r.width) == min_otp)
        for r in reports
    ]
    return flags, (min_width, min_critical, min_otp[0])


def move_variants(rng, start, count, steps=6, max_len=20):
    """``count`` words reached from ``start`` by seeded random move walks."""
    words = [start]
    while len(words) < count:
        word = start
        for _ in range(rng.randint(1, steps)):
            moves = enumerate_moves(word, max_len - len(word.events))
            if not moves:
                break
            word = apply_move(word, rng.choice(moves))
        words.append(word)
    return words


def test_classify_matches_report_minima():
    rng = random.Random(7)
    starts = [catalog("trefoil_plat"), catalog("figure8_plat"), catalog("unknot")]
    starts += [random_knot_word(rng, max_events=12, max_crossings=4) for _ in range(9)]
    word_sets = [move_variants(rng, start, rng.randint(2, 7)) for start in starts]
    # Crossingless unknot stand-ins whose minima fall on different words.
    stand_ins = ("cex4_gamma", "cex4_gamma_prime", "bt134", "bt_mcp", "stack_101010")
    word_sets.append([catalog(name) for name in stand_ins])
    cells = set()
    for words in word_sets:
        classes = classify_positions(words)
        flags, minima = report_minima(words)
        got = [(p.width_minimal, p.critical_minimal, p.otp_minimal) for p in classes.positions]
        assert got == flags, [str(w) for w in words]
        assert (classes.min_width, classes.min_critical_count, classes.min_otp_vector) == minima
        assert [p.word for p in classes.positions] == words
        assert [p.report for p in classes.positions] == [embedding_report(w) for w in words]
        cells.update(p.cell for p in classes.positions)
    assert len(cells) >= 4, cells


def test_morse_word_value_behaviour():
    events = [cup(1), cup(2), cross(2, 1), cross(2, 1), cross(2, 1), cap(2), cap(1)]
    word = MorseWord(events)
    assert word == MorseWord(tuple(events))
    assert hash(word) == hash(MorseWord(events)) == hash(tuple(events))
    assert word != MorseWord([cup(1), cap(1)])
    assert word != tuple(events)
    assert len(word) == 7 and list(word) == events
    assert str(word) == "b1 b2 x2+ x2+ x2+ d2 d1"
    assert repr(word) == "MorseWord(b1 b2 x2+ x2+ x2+ d2 d1)"
    assert len({word, MorseWord(events), MorseWord([cup(1), cap(1)])}) == 2


def test_tangle_word_value_behaviour():
    events = [cross(1, 1), cross(2, 1), cap(2), cap(1)]
    tangle = TangleWord(4, events)
    assert tangle == catalog("rational_tangle")
    assert hash(tangle) == hash(TangleWord(4, tuple(events))) == hash((4, tuple(events)))
    assert tangle != TangleWord(4, [cross(1, -1), cross(2, 1), cap(2), cap(1)])
    assert TangleWord(2, [cap(1)]) != TangleWord(4, [cap(1), cap(1)])
    assert TangleWord(2, [cap(1)]) != MorseWord([cup(1), cap(1)])
    assert MorseWord([cup(1), cap(1)]) != TangleWord(2, [cap(1)])
    assert len(tangle) == 4 and list(tangle) == events
    assert str(tangle) == "tangle 4 x1+ x2+ d2 d1"
    assert repr(tangle) == "TangleWord(tangle 4 x1+ x2+ d2 d1)"
    assert tangle.counts == (4, 4, 4, 2, 0)
    assert tangle.arc_count == 2 and tangle.component_count == 0
