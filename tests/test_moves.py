"""Rewrite moves: validity, soundness, inverses, canonical keys."""

import pytest

from conftest import random_closed_word, random_knot_word
from morsewidth.bracket import jones_normalized, kauffman_bracket
from morsewidth.errors import InvalidMove
from morsewidth.events import EventKind, MorseWord, cap, cross, cup
from morsewidth.invariants import level_profile, width
from morsewidth.moves import (
    LENGTH_DELTA,
    Move,
    MoveKind,
    WRITHE_CHANGING,
    apply_move,
    canonical_key,
    enumerate_moves,
    inverse_move,
)

TREFOIL = MorseWord([cup(1), cup(2), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1)])


def commute(word, site, *params):
    return apply_move(word, Move(MoveKind.COMMUTE_DISTANT, site, params))


class TestCommuteTable:
    """Spot checks of the reindexing rules, one per support case."""

    def test_cup_below_cap_above(self):
        # Cup(1) Cap(3): the cap consumed old strands 1,2 sitting above
        # the newborn pair, so below the cup it becomes Cap(1)
        w = MorseWord([cup(1), cup(3), cup(1), cap(3), cap(3), cap(1)])
        out = commute(w, 2)
        assert out.events[2:4] == (cap(1), cup(1))

    def test_cap_then_cup_distant(self):
        w = MorseWord([cup(1), cup(1), cup(1), cap(1), cup(3), cap(1), cap(1), cap(1)])
        out = commute(w, 3)
        # Cup(3) slides below Cap(1): above the two doomed strands it was 5
        assert out.events[3:5] == (cup(5), cap(1))

    def test_cross_passes_cup_going_down(self):
        w = MorseWord([cup(1), cup(3), cross(1, 1), cap(3), cap(1)])
        out = commute(w, 1)
        assert out.events[1:3] == (cross(1, 1), cup(3))

    def test_cross_reindexes_passing_below_cup(self):
        w = MorseWord([cup(1), cup(1), cross(3, 1), cap(3), cap(1)])
        out = commute(w, 1)
        # the crossing acted on old strands 1,2 which sat at 3,4 above Cup(1)
        assert out.events[1:3] == (cross(1, 1), cup(1))

    def test_coincident_needs_side(self):
        w = MorseWord([cup(1), cup(2), cap(2), cup(2), cap(2), cap(1)])
        with pytest.raises(InvalidMove):
            commute(w, 2)
        left = commute(w, 2, "left")
        assert left.events[2:4] == (cup(2), cap(4))
        right = commute(w, 2, "right")
        assert right.events[2:4] == (cup(4), cap(2))

    def test_overlapping_supports_refused(self):
        w = MorseWord([cup(1), cross(1, 1), cap(1)])
        with pytest.raises(InvalidMove):
            commute(w, 0)
        with pytest.raises(InvalidMove):
            commute(w, 1)


    def test_loop_closing_caps_commute_in_a_link(self):
        # Each cap of d1 d1 closes a loop of the link; within the window on
        # 4 strands below, each joins two strands that come from below.
        unlink = MorseWord([cup(1), cup(1), cap(1), cap(1)])
        move = Move(MoveKind.COMMUTE_DISTANT, 2)
        out = apply_move(unlink, move)
        assert str(out) == "b1 b1 d3 d1" and out.component_count == 2
        assert inverse_move(unlink, move) == move


class TestMoveApplication:
    def test_zigzag_cancel_right(self):
        padded = MorseWord(
            [cup(1), cup(2), cup(4), cap(5), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1)]
        )
        out = apply_move(padded, Move(MoveKind.ZIGZAG_CANCEL, 2))
        assert out == TREFOIL

    def test_zigzag_insert_then_cancel(self):
        w = TREFOIL
        ins = apply_move(w, Move(MoveKind.ZIGZAG_INSERT, 2, (4, "right")))
        assert width(ins) == width(w) + 10
        assert apply_move(ins, Move(MoveKind.ZIGZAG_CANCEL, 2)) == w

    def test_zigzag_insert_left(self):
        w = apply_move(TREFOIL, Move(MoveKind.ZIGZAG_INSERT, 2, (2, "left")))
        assert w.events[2:4] == (cup(2), cap(1))

    def test_r1_absorb_and_insert(self):
        kinked = MorseWord([cup(1), cross(1, 1), cap(1)])
        assert apply_move(kinked, Move(MoveKind.R1_ABSORB, 0)) == MorseWord([cup(1), cap(1)])
        back = apply_move(MorseWord([cup(1), cap(1)]), Move(MoveKind.R1_INSERT, 0, (1, "cup")))
        assert back == kinked

    def test_cap_absorbs_crossing(self):
        kinked = MorseWord([cup(1), cross(1, -1), cap(1)])
        assert apply_move(kinked, Move(MoveKind.CAP_ABSORB_CROSS, 1)) == MorseWord([cup(1), cap(1)])

    def test_r2_cancel_requires_opposite_signs(self):
        w = MorseWord([cup(1), cross(1, 1), cross(1, -1), cap(1)])
        assert apply_move(w, Move(MoveKind.R2_CANCEL, 1)) == MorseWord([cup(1), cap(1)])
        same = MorseWord([cup(1), cross(1, 1), cross(1, 1), cap(1)])
        with pytest.raises(InvalidMove):
            apply_move(same, Move(MoveKind.R2_CANCEL, 1))

    def test_yang_baxter_rewrites_and_inverts(self):
        w = MorseWord(
            [cup(1), cup(2), cross(2, -1), cross(3, -1), cross(2, -1), cap(2), cap(1)]
        )
        out = apply_move(w, Move(MoveKind.YANG_BAXTER, 2))
        assert [e.token() for e in out.events[2:5]] == ["x3-", "x2-", "x3-"]
        assert apply_move(out, Move(MoveKind.YANG_BAXTER, 2)) == w

    def test_mixed_sign_yang_baxter_refused(self):
        w = MorseWord(
            [cup(1), cup(2), cross(2, 1), cross(3, -1), cross(2, 1), cap(2), cap(1)]
        )
        with pytest.raises(InvalidMove):
            apply_move(w, Move(MoveKind.YANG_BAXTER, 2))

    def test_bad_site_refused(self):
        # Site -7 would slice the word's first events, where an R1Insert fits.
        for move in Move(MoveKind.ZIGZAG_CANCEL, 99), Move(MoveKind.R1_INSERT, -7, (1, "cup")):
            with pytest.raises(InvalidMove, match="does not apply"):
                apply_move(TREFOIL, move)


class TestEnumeration:
    def test_every_enumerated_move_applies(self, rng):
        for _ in range(150):
            w = random_closed_word(rng)
            for m in enumerate_moves(w):
                out = apply_move(w, m)
                assert len(out.events) == len(w.events) + LENGTH_DELTA[m.kind]

    def test_deterministic_order(self, rng):
        for _ in range(50):
            w = random_closed_word(rng)
            ms = enumerate_moves(w)
            order = list(MoveKind)
            assert ms == sorted(ms, key=lambda m: (m.site, order.index(m.kind), m.params))
            assert ms == enumerate_moves(w)

    def test_move_equality_includes_kind(self):
        r2, zigzag = Move(MoveKind.R2_CANCEL, 3), Move(MoveKind.ZIGZAG_CANCEL, 3)
        assert r2 != zigzag
        assert len({r2, zigzag}) == 2
        assert r2 == Move(MoveKind.R2_CANCEL, 3)
        assert hash(r2) == hash(Move(MoveKind.R2_CANCEL, 3))

    def test_trefoil_has_both_kink_insertions_at_each_critical(self):
        kinds = [m for m in enumerate_moves(TREFOIL) if m.kind is MoveKind.R1_INSERT]
        assert len(kinds) == 2 * 4  # two signs at each of 4 cups/caps


class TestSoundness:
    def test_component_count_preserved(self, rng):
        for _ in range(120):
            w = random_closed_word(rng)
            for m in enumerate_moves(w)[::3]:
                assert apply_move(w, m).component_count == w.component_count

    def test_bracket_preserved(self, rng):
        pairs = 0
        while pairs < 250:
            w = random_knot_word(rng, max_events=16, max_crossings=5)
            base_bracket = kauffman_bracket(w)
            base_jones = jones_normalized(w)
            moves = enumerate_moves(w)
            m = moves[rng.randrange(len(moves))]
            out = apply_move(w, m)
            if m.kind not in WRITHE_CHANGING:
                assert kauffman_bracket(out) == base_bracket, (str(w), str(m))
            assert jones_normalized(out) == base_jones, (str(w), str(m))
            pairs += 1

    def test_inverse_round_trip(self, rng):
        for _ in range(120):
            w = random_closed_word(rng)
            for m in enumerate_moves(w)[::2]:
                out = apply_move(w, m)
                assert apply_move(out, inverse_move(w, m)) == w, (str(w), str(m))

    def test_only_zigzags_and_cup_cap_exchanges_change_the_profile(self, rng):
        # A crossing repeats the strand count, and two cups (or two caps) step
        # it the same way in either order, so every other move keeps the levels.
        zigzags = (MoveKind.ZIGZAG_CANCEL, MoveKind.ZIGZAG_INSERT)
        checked = 0
        for _ in range(300):
            w = random_closed_word(rng)
            profile = level_profile(w)
            for m in enumerate_moves(w):
                if m.kind in zigzags:
                    continue
                if m.kind is MoveKind.COMMUTE_DISTANT:
                    pair = {e.kind for e in w.events[m.site : m.site + 2]}
                    if pair == {EventKind.CUP, EventKind.CAP}:
                        continue
                assert level_profile(apply_move(w, m)) == profile, (str(w), str(m))
                checked += 1
        assert checked > 10_000

    def test_plain_commute_is_involution(self, rng):
        # Exception: a commute landing exactly on the cap-cup coincident
        # pair is ambiguous to re-apply bare; its inverse carries a side.
        for _ in range(150):
            w = random_closed_word(rng)
            for m in enumerate_moves(w):
                if m.kind is MoveKind.COMMUTE_DISTANT and not m.params:
                    once = apply_move(w, m)
                    a, b = once.events[m.site], once.events[m.site + 1]
                    coincident = (
                        a.kind is EventKind.CAP
                        and b.kind is EventKind.CUP
                        and a.index == b.index
                    )
                    inv = inverse_move(w, m)
                    if coincident:
                        assert inv.params in (("left",), ("right",))
                    else:
                        assert inv == m
                        assert apply_move(once, m) == w
                    assert apply_move(once, inv) == w


class TestCanonicalKey:
    def test_collapses_crossing_commutes(self, rng):
        hits = 0
        while hits < 100:
            w = random_closed_word(rng)
            for m in enumerate_moves(w):
                if m.kind is not MoveKind.COMMUTE_DISTANT:
                    continue
                a, b = w.events[m.site], w.events[m.site + 1]
                if a.kind is EventKind.CROSS and b.kind is EventKind.CROSS:
                    assert canonical_key(apply_move(w, m)) == canonical_key(w)
                    hits += 1

    def test_orders_distant_crossings(self):
        w = MorseWord([cup(1), cup(2), cross(3, 1), cross(1, -1), cap(2), cap(1)])
        key = canonical_key(w)
        assert [e.token() for e in key] == ["b1", "b2", "x1-", "x3+", "d2", "d1"]

    def test_adjacent_indices_not_reordered(self):
        w = MorseWord([cup(1), cup(2), cross(2, 1), cross(1, -1), cap(2), cap(1)])
        assert canonical_key(w) == w.events

    def test_distinct_words_distinct_keys(self, rng):
        # canonical keys stay within the commute class: same invariants
        for _ in range(80):
            w = random_closed_word(rng)
            assert width(MorseWord(list(canonical_key(w)))) == width(w)
