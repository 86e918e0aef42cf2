"""Gap profiles and the numerical invariants built on them."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_bridge_word, random_closed_word, random_knot_word
from morsewidth.bracket import jones_normalized, kauffman_bracket, writhe
from morsewidth.catalog import catalog
from morsewidth.cli import _load_closed
from morsewidth.errors import ValidationError
from morsewidth.events import EventKind, MorseWord, TangleWord, cap, cross, cup, require_knot
from morsewidth.invariants import (
    NEITHER,
    THICK,
    THIN,
    average_trunk,
    bridge_count,
    connected_sum,
    critical_count,
    embedding_report,
    height,
    is_bridge_position,
    level_profile,
    otp_compare,
    otp_vector,
    proportion,
    rep_upper_bound,
    tangle_trunk,
    trunk,
    waist_upper_bound,
    width,
)
from morsewidth.moves import enumerate_moves
from morsewidth.search import classify_positions
from morsewidth.textio import serialize
from oracles import oracle_gaps, oracle_width

TREFOIL = MorseWord([cup(1), cup(2), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1)])
UNKNOT = MorseWord([cup(1), cap(1)])


class TestLevelProfile:
    def test_trefoil_gaps(self):
        gaps = level_profile(TREFOIL).gaps
        assert [(g.width, g.classification) for g in gaps] == [
            (2, NEITHER),
            (4, THICK),
            (2, NEITHER),
        ]

    def test_unknot_single_thick_gap(self):
        gaps = level_profile(UNKNOT).gaps
        assert [(g.width, g.classification) for g in gaps] == [(2, THICK)]

    def test_profile_matches_reference_scan(self, rng):
        for _ in range(400):
            w = random_closed_word(rng)
            got = [(g.width, g.classification) for g in level_profile(w).gaps]
            assert got == oracle_gaps(w.events)

    def test_levels_are_the_collapsed_strand_counts(self, rng):
        links = 0
        for _ in range(400):
            w = random_closed_word(rng)
            links += w.component_count > 1
            lp = level_profile(w)
            lv = lp.levels
            assert lv[0] == lv[-1] == 0
            assert all(abs(above - below) == 2 for below, above in zip(lv, lv[1:]))
            assert lp.widths == lv[1:-1]
            # Gap t sits at lv[t + 1]; its extrema are the oracle's classes.
            steps = list(enumerate(zip(lv, lv[1:], lv[2:])))
            maxima = [(t, g) for t, (below, g, above) in steps if below < g > above]
            minima = [(t, g) for t, (below, g, above) in steps if below > g < above]
            gaps = list(enumerate(oracle_gaps(w.events)))
            assert maxima == [(t, g) for t, (g, cls) in gaps if cls == THICK]
            assert minima == [(t, g) for t, (g, cls) in gaps if cls == THIN]
        assert links > 0

    def test_thin_gap_word(self):
        # two humps: thick 2, thin 2 between them is impossible; use 4,2,4
        w = MorseWord([cup(1), cup(1), cap(1), cup(1), cap(1), cap(1)])
        lp = level_profile(w)
        assert lp.thick_widths == (4, 4)
        assert lp.thin_widths == (2,)


class TestWidth:
    def test_anchors(self):
        assert width(UNKNOT) == 2
        assert width(TREFOIL) == 8

    def test_square_identity_fuzz(self, rng):
        for _ in range(1500):
            w = random_closed_word(rng)
            lp = level_profile(w)
            thick, thin = lp.thick_widths, lp.thin_widths
            assert len(thick) == len(thin) + 1
            assert 2 * width(w) == sum(t * t for t in thick) - sum(s * s for s in thin)
            assert width(w) == oracle_width(w.events)
            assert critical_count(w) == sum(e.kind is not EventKind.CROSS for e in w.events)

    def test_thick_thin_alternate(self, rng):
        for _ in range(300):
            w = random_closed_word(rng)
            classified = [
                g.classification
                for g in level_profile(w).gaps
                if g.classification != NEITHER
            ]
            assert classified[0] == THICK and classified[-1] == THICK
            for a, b in zip(classified, classified[1:]):
                assert a != b


class TestCounts:
    def test_bridge_and_critical(self):
        assert bridge_count(TREFOIL) == 2
        assert critical_count(TREFOIL) == 4
        assert height(TREFOIL) == 1
        assert trunk(TREFOIL) == 4

    def test_trunk_at_thick_gap(self, rng):
        for _ in range(300):
            w = random_closed_word(rng)
            t = trunk(w)
            assert t in level_profile(w).thick_widths

    def test_trunk_bound_fuzz(self, rng):
        for _ in range(600):
            w = random_closed_word(rng)
            assert trunk(w) <= 2 * bridge_count(w)

    def test_bridge_positions_meet_trunk_bound(self, rng):
        for _ in range(300):
            w = random_bridge_word(rng)
            assert is_bridge_position(w)
            assert trunk(w) == 2 * bridge_count(w)

    def test_is_bridge_position(self):
        assert is_bridge_position(TREFOIL)
        humped = MorseWord([cup(1), cup(1), cap(1), cup(1), cap(1), cap(1)])
        assert not is_bridge_position(humped)


class TestRatios:
    def test_proportion_one_on_bridge_positions(self, rng):
        assert proportion(TREFOIL) == 1
        for _ in range(200):
            w = random_bridge_word(rng)
            assert proportion(w) == 1

    def test_proportion_exact_fraction(self):
        humped = MorseWord([cup(1), cup(1), cap(1), cup(1), cap(1), cap(1)])
        # trunk 4, height 2, bridge 3
        assert proportion(humped) == Fraction(4, 12) == Fraction(1, 3)

    def test_average_trunk(self):
        humped = MorseWord([cup(1), cup(1), cap(1), cup(1), cap(1), cap(1)])
        assert average_trunk(humped) == Fraction(4, 1)
        assert average_trunk(TREFOIL) == Fraction(4, 1)

    def test_bounds(self):
        assert rep_upper_bound(TREFOIL) == 2
        assert rep_upper_bound(UNKNOT) == 1
        assert waist_upper_bound(TREFOIL) == 1
        assert waist_upper_bound(UNKNOT) == 0

    def test_knot_guard(self):
        link = MorseWord([cup(1), cup(1), cap(1), cap(1)])
        for fn in (rep_upper_bound, waist_upper_bound, embedding_report):
            with pytest.raises(ValidationError):
                fn(link)


class TestOtp:
    def test_vector_sorted_non_increasing(self, rng):
        for _ in range(200):
            v = otp_vector(random_closed_word(rng))
            assert all(a >= b for a, b in zip(v, v[1:]))

    def test_compare_examples(self):
        assert otp_compare((8, 8), (10, 10, 10)) == -1
        assert otp_compare((10, 10, 10), (8, 8)) == 1
        assert otp_compare((10, 10), (10, 10, 10)) == -1  # prefix precedes
        assert otp_compare((12,), (10, 10, 10)) == 1
        assert otp_compare((4,), (4,)) == 0

    def test_compare_accepts_words(self):
        assert otp_compare(TREFOIL, UNKNOT) == 1

    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(deadline=None)
    def test_total_preorder(self, triples):
        vecs = [tuple(sorted(t, reverse=True)) for t in triples]
        for a in vecs:
            assert otp_compare(a, a) == 0
        for a in vecs:
            for b in vecs:
                assert otp_compare(a, b) == -otp_compare(b, a)
        for a in vecs:
            for b in vecs:
                for c in vecs:
                    if otp_compare(a, b) <= 0 and otp_compare(b, c) <= 0:
                        assert otp_compare(a, c) <= 0


class TestConnectedSum:
    def test_trefoil_pair(self):
        s = connected_sum(TREFOIL, TREFOIL)
        assert width(s) == 8 + 8 - 2
        assert bridge_count(s) == 2 + 2 - 1
        assert trunk(s) == 4
        assert s.component_count == 1

    def test_unknot_is_neutral_for_width(self):
        s = connected_sum(TREFOIL, UNKNOT)
        assert width(s) == width(TREFOIL)
        assert bridge_count(s) == bridge_count(TREFOIL)

    def test_fuzzed_bridge_pairs(self, rng):
        for _ in range(300):
            a, b = random_bridge_word(rng), random_bridge_word(rng)
            s = connected_sum(a, b)
            assert s.component_count == 1
            assert width(s) == width(a) + width(b) - 2
            assert bridge_count(s) == bridge_count(a) + bridge_count(b) - 1
            assert trunk(s) == max(trunk(a), trunk(b))

    def test_rejects_links(self):
        link = MorseWord([cup(1), cup(1), cap(1), cap(1)])
        with pytest.raises(ValidationError):
            connected_sum(link, TREFOIL)
        with pytest.raises(ValidationError):
            connected_sum(TREFOIL, link)


class TestTangleTrunk:
    def test_values(self):
        t = TangleWord(4, [cross(1, 1), cross(2, 1), cap(2), cap(1)])
        assert tangle_trunk(t) == 4
        t2 = TangleWord(4, [cross(1, 1), cross(3, -1), cup(3), cap(2), cap(2), cap(1)])
        assert tangle_trunk(t2) == 6

    def test_boundary_level_counts(self):
        # trunk can be met at the boundary itself
        t = TangleWord(6, [cap(1), cap(1), cap(1)])
        assert tangle_trunk(t) == 6

    @pytest.mark.parametrize("name", ["rational_tangle", "two_rational_sum"])
    @pytest.mark.parametrize(
        "invariant",
        [
            width,
            trunk,
            height,
            bridge_count,
            critical_count,
            otp_vector,
            proportion,
            average_trunk,
            rep_upper_bound,
            waist_upper_bound,
            is_bridge_position,
            level_profile,
            embedding_report,
            lambda t: otp_compare(t, [4]),
            lambda t: otp_compare([4], t),
            # Not only the level functions: every operation on closed words
            # refuses a tangle by one guard, not as a link or by AttributeError.
            require_knot,
            kauffman_bracket,
            writhe,
            jones_normalized,
            lambda t: classify_positions([t]),
            lambda t: _load_closed(serialize(t)),
            lambda t: connected_sum(t, TREFOIL),
            lambda t: connected_sum(TREFOIL, t),
            enumerate_moves,
        ],
    )
    def test_level_invariants_refuse_tangles(self, name, invariant):
        with pytest.raises(ValueError, match="needs a closed word, got a tangle"):
            invariant(catalog(name))


class TestReport:
    def test_dict_key_order(self):
        d = embedding_report(TREFOIL).as_dict()
        assert list(d) == [
            "width",
            "trunk",
            "height",
            "bridge",
            "critical_count",
            "otp_vector",
            "proportion",
            "average_trunk",
            "rep_upper",
            "waist_upper",
        ]
        assert d["proportion"] == {"num": 1, "den": 1}
        assert d["otp_vector"] == [4]

    def test_fields_match_reference_scan(self, rng):
        def ratio(num, den):
            q = Fraction(num, den)
            return {"num": q.numerator, "den": q.denominator}

        for _ in range(400):
            w = random_knot_word(rng)
            if rng.random() < 0.5:  # a sum of two words of bridge 2 or more has a thin gap
                w = connected_sum(w, random_knot_word(rng))
            gaps = oracle_gaps(w.events)
            widths = [g for g, _ in gaps]
            thick = [g for g, cls in gaps if cls == THICK]
            caps = sum(e.kind is EventKind.CAP for e in w.events)
            cups = sum(e.kind is EventKind.CUP for e in w.events)
            top = max(widths)
            assert embedding_report(w).as_dict() == {
                "width": sum(widths),
                "trunk": top,
                "height": len(thick),
                "bridge": caps,
                "critical_count": cups + caps,
                "otp_vector": sorted(thick, reverse=True),
                "proportion": ratio(top, len(thick) * 2 * caps),
                "average_trunk": ratio(sum(thick), len(thick)),
                "rep_upper": min(caps, top // 2),
                "waist_upper": top // 3,
            }
