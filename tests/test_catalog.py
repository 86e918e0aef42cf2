"""Named words, profile constructors, torus plats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsewidth.bracket import jones_normalized
from morsewidth.catalog import (
    catalog,
    entries,
    pad_with_fingers,
    profile_from_extrema,
    realize_profile,
    torus_plat,
)
from morsewidth.errors import UnknownName, ValidationError
from morsewidth.events import MorseWord, TangleWord, component_count
from morsewidth.invariants import (
    embedding_report,
    level_profile,
    tangle_trunk,
    width,
)

# frozen (name, width, trunk, height, bridge) for every closed entry
CLOSED_REPORTS = [
    ("unknot", 2, 2, 1, 1),
    ("trefoil_plat", 8, 4, 1, 2),
    ("figure8_plat", 18, 6, 1, 3),
    ("padded_trefoil", 18, 6, 1, 3),
    ("cex4_gamma", 242, 22, 1, 11),
    ("cex4_gamma_prime", 242, 18, 2, 13),
    ("bt134", 134, 10, 3, 11),
    ("bt_mcp", 136, 12, 2, 10),
    ("stack_101010", 146, 10, 3, 13),
]


class TestFrozenEntries:
    @pytest.mark.parametrize("name,w,t,h,b", CLOSED_REPORTS)
    def test_closed_reports(self, name, w, t, h, b):
        rep = embedding_report(catalog(name))
        assert (rep.width, rep.trunk, rep.height, rep.bridge) == (w, t, h, b)

    def test_figure8_bracket(self):
        # The level report alone would pass another knot with the same levels.
        bracket = jones_normalized(catalog("figure8_plat"))
        assert bracket.coefficients() == {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}

    def test_otp_vectors(self):
        assert embedding_report(catalog("trefoil_plat")).otp_vector == (4,)
        assert embedding_report(catalog("padded_trefoil")).otp_vector == (6,)
        assert embedding_report(catalog("cex4_gamma_prime")).otp_vector == (18, 14)
        assert embedding_report(catalog("bt134")).otp_vector == (10, 10, 10)

    def test_proportions(self):
        assert embedding_report(catalog("cex4_gamma")).proportion == 1
        assert embedding_report(catalog("cex4_gamma_prime")).proportion == Fraction(9, 26)
        assert embedding_report(catalog("bt134")).proportion == Fraction(5, 33)
        assert embedding_report(catalog("bt_mcp")).proportion == Fraction(3, 10)

    def test_equal_width_different_shape(self):
        # the two 242-wide stand-ins split the same width across different heights
        gamma = embedding_report(catalog("cex4_gamma"))
        prime = embedding_report(catalog("cex4_gamma_prime"))
        assert gamma.width == prime.width == 242
        assert gamma.height == 1 and prime.height == 2
        assert gamma.trunk > prime.trunk

    def test_tangles(self):
        rational = catalog("rational_tangle")
        both = catalog("two_rational_sum")
        assert isinstance(rational, TangleWord)
        assert tangle_trunk(rational) == 4
        assert tangle_trunk(both) == 6
        assert rational.arc_count == 2
        assert both.arc_count == 2
        assert component_count(rational) == 0  # no closed loops inside

    def test_stand_ins_are_honest(self):
        # profile realizers: exact single-component crossingless words
        for name in ("cex4_gamma", "cex4_gamma_prime", "bt134", "bt_mcp", "stack_101010"):
            word = catalog(name)
            assert word.crossing_count == 0
            assert component_count(word) == 1

    def test_entries_listing(self):
        rows = entries()
        names = [n for n, _ in rows]
        assert "trefoil_plat" in names
        assert "torus_plat(p,q)" in names
        assert all(desc for _, desc in rows)

    def test_unknown_name(self):
        with pytest.raises(UnknownName) as err:
            catalog("borromean")
        assert "trefoil_plat" in str(err.value)

    def test_parametric_lookup(self):
        assert catalog("torus_plat(2,3)") == catalog("trefoil_plat")
        assert catalog("torus_plat(3, 5)").crossing_count == 10


class TestRealizeProfile:
    def test_exact_profile(self):
        word = realize_profile([2, 4, 6, 4, 2])
        assert level_profile(word).widths == (2, 4, 6, 4, 2)
        assert width(word) == 18

    def test_validation(self):
        for bad in ([], [2, 4], [4, 2, 4], [2, 3, 2], [2, 6, 2], [2, 4, 0, 4, 2]):
            with pytest.raises(ValueError):
                realize_profile(bad)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40))
    def test_random_walk_profiles(self, seed, steps):
        import random

        rng = random.Random(seed)
        prof = [2]
        for _ in range(steps):
            lo = prof[-1] == 2
            prof.append(prof[-1] + (2 if lo or rng.random() < 0.5 else -2))
        while prof[-1] != 2:
            prof.append(prof[-1] - 2)
        word = realize_profile(prof)
        assert level_profile(word).widths == tuple(prof)
        assert word.crossing_count == 0
        assert component_count(word) == 1


class TestProfileFromExtrema:
    def test_single_peak(self):
        prof = profile_from_extrema([8], [])
        assert prof == [2, 4, 6, 8, 6, 4, 2]

    def test_two_peaks(self):
        prof = profile_from_extrema([6, 8], [4])
        assert prof == [2, 4, 6, 4, 6, 8, 6, 4, 2]

    def test_plateau_peaks_repeat(self):
        # equal neighbor extrema still walk down to the thin level and back
        prof = profile_from_extrema([6, 6], [2])
        assert prof == [2, 4, 6, 4, 2, 4, 6, 4, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            profile_from_extrema([6, 6], [])  # count mismatch
        with pytest.raises(ValueError):
            profile_from_extrema([5], [])  # odd level
        with pytest.raises(ValueError):
            profile_from_extrema([6, 4], [4])  # thin not strictly below

    def test_composes_with_realizer(self):
        word = realize_profile(profile_from_extrema([10, 10, 10], [4, 4]))
        rep = embedding_report(word)
        assert rep.otp_vector == (10, 10, 10)
        assert rep.width == 134


class TestPadWithFingers:
    def test_width_grows_trunk_grows(self):
        base = catalog("trefoil_plat")
        rep0 = embedding_report(base)
        rep1 = embedding_report(pad_with_fingers(base, 1))
        rep2 = embedding_report(pad_with_fingers(base, 2))
        assert rep0.width < rep1.width < rep2.width
        assert rep1.trunk == rep0.trunk + 2
        assert rep2.trunk == rep0.trunk + 4
        assert pad_with_fingers(base) == pad_with_fingers(base, 1)

    def test_knot_preserved(self):
        base = catalog("trefoil_plat")
        assert jones_normalized(pad_with_fingers(base, 2)) == jones_normalized(base)

    def test_zero_count_is_identity(self):
        base = catalog("figure8_plat")
        assert pad_with_fingers(base, 0) == base

    def test_negative_count_refused(self):
        with pytest.raises(ValueError, match=r"^count must be 0 or more, got -3$"):
            pad_with_fingers(catalog("trefoil_plat"), -3)


class TestTorusPlat:
    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 2)])
    def test_report_formulas(self, p, q):
        rep = embedding_report(torus_plat(p, q))
        assert rep.width == 2 * p * p
        assert rep.trunk == 2 * p
        assert rep.height == 1
        assert rep.bridge == p
        assert rep.proportion == 1

    def test_crossing_count(self):
        assert torus_plat(3, 4).crossing_count == (3 - 1) * 4

    def test_sign_choice(self):
        mirror = torus_plat(2, 3, sign=+1)
        assert all(e.sign == +1 for e in mirror.events if e.sign)

    def test_non_coprime_refused(self):
        with pytest.raises(ValidationError) as err:
            torus_plat(2, 2)
        assert err.value.violations[0].code == "MultipleComponents"

    def test_degenerate_refused(self):
        with pytest.raises(ValueError):
            torus_plat(1, 1)
        with pytest.raises(ValueError):
            torus_plat(2, 0)
