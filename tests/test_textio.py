"""Text format: parsing, serializing, profile rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_closed_word, random_knot_word
from morsewidth.catalog import catalog, entries
from morsewidth.errors import ParseError, ValidationError
from morsewidth.events import MorseWord, TangleWord, cap, cross, cup
from morsewidth.textio import parse, render_profile, serialize

TREFOIL_TEXT = "b1 b2 x3- x3- x3- d2 d1"


class TestParse:
    def test_trefoil(self):
        word = parse(TREFOIL_TEXT)
        assert isinstance(word, MorseWord)
        assert word.events == (cup(1), cup(2), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1))

    def test_whitespace_and_newlines(self):
        assert parse("  b1\n\tb2  x3+\nd2 d1  ") == parse("b1 b2 x3+ d2 d1")

    def test_comments_stripped(self):
        text = "b1 b2  # open two strands\nx3- x3- x3-  # three half twists\nd2 d1\n"
        assert parse(text) == parse(TREFOIL_TEXT)

    def test_comment_only_line(self):
        assert parse("# header\nb1 d1\n# footer") == parse("b1 d1")

    def test_tangle_header(self):
        word = parse("tangle 2\nx1+ d1")
        assert isinstance(word, TangleWord)
        assert word.boundary_strands == 2

    def test_tangle_header_inline(self):
        assert parse("tangle 2 x1+ d1") == parse("tangle 2\nx1+ d1")

    def test_round_trip_catalog(self):
        for name, _ in entries():
            if "(" in name:
                name = "torus_plat(3,4)"
            word = catalog(name)
            assert parse(serialize(word)) == word

    def test_round_trip_fuzz(self, rng):
        for _ in range(300):
            word = random_closed_word(rng)
            assert parse(serialize(word)) == word

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def test_round_trip_hypothesis(self, seed):
        import random

        word = random_knot_word(random.Random(seed), max_events=18, max_crossings=6)
        assert parse(serialize(word)) == word


class TestParseErrors:
    def test_bad_token_position(self):
        with pytest.raises(ParseError) as err:
            parse("b1 b2\nx3- q9 x3-\nd2 d1")
        assert err.value.line == 2
        assert err.value.column == 5

    def test_bad_token_first_line(self):
        with pytest.raises(ParseError) as err:
            parse("banana")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_column_counts_characters_not_tokens(self):
        with pytest.raises(ParseError) as err:
            parse("b1   XX")
        assert err.value.column == 6

    def test_missing_sign(self):
        with pytest.raises(ParseError):
            parse("b1 x1 d1")

    def test_tangle_missing_count(self):
        with pytest.raises(ParseError):
            parse("tangle")

    def test_tangle_bad_count(self):
        with pytest.raises(ParseError):
            parse("tangle two\nx1+ d1")

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            parse("")

    def test_index_zero_parses_then_fails_validation(self):
        # b0 is lexically fine; the word constructor rejects it
        with pytest.raises(ValidationError) as err:
            parse("b0 d0")
        assert any(v.code == "BadIndex" for v in err.value.violations)


class TestRender:
    def test_ascii_trefoil(self):
        # only the classified (thick/thin) gaps are drawn
        out = render_profile(catalog("trefoil_plat"), fmt="ascii")
        assert out == "thick   4 ####\n"

    def test_ascii_humped(self):
        word = MorseWord([cup(1), cup(1), cap(1), cup(1), cap(1), cap(1)])
        out = render_profile(word, fmt="ascii")
        assert out.splitlines() == [
            "thick   4 ####",
            " thin   2 ##",
            "thick   4 ####",
        ]

    def test_ascii_top_gap_first(self):
        from morsewidth.catalog import realize_profile

        word = realize_profile([2, 4, 2, 4, 6, 4, 2])
        out = render_profile(word, fmt="ascii")
        assert out == "thick   6 ######\n thin   2 ##\nthick   4 ####\n"

    def test_svg_structure(self):
        out = render_profile(catalog("trefoil_plat"), fmt="svg")
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")
        assert out.count("<rect") == 1
        assert "#4477aa" in out  # thick fill
        assert "<title>thick 4</title>" in out
        # One thick row of 4: 2 * pad 8 + 4 * unit 12 wide, 2 * pad + bar 18 high.
        assert 'width="64" height="34"' in out

    def test_svg_thin_color(self):
        word = MorseWord([cup(1), cup(1), cap(1), cup(1), cap(1), cap(1)])
        out = render_profile(word, fmt="svg")
        assert "#cc6677" in out

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_profile(catalog("unknot"), fmt="png")


class TestSerialize:
    def test_matches_str(self):
        word = catalog("figure8_plat")
        assert serialize(word) == str(word)

    def test_tangle_includes_header(self):
        word = TangleWord(2, [cross(1, 1), cap(1)])
        assert serialize(word).startswith("tangle 2")
