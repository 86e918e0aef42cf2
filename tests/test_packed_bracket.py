"""Edge cases of the packed bracket sweep, where each state's polynomial is
one int: the exponent offset, the digit width and the signed-digit
decoding, against the state-sum oracle or closed forms."""

from math import comb

import pytest

from morsewidth.bracket import DELTA, LaurentPoly, kauffman_bracket
from morsewidth.textio import parse

from oracles import oracle_bracket


def test_offset_covers_the_lowest_partial_exponent():
    # With an offset of c + 2 caps + 2 a right shift in this sweep is not
    # exact and the bracket comes out wrong; 3c + 2 caps + 2 is needed.
    word = parse("b1 b3 x1+ x1+ x1+ x3+ x2+ x3+ d1 d1")
    assert kauffman_bracket(word).coefficients() == oracle_bracket(word)
    assert kauffman_bracket(word) == LaurentPoly.term(1, -12)


@pytest.mark.parametrize("sign", [+1, -1])
def test_eighteen_kinks_span_the_widest_exponent_range(sign):
    # Each kink is a factor -A^(-3 sign), so the bracket is A^(-54 sign):
    # every crossing moves the exponent by the full 3 the offset allows.
    word = parse("b1 " + f"x1{'+' if sign > 0 else '-'} " * 18 + "d1")
    assert word.crossing_count == 18
    assert kauffman_bracket(word) == LaurentPoly.term(1, -54 * sign)


@pytest.mark.parametrize("text", ["b1 d1 " * 40, "b1 " * 40 + "d1 " * 40])
def test_forty_circle_unlink_fits_the_digit_width(text):
    # Coefficients up to C(39, 19) = 68,923,264,410, with no crossing to
    # widen the digits: the caps alone must pay for them.
    word = parse(text)
    assert word.component_count == 40
    bracket = kauffman_bracket(word)
    assert bracket == DELTA**39
    assert max(abs(c) for c in bracket.coefficients().values()) == comb(39, 19)


def test_crossings_widen_the_digits():
    # A 2-bridge plat of the continued fraction [1, ..., 1]: two caps, but
    # the 14 alternating crossings give coefficients up to 57.
    word = parse("b1 b1 " + "x2+ x1- " * 7 + "d1 d1")
    expected = oracle_bracket(word)
    assert max(abs(c) for c in expected.values()) == 57
    assert kauffman_bracket(word).coefficients() == expected


@pytest.mark.parametrize(
    "text",
    [
        "b1 b1 x2+ x2+ d1 d1",  # -A^4 - A^-4: the zero at A^0 between them
        "b1 b1 x2+ x2+ x2+ d1 d1",  # trefoil, top coefficient negative
        "b1 b1 x2- x2- x2- d1 d1",
        "b1 b1 x2+ x2+ x2+ x2+ d1 d1",
        "b1 b1 x2+ x2+ x2+ x2+ x2+ d1 d1",
        "b1 b1 x2+ x2+ x2+ x2+ x2+ x2+ x2+ d1 d1",
    ],
)
def test_signed_digits_decode_across_zero_coefficients(text):
    word = parse(text)
    expected = oracle_bracket(word)
    # In the exponent lattice of the bracket (one residue mod 4), some
    # coefficient between the lowest and the highest is zero, and some
    # coefficient is negative: a borrow must cross the gap.
    low, high = min(expected), max(expected)
    assert any(expected.get(e, 0) == 0 for e in range(low, high, 4))
    assert min(expected.values()) < 0
    assert kauffman_bracket(word).coefficients() == expected
