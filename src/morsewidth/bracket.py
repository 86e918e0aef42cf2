"""Kauffman bracket, writhe, and the writhe-normalized bracket.

Conventions, fixed once and used everywhere:

* Cross(i,+) is the braid generator whose lower-left strand passes over
  (bottom-left to top-right).  Cross(i,-) is its inverse.
* The A-smoothing of a positive letter is the vertical one (strands pass
  without touching); its B-smoothing is the horizontal cap-cup.  Negative
  letters swap the two.
* bracket(unknot) = 1; each extra loop contributes delta = -A^2 - A^-2.
* writhe counts each crossing +1 when the z-component of over x under
  (direction vectors of the two oriented strands) is positive, else -1.
* jones_normalized = (-A^3)^(-writhe) * bracket, invariant under all
  moves including the kink-absorbing ones.

The bracket is one bottom-to-top sweep over the word (Kauffman's state
model read as Temperley-Lieb algebra).  Its states are the crossingless
matchings of one level's strands, so a level of n strands holds at most
min(2^(crossings below), Catalan(n/2)) of them: the cost follows the
trunk, and it never exceeds the 2^c state sum.  Words above
MAX_STATE_SUM_CROSSINGS crossings are still refused outright; the cap is
kept for API and CLI compatibility, not because of cost.

A matching is an int, a Dyck word from strand 0 at the lowest bit: bit k
is 1 when strand k's partner lies above it.  A cup at i inserts the bits
1, 0 at i.  `_join` is a horizontal smoothing, a cap on strands i, i+1
and a cup in its place; a cap is `_join`, then drops bits i and i+1.

A smoothing moves an exponent by +-1 and delta by +-2, so at each level
every exponent has the parity of the crossings below it: p(A) = A^parity
* q(A^2), kept as one int P = q(B) * B^O, one digit of B = 2^b per power
of A^2.  At a crossing one of A * p and A^-1 * p is P itself and the
other P shifted by one digit; delta is -(P << b) - (P >> b).

Exactness needs only the offset O: int adds and shifts are exact however
large a digit grows, and a right shift only needs every term at digit 1
or above.  A crossing moves an exponent by at most 3 (A^-1 times
delta's A^-2), a cap by at most 2, and the last cap (never swept)
by 0.  So with c crossings and k caps every |exponent| <= M = 3c + 2k - 2,
and O = (M + 1) // 2 keeps every term in digits 0 to 2O.  The width b
only has to hold the final coefficients as signed digits in [-B/2, B/2).
A crossing weighs at most 1 + 2, a cap 2 and the last cap 1, so those
coefficients' absolute values sum to at most 3^c * 2^(k-1) < 2^(b-1).
"""

from __future__ import annotations

from typing import Optional

from .errors import BudgetExceeded
from .events import EventKind, MorseWord, require_closed, require_knot

MAX_STATE_SUM_CROSSINGS = 18


class LaurentPoly:
    """Laurent polynomial in A with integer coefficients, exact."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[dict[int, int]] = None):
        self._c = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exponent: int) -> "LaurentPoly":
        return cls({exponent: coeff})

    def coefficients(self) -> dict[int, int]:
        return dict(self._c)

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs, highest exponent first."""
        return tuple(sorted(self._c.items(), reverse=True))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                body = f"{mag}A^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._c!r})"


DELTA = LaurentPoly({2: -1, -2: -1})


def _partner(x: int, k: int) -> int:
    """Strand k's partner in matching x, by a depth scan away from k."""
    step = depth = 1 if x >> k & 1 else -1  # 1 opens, 0 closes
    while depth:
        k += step
        depth += 1 if x >> k & 1 else -1
    return k


def _join(x: int, i: int) -> tuple[int, bool]:
    """A cap on strands i, i+1 of a matching, then a cup in its place: the
    strands' partners pair up, and i pairs with i+1.  Returns the new
    matching and whether the cap closed a loop."""
    pair = x >> i & 3  # bit i is the low bit
    if pair == 1:  # i opens, i+1 closes: they are partners
        return x, True
    if pair == 2:  # i closes, i+1 opens: their partners pair up, bits unchanged
        return x ^ (3 << i), False
    j = i + 1 if pair == 3 else i  # both open or both close: j and its partner flip
    return x ^ (1 << j) ^ (1 << _partner(x, j)), False


def _cup(x: int, i: int) -> int:
    """A cup at strand i: the new strands i and i+1 are partners."""
    return (x >> i << (i + 2)) | (1 << i) | (x & ((1 << i) - 1))


def _cap(x: int, i: int) -> tuple[int, bool]:
    """A cap on strands i, i+1: (the matching without them, loop closed)."""
    x, loop = _join(x, i)
    return (x >> (i + 2) << i) | (x & ((1 << i) - 1)), loop


def kauffman_bracket(word: MorseWord) -> LaurentPoly:
    """Bracket of the closed diagram, exact in A, by one bottom-to-top sweep.

    Below each level the smoothed diagram is a crossingless matching of
    the level's strands plus closed loops.  The sweep maps each matching
    (an int, bit k set when strand k's partner lies above it) to the sum
    of A^(#A - #B smoothings) * delta^(closed loops) over the smoothings
    that give it, packed into one int as the module docstring says.
    """
    c = require_closed(word, "the bracket").crossing_count
    if c > MAX_STATE_SUM_CROSSINGS:
        raise BudgetExceeded(
            f"{c} crossings exceeds the state-sum cap of "
            f"{MAX_STATE_SUM_CROSSINGS}"
        )
    loops = (len(word.events) - c) // 2 - 1  # caps before the last one
    offset = (3 * c + 2 * loops + 1) // 2  # O and b, proved in the module docstring
    bits = (3**c << loops).bit_length() + 1
    states: dict[int, int] = {0: 1 << (offset * bits)}
    odd = False  # whether the states' exponents are odd
    for e in word.events[:-1]:  # the last cap's loop counts 1
        i = e.index - 1
        nxt: dict[int, int] = {}
        if e.kind is EventKind.CUP:
            for x, poly in states.items():  # one-to-one: nothing is copied
                nxt[_cup(x, i)] = poly
        elif e.kind is EventKind.CAP:
            while states:  # popping frees each old state once it is used
                x, poly = states.popitem()
                x, loop = _cap(x, i)
                if loop:
                    poly = -(poly << bits) - (poly >> bits)
                nxt[x] = nxt.get(x, 0) + poly
        else:
            # Even: A * p is P, A^-1 * p a digit down.  Odd: A^-1 * p is P,
            # A * p a digit up.  A positive letter's A-smoothing is vertical.
            vertical_moves = (e.sign > 0) == odd
            while states:
                x, poly = states.popitem()
                moved = poly << bits if odd else poly >> bits
                vertical, poly = (moved, poly) if vertical_moves else (poly, moved)
                nxt[x] = nxt.get(x, 0) + vertical
                x, loop = _join(x, i)
                if loop:
                    poly = -(poly << bits) - (poly >> bits)
                nxt[x] = nxt.get(x, 0) + poly
            odd = not odd
        states = nxt
    p, coeffs = states[0b01], {}  # two strands, each the other's partner
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    for exponent in range(odd - 2 * offset, 2 * offset + 2, 2):  # digits 0 to 2O
        digit = ((p + half) & mask) - half  # the signed digit in [-B/2, B/2)
        coeffs[exponent] = digit
        p = (p - digit) >> bits
    return LaurentPoly(coeffs)


def writhe(word: MorseWord) -> int:
    """Sum over crossings of sign * (+1 if both strands run the same way
    up the page, else -1), with the knot oriented by walking it.

    Every strand piece runs monotonically from its cup to its cap, so the
    strand trace the word keeps from its construction names the pieces (a
    cup opens ends a and a ^ 1) and one walk orients them: the two pieces a
    cup starts run opposite ways, and so do the two a cap joins.  Knots
    only: on a multi-component diagram the sum would depend on the
    orientation chosen for each component.
    """
    trace = require_knot(word)._trace
    ends = trace.ends
    up = [False] * len(ends)
    piece = 0
    for _ in range(len(ends) // 2):  # one upward piece per cup
        up[piece] = True
        piece = ends[piece ^ 1]
    signs = (e.sign for e in word.events if e.kind is EventKind.CROSS)
    pairs = iter(trace.crossed)  # left end, right end per crossing
    return sum(s if up[a] == up[b] else -s for s, a, b in zip(signs, pairs, pairs))


def _normalized(w: int, bracket: LaurentPoly) -> LaurentPoly:
    """(-A^3)^(-w) * bracket."""
    return LaurentPoly.term(1 if w % 2 == 0 else -1, -3 * w) * bracket


def jones_normalized(word: MorseWord) -> LaurentPoly:
    """(-A^3)^(-writhe) * bracket; unchanged by every rewrite move."""
    return _normalized(writhe(word), kauffman_bracket(word))
