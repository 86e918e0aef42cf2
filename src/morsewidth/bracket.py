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

Each state's polynomial p(A) is one int P = p(B) * B^O with B = 2^b: a
sum of states is an int add, A^(+-1) a shift by b bits, and delta
-(P << 2b) - (P >> 2b).  With c crossings and k caps, O = 3c + 2k + 2
makes every right shift exact: a crossing lowers an exponent by at most 3
(A^-1 times delta's A^-2), a cap by at most 2.  And b = 2c + k + 2 makes
every coefficient a signed digit: a crossing's two smoothings weigh at
most 1 + 2 and a cap at most 2, so none exceeds 3^c * 2^k < 2^(b-1).
"""

from __future__ import annotations

from typing import Optional

from .errors import BudgetExceeded
from .events import EventKind, MorseWord, require_knot

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


def _join(key: str, i: int) -> tuple[str, bool]:
    """A cap on strands i, i+1 of a matching, then a cup in its place: the
    strands' partners pair up, and i pairs with i+1.  Returns the new
    matching and whether the cap closed a loop."""
    a, b = ord(key[i]), ord(key[i + 1])
    if a == i + 1:
        return key, True
    s = list(key)
    s[a], s[b], s[i], s[i + 1] = key[i + 1], key[i], chr(i + 1), chr(i)
    return "".join(s), False


def kauffman_bracket(word: MorseWord) -> LaurentPoly:
    """Bracket of the closed diagram, exact in A, by one bottom-to-top sweep.

    Below each level the smoothed diagram is a crossingless matching of
    the level's strands plus closed loops.  The sweep maps each matching
    (a str whose k-th character is chr(partner of strand k)) to the sum
    of A^(#A - #B smoothings) * delta^(closed loops) over the smoothings
    that give it, packed into one int as the module docstring says.
    """
    c = word.crossing_count
    if c > MAX_STATE_SUM_CROSSINGS:
        raise BudgetExceeded(
            f"{c} crossings exceeds the state-sum cap of "
            f"{MAX_STATE_SUM_CROSSINGS}"
        )
    caps = (len(word.events) - c) // 2  # a closed word has as many cups as caps
    offset = 3 * c + 2 * caps + 2  # O and b, proved in the module docstring
    bits = 2 * c + caps + 2
    a2 = 2 * bits  # A^(+-2) is a shift by a2 bits
    states: dict[str, int] = {"": 1 << (offset * bits)}
    last = len(word.events) - 1
    for pos, e in enumerate(word.events):
        i, n = e.index - 1, word.counts[pos]
        nxt: dict[str, int] = {}
        if e.kind is EventKind.CUP:
            up = {k: k + 2 for k in range(i, n)}
            for key, poly in states.items():  # one-to-one: nothing is copied
                key = key.translate(up)
                nxt[key[:i] + chr(i + 1) + chr(i) + key[i:]] = poly
        elif e.kind is EventKind.CAP:
            down = {k: k - 2 for k in range(i + 2, n)}
            while states:  # popping frees each old state once it is used
                key, poly = states.popitem()
                key, loop = _join(key, i)
                if loop and pos != last:  # the last loop counts 1, not delta
                    poly = -(poly << a2) - (poly >> a2)
                key = (key[:i] + key[i + 2 :]).translate(down)
                nxt[key] = nxt.get(key, 0) + poly
        else:
            while states:
                key, poly = states.popitem()
                # A-smoothing (weight A) of a positive letter is vertical.
                a, a_inv = poly << bits, poly >> bits  # A * poly and A^-1 * poly
                vertical, poly = (a, a_inv) if e.sign > 0 else (a_inv, a)
                nxt[key] = nxt.get(key, 0) + vertical
                key, loop = _join(key, i)
                if loop:
                    poly = -(poly << a2) - (poly >> a2)
                nxt[key] = nxt.get(key, 0) + poly
        states = nxt
    p, exponent, coeffs = states[""], -offset, {}
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    while p:
        digit = ((p + half) & mask) - half  # the signed digit in [-B/2, B/2)
        coeffs[exponent] = digit
        p, exponent = (p - digit) >> bits, exponent + 1
    return LaurentPoly(coeffs)


def writhe(word: MorseWord) -> int:
    """Sum over crossings of sign * (+1 if both strands run the same way
    up the page, else -1), with the knot oriented by walking it.

    Every strand piece runs monotonically from its cup to its cap, so one
    sweep names the pieces and one walk orients them: the two pieces a
    cup starts run opposite ways, and so do the two a cap joins.  Knots
    only: on a multi-component diagram the sum would depend on the
    orientation chosen for each component.
    """
    require_knot(word)
    slots: list[int] = []  # piece id per strand of the current level
    capped: dict[int, int] = {}  # piece -> the piece a cap joins it to
    crossings: list[tuple[int, int, int]] = []  # (sign, left piece, right piece)
    pieces = 0
    for e in word.events:
        i = e.index - 1
        if e.kind is EventKind.CUP:
            slots[i:i] = [pieces, pieces + 1]  # cup partners differ in the last bit
            pieces += 2
        elif e.kind is EventKind.CAP:
            a, b = slots[i], slots[i + 1]
            capped[a], capped[b] = b, a
            del slots[i : i + 2]
        else:
            crossings.append((e.sign, slots[i], slots[i + 1]))
            slots[i], slots[i + 1] = slots[i + 1], slots[i]
    up = [False] * pieces
    piece = 0
    for _ in range(pieces // 2):  # one upward piece per cup
        up[piece] = True
        piece = capped[piece ^ 1]
    return sum(s if up[a] == up[b] else -s for s, a, b in crossings)


def _normalized(w: int, bracket: LaurentPoly) -> LaurentPoly:
    """(-A^3)^(-w) * bracket."""
    return LaurentPoly.term(1 if w % 2 == 0 else -1, -3 * w) * bracket


def jones_normalized(word: MorseWord) -> LaurentPoly:
    """(-A^3)^(-writhe) * bracket; unchanged by every rewrite move."""
    return _normalized(writhe(word), kauffman_bracket(word))
