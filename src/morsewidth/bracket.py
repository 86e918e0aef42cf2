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

The state sum enumerates all 2^c smoothings and is refused outright
above MAX_STATE_SUM_CROSSINGS crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetExceeded
from .events import EventKind, MorseWord, _UnionFind, require_knot

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


@dataclass(frozen=True)
class DiagramCrossing:
    sign: int
    ports: tuple[int, int, int, int]  # bottom-left, bottom-right, top-left, top-right


@dataclass(frozen=True)
class PlanarDiagram:
    """Closed diagram as connection points joined by wires.

    Every point carries exactly two connections: one wire (a cup birth
    arc, a cap join, or a feed into a crossing) and, for crossing ports,
    one strand through the crossing.  Wire-only components are
    crossing-free circles.
    """

    crossings: tuple[DiagramCrossing, ...]
    wires: tuple[tuple[int, int], ...]
    point_count: int


def planar_diagram(word: MorseWord) -> PlanarDiagram:
    slots: list[int] = []
    wires: list[tuple[int, int]] = []
    crossings: list[DiagramCrossing] = []
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    for e in word.events:
        i = e.index
        if e.kind is EventKind.CUP:
            p, q = fresh(), fresh()
            wires.append((p, q))
            slots[i - 1 : i - 1] = [p, q]
        elif e.kind is EventKind.CAP:
            wires.append((slots[i - 1], slots[i]))
            del slots[i - 1 : i + 1]
        else:
            bl, br, tl, tr = fresh(), fresh(), fresh(), fresh()
            wires.append((slots[i - 1], bl))
            wires.append((slots[i], br))
            slots[i - 1], slots[i] = tl, tr
            crossings.append(DiagramCrossing(e.sign, (bl, br, tl, tr)))
    return PlanarDiagram(tuple(crossings), tuple(wires), counter)


def _arc_structure(diagram: PlanarDiagram) -> tuple[list[tuple[int, ...]], int, int]:
    """Contract wires: returns (per-crossing arc ids for bl,br,tl,tr ports,
    number of arcs, number of crossing-free circles)."""
    forest = _UnionFind(diagram.point_count)
    for p, q in diagram.wires:
        forest.union(p, q)
    arc_of: dict[int, int] = {}
    per_crossing = []
    for x in diagram.crossings:
        ids = []
        for port in x.ports:
            rep = forest.find(port)
            ids.append(arc_of.setdefault(rep, len(arc_of)))
        per_crossing.append(tuple(ids))
    all_reps = {forest.find(t) for t in range(diagram.point_count)}
    free_circles = len(all_reps) - len(arc_of)
    return per_crossing, len(arc_of), free_circles


def kauffman_bracket(word: MorseWord) -> LaurentPoly:
    """State-sum bracket of the closed diagram, exact in A."""
    c = word.crossing_count
    if c > MAX_STATE_SUM_CROSSINGS:
        raise BudgetExceeded(
            f"{c} crossings exceeds the state-sum cap of "
            f"{MAX_STATE_SUM_CROSSINGS}"
        )
    diagram = planar_diagram(word)
    per_crossing, arc_count, free_circles = _arc_structure(diagram)
    signs = [x.sign for x in diagram.crossings]

    delta_pows = [LaurentPoly.one()]

    def delta_pow(k: int) -> LaurentPoly:
        while len(delta_pows) <= k:
            delta_pows.append(delta_pows[-1] * DELTA)
        return delta_pows[k]

    acc: dict[int, int] = {}
    for mask in range(1 << c):
        forest = _UnionFind(arc_count)
        b = 0
        for t in range(c):
            bl, br, tl, tr = per_crossing[t]
            bit = (mask >> t) & 1
            b += bit
            horizontal = bit == (1 if signs[t] > 0 else 0)
            if horizontal:
                forest.union(bl, br)
                forest.union(tl, tr)
            else:
                forest.union(bl, tl)
                forest.union(br, tr)
        loops = len({forest.find(a) for a in range(arc_count)}) + free_circles
        exponent = c - 2 * b
        for e, co in delta_pow(loops - 1).coefficients().items():
            key = e + exponent
            acc[key] = acc.get(key, 0) + co
    return LaurentPoly(acc)


_MAIN_DIR = {True: (1, 1), False: (-1, -1)}  # bl->tr or tr->bl
_OTHER_DIR = {True: (-1, 1), False: (1, -1)}  # br->tl or tl->br


def writhe(word: MorseWord) -> int:
    """Sum of crossing signs once the diagram is oriented by walking it.

    Knots only: on a multi-component diagram the sum would depend on the
    orientation chosen for each component.
    """
    require_knot(word)
    diagram = planar_diagram(word)
    edges: list[tuple[int, int, int, int]] = []  # (p, q, crossing idx, strand)
    incident: list[list[int]] = [[] for _ in range(diagram.point_count)]

    def add_edge(p: int, q: int, ci: int = -1, strand: int = 0) -> None:
        eid = len(edges)
        edges.append((p, q, ci, strand))
        incident[p].append(eid)
        incident[q].append(eid)

    for p, q in diagram.wires:
        add_edge(p, q)
    for ci, x in enumerate(diagram.crossings):
        bl, br, tl, tr = x.ports
        add_edge(bl, tr, ci, 0)
        add_edge(br, tl, ci, 1)

    dirs: dict[tuple[int, int], tuple[int, int]] = {}
    seen = [False] * len(edges)
    for start in range(len(edges)):
        if seen[start]:
            continue
        eid = start
        point = edges[eid][0]
        while not seen[eid]:
            seen[eid] = True
            p, q, ci, strand = edges[eid]
            entry, exit_ = (p, q) if point == p else (q, p)
            if ci >= 0:
                x = diagram.crossings[ci]
                if strand == 0:
                    dirs[(ci, 0)] = _MAIN_DIR[entry == x.ports[0]]
                else:
                    dirs[(ci, 1)] = _OTHER_DIR[entry == x.ports[1]]
            point = exit_
            a, b = incident[point]
            eid = b if a == eid else a
    total = 0
    for ci, x in enumerate(diagram.crossings):
        main, other = dirs[(ci, 0)], dirs[(ci, 1)]
        over, under = (main, other) if x.sign > 0 else (other, main)
        z = over[0] * under[1] - over[1] * under[0]
        total += 1 if z > 0 else -1
    return total


def jones_normalized(word: MorseWord) -> LaurentPoly:
    """(-A^3)^(-writhe) * bracket; unchanged by every rewrite move."""
    w = writhe(word)
    norm = LaurentPoly.term(1 if w % 2 == 0 else -1, -3 * w)
    return norm * kauffman_bracket(word)
