"""Morse words: event sequences presenting knots, links and tangles.

A word is read bottom to top.  Each event acts on the strands cut by a
horizontal level:

* ``Cup(i)`` opens two new adjacent strands at positions i, i+1 (a local
  minimum); strands at positions >= i shift up by 2.
* ``Cap(i)`` joins the strands at positions i, i+1 (a local maximum);
  higher strands shift down by 2.
* ``Cross(i, sign)`` exchanges the strands at positions i, i+1.  Sign +1
  is the braid generator whose lower-left strand passes over.

An event is a ``MorseEvent``, an int whose value is its code
``index << 2 | t``: t is 0 for a cup, 1 for a cap, 2 for a negative and 3
for a positive crossing.  ``kind``, ``index`` and ``sign`` read the code
back; the sweeps here and in ``bracket`` read its bits.

Indices are 1-based.  A knot/link word starts and ends with zero strands;
a tangle word starts at the (even) number of boundary strands and ends at
zero, and may not close any component.  One sweep (``_simulate``) finds
the local faults: on n strands a cup's index runs from 1 to n + 1, a cap's
(n >= 2) and a crossing's from 1 to n - 1.  It traces components by linking
each open strand end to the far end of its arc and each capped end to its
cap partner, and lists the ends each crossing exchanges: a word keeps
its trace, and the crossing count and the writhe read it too.
``_validated_trace`` checks the whole-word rules on that trace: a word is
not empty, ends on zero strands, and as a tangle closes no component.  A
knot word that traces to several components has one violation,
MultipleComponents at its end, and ``require_knot`` raises that same
violation.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ValidationError, Violation


class EventKind(Enum):
    CUP = "cup"
    CAP = "cap"
    CROSS = "cross"


# The kind of each type t = e & 3 of an event e; a kind's type is its first place.
_KINDS = (EventKind.CUP, EventKind.CAP, EventKind.CROSS, EventKind.CROSS)


class MorseEvent(int):
    """One event: an int whose value is its code, ``index << 2 | t``, with
    t 0 for a cup, 1 for a cap, 2 for a negative and 3 for a positive
    crossing.  So events hash, compare and sort as their codes, in C, and a
    sweep reads ``e & 3``, ``e >> 2`` and ``e & 1`` for the kind, index and
    sign.  Since ``>>`` rounds down, a negative index round-trips too."""

    __slots__ = ()

    def __new__(cls, kind: EventKind, index: int, sign: int = 0):
        if not isinstance(kind, EventKind):
            raise ValueError(f"event kind must be an EventKind, got {kind!r}")
        if kind is EventKind.CROSS:
            if sign not in (+1, -1):
                raise ValueError("crossing sign must be +1 or -1")
        elif sign != 0:
            raise ValueError("only crossings carry a sign")
        return int.__new__(cls, index << 2 | _KINDS.index(kind) | (sign > 0))

    def __getnewargs__(self) -> tuple:  # so copy and pickle rebuild the event
        return self.kind, self.index, self.sign

    @property
    def kind(self) -> EventKind:
        return _KINDS[self & 3]

    @property
    def index(self) -> int:
        return self >> 2

    @property
    def sign(self) -> int:
        """+1 or -1 for crossings, 0 otherwise."""
        return (0, 0, -1, 1)[self & 3]

    def token(self) -> str:
        """DSL token for this event (``b3``, ``d1``, ``x2+``)."""
        i, t = self >> 2, self & 3
        return f"x{i}{'-+'[t & 1]}" if t & 2 else f"{'bd'[t]}{i}"

    def __str__(self) -> str:
        return self.token()

    def __repr__(self) -> str:  # the call that builds it: cup(1), cross(2, -1)
        sign = f", {self.sign}" if self & 2 else ""
        return f"{self.kind.value}({self.index}{sign})"


def cup(index: int) -> MorseEvent:
    return MorseEvent(EventKind.CUP, index)


def cap(index: int) -> MorseEvent:
    return MorseEvent(EventKind.CAP, index)


def cross(index: int, sign: int) -> MorseEvent:
    return MorseEvent(EventKind.CROSS, index, sign)


_KIND_NAMES = ("cup", "cap", "crossing", "crossing")  # by type, e & 3


class _Trace(NamedTuple):
    counts: tuple[int, ...]
    violations: tuple[Violation, ...]  # local faults only
    closed: tuple[int, ...]  # the positions of the caps that close a component
    matching: tuple[int, ...]  # the point an arc joins to each boundary point
    ends: list[int]  # an open end's far end, a capped end's cap partner
    crossed: list[int]  # two ends per crossing: left, right; bottom up


def _simulate(events: Sequence[MorseEvent], start_count: int) -> _Trace:
    """The sweep: strand counts, local faults and component tracing.

    A local fault (a cap on fewer than 2 strands, an index out of range)
    skips its event, so that several can be reported at once; the whole-word
    rules are ``_validated_trace``'s.  Strand slots hold end ids; ``other[e]``
    is the far end of e's arc.  The bottom strands start as ends
    0..start_count-1 whose far ends are the boundary points, ids
    start_count..2*start_count-1.  A cap joining the two ends of one arc
    closes a component; any other cap links the far ends of the two arcs it
    joins, and pairs its own two ends, which no open end's far end is.  So
    the trace's ``ends`` (``other`` after the sweep) holds an open end's far
    end and a capped end's cap partner; ``crossed`` holds, left first, the
    two ends each crossing exchanges.  The boundary points are numbered
    bottom first (0..start_count-1), then the strands open at the top.
    """
    other = [*range(start_count, 2 * start_count), *range(start_count)]
    slots = list(range(start_count))
    counts = [start_count]
    violations: list[Violation] = []
    closed: list[int] = []
    crossed: list[int] = []  # flat: a tuple per crossing made the sweep a tenth dearer

    for pos, e in enumerate(events):
        t, i, n = e & 3, e >> 2, len(slots)  # bits, not properties: no call per event
        top = n + 1 if t == 0 else n - 1  # the highest valid index
        if t == 1 and n < 2:
            violations.append(
                Violation("NegativeCount", pos, f"cap with only {n} strands")
            )
        elif not 1 <= i <= top:
            where = f"index {i} outside 1..{top}" if top > 0 else f"with only {n} strands"
            violations.append(Violation("BadIndex", pos, f"{_KIND_NAMES[t]} {where}"))
        elif t == 0:  # CUP
            a = len(other)
            other += (a + 1, a)
            slots[i - 1 : i - 1] = (a, a + 1)
        elif t == 1:  # CAP
            a, b = slots[i - 1], slots[i]
            far_a, far_b = other[a], other[b]
            if far_a == b:  # other already pairs a and b
                closed.append(pos)
            else:
                other[far_a], other[far_b] = far_b, far_a
                other[a], other[b] = b, a
            del slots[i - 1 : i + 1]
        else:  # CROSS
            a, b = slots[i - 1], slots[i]
            crossed.append(a)
            crossed.append(b)
            slots[i - 1], slots[i] = b, a
        counts.append(len(slots))

    point = {e: start_count + p for p, e in enumerate(slots)}  # at the top
    point.update((start_count + j, j) for j in range(start_count))  # at the bottom
    matching = tuple(point[other[e]] for e in (*range(start_count, 2 * start_count), *slots))
    return _Trace(tuple(counts), tuple(violations), tuple(closed), matching, other, crossed)


def _validated_trace(
    events: tuple[MorseEvent, ...], boundary_strands: int, knot: bool
) -> tuple[_Trace | None, list[Violation]]:
    """One sweep of ``events`` and every violation it shows, in event order:
    its local faults and the whole-word rules, which are checked here only.
    The trace is None for an empty closed word, which is not swept."""
    if not events and boundary_strands == 0:
        return None, [Violation("EmptyWord", 0, "word has no events")]
    trace = _simulate(events, boundary_strands)
    violations, end, closed = list(trace.violations), len(events), trace.closed
    if boundary_strands > 0 and closed:
        why = "cap closes a component inside a tangle"
        violations += [Violation("MultipleComponents", pos, why) for pos in closed]
        violations.sort(key=lambda v: v.position)
    if trace.counts[-1]:
        violations.append(Violation("NonzeroEnd", end, f"{trace.counts[-1]} strands left open"))
    if boundary_strands == 0 and knot and not violations and len(closed) != 1:
        why = f"{len(closed)} closed components, expected 1"
        violations.append(Violation("MultipleComponents", end, why))
    return trace, violations


# The refusal of a negative or odd boundary strand count, or of a tangle's zero.
_BAD_BOUNDARY = Violation("BadIndex", 0, "boundary strand count must be even and positive")


def validate(
    events: Iterable[MorseEvent], boundary_strands: int = 0, knot: bool = True
) -> list[Violation]:
    """Validity report for an event sequence; empty means valid.

    ``boundary_strands`` selects tangle mode (counts start there and no
    component may close).  With ``knot=True`` a closed word must also trace
    to exactly one component; links are reported as MultipleComponents.  A
    negative or odd ``boundary_strands`` is refused as TangleWord refuses it.
    """
    if boundary_strands < 0 or boundary_strands % 2:
        return [_BAD_BOUNDARY]
    return _validated_trace(tuple(events), boundary_strands, knot)[1]


class _Word:
    """Value behaviour shared by closed and tangle words: equality and
    hashing follow ``_key``, and nothing is mutated after construction."""

    def _store(self, events: Iterable[MorseEvent], boundary_strands: int):
        """Validate ``events`` and keep them with their strand counts."""
        self.events: tuple[MorseEvent, ...] = tuple(events)
        if not set(map(type, self.events)) <= {MorseEvent}:  # the sweep reads only bits
            p, e = next((p, e) for p, e in enumerate(self.events) if type(e) is not MorseEvent)
            raise ValueError(f"event {p} must be a MorseEvent, got {e!r}")
        trace, bad = _validated_trace(self.events, boundary_strands, knot=False)
        if bad:
            raise ValidationError(bad)
        self._trace = trace  # the writhe reads its ends and crossed pairs
        self.counts: tuple[int, ...] = trace.counts
        self.component_count: int = len(trace.closed)
        self.crossing_count: int = len(trace.crossed) // 2

    def _key(self) -> tuple:
        return self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MorseEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class MorseWord(_Word):
    """A locally valid closed word (a knot or link presentation).

    Construction validates local validity and closure; words tracing to
    several components are accepted here and rejected by knot-level
    operations.  Equality and hashing follow the event tuple.
    """

    def __init__(self, events: Iterable[MorseEvent]):
        self._store(events, 0)

    @property
    def is_knot(self) -> bool:
        return self.component_count == 1

    def __str__(self) -> str:
        return " ".join(e.token() for e in self.events)


class TangleWord(_Word):
    """A word presenting a tangle in a ball: 2n boundary strands, no
    closed components, every strand end consumed by the top of the word."""

    def __init__(self, boundary_strands: int, events: Iterable[MorseEvent]):
        if boundary_strands <= 0 or boundary_strands % 2:
            raise ValidationError([_BAD_BOUNDARY])
        self.boundary_strands = boundary_strands
        self._store(events, boundary_strands)

    @property
    def arc_count(self) -> int:
        return self.boundary_strands // 2

    def _key(self) -> tuple:
        return (self.boundary_strands, self.events)

    def __str__(self) -> str:
        body = " ".join(e.token() for e in self.events)
        return f"tangle {self.boundary_strands} {body}".rstrip()


def component_count(word: MorseWord | TangleWord) -> int:
    """Number of closed components the word traces out."""
    return word.component_count


def require_closed(word: MorseWord | TangleWord, what: str) -> MorseWord:
    """Guard for operations on closed words: a tangle raises ValueError."""
    if isinstance(word, TangleWord):
        raise ValueError(f"{what} needs a closed word, got a tangle")
    return word


def require_knot(word: MorseWord) -> MorseWord:
    """Guard for knot-level operations; tangles raise ValueError, links
    MultipleComponents."""
    require_closed(word, "a knot operation")
    if not word.is_knot:
        raise ValidationError(validate(word.events))
    return word
