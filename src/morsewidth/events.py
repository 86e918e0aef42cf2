"""Morse words: event sequences presenting knots, links and tangles.

A word is read bottom to top.  Each event acts on the strands cut by a
horizontal level:

* ``Cup(i)`` opens two new adjacent strands at positions i, i+1 (a local
  minimum); strands at positions >= i shift up by 2.
* ``Cap(i)`` joins the strands at positions i, i+1 (a local maximum);
  higher strands shift down by 2.
* ``Cross(i, sign)`` exchanges the strands at positions i, i+1.  Sign +1
  is the braid generator whose lower-left strand passes over.

Indices are 1-based.  A knot/link word starts and ends with zero strands;
a tangle word starts at the (even) number of boundary strands and ends at
zero, and may not close any component.  Validity is local arithmetic on
counts and indices; component structure is traced with a union-find over
strand ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError, Violation


class EventKind(Enum):
    CUP = "cup"
    CAP = "cap"
    CROSS = "cross"


@dataclass(frozen=True, order=True)
class MorseEvent:
    kind: EventKind
    index: int
    sign: int = 0  # +1 or -1 for crossings, 0 otherwise

    def __post_init__(self):
        if self.kind is EventKind.CROSS:
            if self.sign not in (+1, -1):
                raise ValueError("crossing sign must be +1 or -1")
        elif self.sign != 0:
            raise ValueError("only crossings carry a sign")

    @property
    def is_critical(self) -> bool:
        return self.kind is not EventKind.CROSS

    def token(self) -> str:
        """DSL token for this event (``b3``, ``d1``, ``x2+``)."""
        if self.kind is EventKind.CUP:
            return f"b{self.index}"
        if self.kind is EventKind.CAP:
            return f"d{self.index}"
        return f"x{self.index}{'+' if self.sign > 0 else '-'}"

    def __str__(self) -> str:
        return self.token()


def cup(index: int) -> MorseEvent:
    return MorseEvent(EventKind.CUP, index)


def cap(index: int) -> MorseEvent:
    return MorseEvent(EventKind.CAP, index)


def cross(index: int, sign: int) -> MorseEvent:
    return MorseEvent(EventKind.CROSS, index, sign)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int = 0):
        self.parent: list[int] = list(range(size))

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False if they already agree."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class _Trace:
    counts: tuple[int, ...]
    violations: tuple[Violation, ...]
    closed_components: int
    open_arcs: int


def _simulate(events: Sequence[MorseEvent], start_count: int, tangle: bool) -> _Trace:
    """Single validation pass: counts, index checks, component tracing.

    Invalid events are skipped (best effort) so that several violations can
    be reported at once.  Strand slots hold union-find nodes; a cup's two
    ends share a class, and a cap that joins ends of one class closes a
    component.
    """
    uf = _UnionFind()
    slots: list[int] = [uf.make() for _ in range(start_count)]
    counts = [start_count]
    violations: list[Violation] = []
    closed = 0

    for pos, ev in enumerate(events):
        n = len(slots)
        i = ev.index
        if ev.kind is EventKind.CUP:
            if not 1 <= i <= n + 1:
                violations.append(
                    Violation("BadIndex", pos, f"cup index {i} outside 1..{n + 1}")
                )
            else:
                node = uf.make()
                other = uf.make()
                uf.union(node, other)
                slots[i - 1 : i - 1] = [node, other]
        elif ev.kind is EventKind.CAP:
            if n < 2:
                violations.append(
                    Violation("NegativeCount", pos, f"cap with only {n} strands")
                )
            elif not 1 <= i <= n - 1:
                violations.append(
                    Violation("BadIndex", pos, f"cap index {i} outside 1..{n - 1}")
                )
            else:
                a = slots[i - 1]
                b = slots[i]
                if not uf.union(a, b):
                    closed += 1
                    if tangle:
                        violations.append(
                            Violation(
                                "MultipleComponents",
                                pos,
                                "cap closes a component inside a tangle",
                            )
                        )
                del slots[i - 1 : i + 1]
        else:  # CROSS
            if not 1 <= i <= n - 1:
                violations.append(
                    Violation("BadIndex", pos, f"crossing index {i} outside 1..{n - 1}")
                )
            else:
                slots[i - 1], slots[i] = slots[i], slots[i - 1]
        counts.append(len(slots))

    if slots:
        violations.append(
            Violation("NonzeroEnd", len(events), f"{len(slots)} strands left open")
        )
    return _Trace(tuple(counts), tuple(violations), closed, len(slots) // 2)


def _validated_trace(
    events: tuple[MorseEvent, ...], boundary_strands: int, knot: bool
) -> tuple[_Trace | None, list[Violation]]:
    """One simulation of ``events`` and every violation it shows; the
    trace is None for an empty closed word, which is not simulated."""
    if not events and boundary_strands == 0:
        return None, [Violation("EmptyWord", 0, "word has no events")]
    trace = _simulate(events, boundary_strands, tangle=boundary_strands > 0)
    violations = list(trace.violations)
    if boundary_strands == 0 and knot and not violations:
        if trace.closed_components != 1:
            violations.append(
                Violation(
                    "MultipleComponents",
                    len(events),
                    f"{trace.closed_components} closed components, expected 1",
                )
            )
    return trace, violations


def validate(
    events: Iterable[MorseEvent], boundary_strands: int = 0, knot: bool = True
) -> list[Violation]:
    """Validity report for an event sequence; empty means valid.

    ``boundary_strands`` selects tangle mode (counts start there and no
    component may close).  With ``knot=True`` a closed word must also trace
    to exactly one component; links are reported as MultipleComponents.
    """
    return _validated_trace(tuple(events), boundary_strands, knot)[1]


class MorseWord:
    """A locally valid closed word (a knot or link presentation).

    Construction validates local validity and closure; words tracing to
    several components are accepted here and rejected by knot-level
    operations.  Instances are value objects: equality and hashing follow
    the event tuple, and nothing is mutated after construction.
    """

    def __init__(self, events: Iterable[MorseEvent]):
        self.events: tuple[MorseEvent, ...] = tuple(events)
        trace, bad = _validated_trace(self.events, 0, knot=False)
        if bad:
            raise ValidationError(bad)
        self.counts: tuple[int, ...] = trace.counts
        self.component_count: int = trace.closed_components

    @property
    def is_knot(self) -> bool:
        return self.component_count == 1

    @cached_property
    def crossing_count(self) -> int:
        return sum(1 for e in self.events if e.kind is EventKind.CROSS)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MorseEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, MorseWord) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __str__(self) -> str:
        return " ".join(e.token() for e in self.events)

    def __repr__(self) -> str:
        return f"MorseWord({self})"


class TangleWord:
    """A word presenting a tangle in a ball: 2n boundary strands, no
    closed components, every strand end consumed by the top of the word."""

    def __init__(self, boundary_strands: int, events: Iterable[MorseEvent]):
        if boundary_strands <= 0 or boundary_strands % 2:
            raise ValidationError(
                [Violation("BadIndex", 0, "boundary strand count must be even and positive")]
            )
        self.boundary_strands = boundary_strands
        self.events: tuple[MorseEvent, ...] = tuple(events)
        trace, bad = _validated_trace(self.events, boundary_strands, knot=True)
        if bad:
            raise ValidationError(bad)
        self.counts: tuple[int, ...] = trace.counts
        self.component_count: int = trace.closed_components  # always 0

    @property
    def arc_count(self) -> int:
        return self.boundary_strands // 2

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MorseEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TangleWord)
            and self.boundary_strands == other.boundary_strands
            and self.events == other.events
        )

    def __hash__(self) -> int:
        return hash((self.boundary_strands, self.events))

    def __str__(self) -> str:
        body = " ".join(e.token() for e in self.events)
        return f"tangle {self.boundary_strands} {body}".rstrip()

    def __repr__(self) -> str:
        return f"TangleWord({self})"


def component_count(word: MorseWord | TangleWord) -> int:
    """Number of closed components the word traces out."""
    return word.component_count


def require_knot(word: MorseWord) -> MorseWord:
    """Guard for knot-level operations; links raise MultipleComponents."""
    if not isinstance(word, MorseWord) or not word.is_knot:
        raise ValidationError(
            [
                Violation(
                    "MultipleComponents",
                    len(word.events),
                    f"{word.component_count} closed components, expected 1",
                )
            ]
        )
    return word
