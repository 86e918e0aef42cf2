"""Local rewrite moves on Morse words.

Every move preserves the component count and the knot type of the
presented diagram, and each move has an inverse move in the system:

* CommuteDistant  -- swap two adjacent events whose strand supports at the
                     shared level are disjoint, reindexing as needed.  The
                     cap-then-cup pair at one slot needs a ``side`` telling
                     where the reborn pair lands, since both resolutions
                     are height exchanges of disjoint pieces.
* ZigZagCancel    -- delete Cup(i) immediately followed by Cap(i±1): a
                     finger poking an existing strand.  ZigZagInsert is
                     the inverse.
* R1Absorb        -- delete the crossing in Cup(i), Cross(i,±): a kink at
                     a minimum.  R1Insert(at="cup") is the inverse.
* CapAbsorbCross  -- delete the crossing in Cross(i,±), Cap(i): a kink at
                     a maximum.  R1Insert(at="cap") is the inverse.
* R2Cancel        -- delete Cross(i,s), Cross(i,-s).  R2Insert inverse.
* YangBaxter      -- braid relation: Cross(i,s) Cross(i+1,s) Cross(i,s)
                     <-> Cross(i+1,s) Cross(i,s) Cross(i+1,s).

Each kind is one entry of the rule table ``_RULES``: the number of events
it replaces at its site (its window), its length delta, whether it changes
the writhe, ``params`` (the parameters valid for a window and the strand
count below it: the kind's only validity predicate) and ``rewrite`` (the
window's replacement).  Enumeration, application, inverses, LENGTH_DELTA
and WRITHE_CHANGING all derive from the table, with no per-kind code.

Crossing-only moves never touch the level profile; width changes come
only from cup/cap reordering (a cup-above-cap exchange moves the gap
between them by 4) and from zig-zag insertion/cancellation.  Sites are
0-based event positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .errors import InvalidMove
from .events import EventKind, MorseEvent, MorseWord, cap, cross, cup


class MoveKind(Enum):
    COMMUTE_DISTANT = "CommuteDistant"
    ZIGZAG_CANCEL = "ZigZagCancel"
    ZIGZAG_INSERT = "ZigZagInsert"
    R1_ABSORB = "R1Absorb"
    R1_INSERT = "R1Insert"
    R2_CANCEL = "R2Cancel"
    R2_INSERT = "R2Insert"
    YANG_BAXTER = "YangBaxter"
    CAP_ABSORB_CROSS = "CapAbsorbCross"


_KIND_ORDER = {k: n for n, k in enumerate(MoveKind)}


@dataclass(frozen=True, order=True)
class Move:
    kind: MoveKind = field(compare=False)
    site: int
    params: tuple = ()

    # order=True cannot sort across enum members, so sort key is explicit:
    def sort_key(self) -> tuple:
        return (self.site, _KIND_ORDER[self.kind], self.params)

    def __str__(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        return f"{self.kind.value}@{self.site}" + (f"({inner})" if inner else "")


_Window = Sequence[MorseEvent]


def _support(event: MorseEvent, lower: bool) -> tuple[int, int]:
    """Occupied interval at the level between two adjacent events, in
    doubled coordinates (strand p -> 2p, the slot left of p -> 2p-1)."""
    i = event.index
    # Seen from above (lower): a cup's newborn strands, a cap's scar slot.
    # Seen from below: a cup's insertion slot, a cap's consumed strands.
    slot_kind = EventKind.CAP if lower else EventKind.CUP
    return (2 * i - 1, 2 * i - 1) if event.kind is slot_kind else (2 * i, 2 * i + 2)


_SHIFT = {EventKind.CUP: +2, EventKind.CAP: -2, EventKind.CROSS: 0}


def _commute_params(window: _Window, strands_below: int) -> list[tuple]:
    e1, e2 = window
    if e1.kind is EventKind.CAP and e2.kind is EventKind.CUP and e1.index == e2.index:
        # Coincident scar and rebirth slot: both resolutions are valid
        # height exchanges; 'side' says where the cup lands below.
        return [("left",), ("right",)]
    lo1, hi1 = _support(e1, lower=True)
    lo2, hi2 = _support(e2, lower=False)
    return [()] if hi2 < lo1 or lo2 > hi1 else []


def _commute(window: _Window, params: tuple) -> tuple[MorseEvent, ...]:
    """Swapped pair (e2', e1') of a distant pair e1;e2."""
    e1, e2 = window
    if params:
        i = e1.index
        return (cup(i), cap(i + 2)) if params == ("left",) else (cup(i + 2), cap(i))
    if _support(e2, lower=False)[1] < _support(e1, lower=True)[0]:
        # e2 acts entirely below e1's support
        return (e2, MorseEvent(e1.kind, e1.index + _SHIFT[e2.kind], e1.sign))
    return (MorseEvent(e2.kind, e2.index - _SHIFT[e1.kind], e2.sign), e1)


def _zigzag_params(window: _Window, strands_below: int) -> list[tuple]:
    e1, e2 = window  # a finger poking an existing strand
    kinds_match = e1.kind is EventKind.CUP and e2.kind is EventKind.CAP
    return [()] if kinds_match and abs(e2.index - e1.index) == 1 else []


def _zigzag_insert_params(window: _Window, strands_below: int) -> list[tuple]:
    left = [(i, "left") for i in range(2, strands_below + 2)]  # cap above at i-1
    right = [(i, "right") for i in range(1, strands_below + 1)]  # cap above at i+1
    return sorted(left + right)


def _zigzag_insert(window: _Window, params: tuple) -> tuple[MorseEvent, ...]:
    i, side = params
    return (cup(i), cap(i + 1 if side == "right" else i - 1))


def _r1_absorb_params(window: _Window, strands_below: int) -> list[tuple]:
    e1, e2 = window  # a kink at a minimum
    kinds_match = e1.kind is EventKind.CUP and e2.kind is EventKind.CROSS
    return [()] if kinds_match and e2.index == e1.index else []


def _r1_insert_params(window: _Window, strands_below: int) -> list[tuple]:
    kind = window[0].kind
    at = "cup" if kind is EventKind.CUP else "cap"
    return [] if kind is EventKind.CROSS else [(-1, at), (1, at)]


def _r1_insert(window: _Window, params: tuple) -> tuple[MorseEvent, ...]:
    (e,) = window
    s, at = params
    kink = cross(e.index, s)
    return (e, kink) if at == "cup" else (kink, e)


def _r2_params(window: _Window, strands_below: int) -> list[tuple]:
    e1, e2 = window  # a crossing followed by its inverse
    kinds_match = e1.kind is e2.kind is EventKind.CROSS
    return [()] if kinds_match and e1.index == e2.index and e1.sign == -e2.sign else []


def _r2_insert_params(window: _Window, strands_below: int) -> list[tuple]:
    return [(i, s) for i in range(1, strands_below) for s in (-1, 1)]


def _r2_insert(window: _Window, params: tuple) -> tuple[MorseEvent, ...]:
    i, s = params
    return (cross(i, s), cross(i, -s))


def _yang_baxter_params(window: _Window, strands_below: int) -> list[tuple]:
    e1, e2, e3 = window
    kinds_match = e1.kind is e2.kind is e3.kind is EventKind.CROSS
    braid = e1.index == e3.index and abs(e2.index - e1.index) == 1
    return [()] if kinds_match and braid and e1.sign == e2.sign == e3.sign else []


def _yang_baxter(window: _Window, params: tuple) -> tuple[MorseEvent, ...]:
    e1, e2, _ = window
    s = e1.sign
    return (cross(e2.index, s), cross(e1.index, s), cross(e2.index, s))


def _cap_absorb_params(window: _Window, strands_below: int) -> list[tuple]:
    e1, e2 = window  # a kink at a maximum
    kinds_match = e1.kind is EventKind.CROSS and e2.kind is EventKind.CAP
    return [()] if kinds_match and e2.index == e1.index else []


@dataclass(frozen=True)
class _Rule:
    width: int  # events replaced at the site
    length_delta: int  # net change in event count, used for insertion budgets
    writhe_changing: bool
    params: Callable[[_Window, int], list[tuple]]
    rewrite: Callable[[_Window, tuple], tuple[MorseEvent, ...]]


# One entry per kind, in MoveKind order (the enumeration order at a site).
_RULES: dict[MoveKind, _Rule] = {
    MoveKind.COMMUTE_DISTANT: _Rule(2, 0, False, _commute_params, _commute),
    MoveKind.ZIGZAG_CANCEL: _Rule(2, -2, False, _zigzag_params, lambda w, p: ()),
    MoveKind.ZIGZAG_INSERT: _Rule(0, +2, False, _zigzag_insert_params, _zigzag_insert),
    MoveKind.R1_ABSORB: _Rule(2, -1, True, _r1_absorb_params, lambda w, p: w[:1]),
    MoveKind.R1_INSERT: _Rule(1, +1, True, _r1_insert_params, _r1_insert),
    MoveKind.R2_CANCEL: _Rule(2, -2, False, _r2_params, lambda w, p: ()),
    MoveKind.R2_INSERT: _Rule(0, +2, False, _r2_insert_params, _r2_insert),
    MoveKind.YANG_BAXTER: _Rule(3, 0, False, _yang_baxter_params, _yang_baxter),
    MoveKind.CAP_ABSORB_CROSS: _Rule(2, -1, True, _cap_absorb_params, lambda w, p: w[1:]),
}

LENGTH_DELTA = {kind: rule.length_delta for kind, rule in _RULES.items()}

# Moves that change the diagram's writhe (first Reidemeister family).
# The Kauffman bracket picks up a -A^{+-3} factor under these; the
# writhe-normalized bracket is invariant under all kinds.
WRITHE_CHANGING = frozenset(kind for kind, rule in _RULES.items() if rule.writhe_changing)


def enumerate_moves(word: MorseWord) -> list[Move]:
    """All valid moves, in deterministic order (site, then kind, then
    parameters).  Growth moves are included; callers bound them with a
    length budget."""
    ev = word.events
    counts = word.counts
    moves: list[Move] = []
    for k in range(len(ev) + 1):
        for kind, rule in _RULES.items():
            end = k + rule.width
            if end <= len(ev):
                for params in rule.params(ev[k:end], counts[k]):
                    moves.append(Move(kind, k, params))
    return moves


def apply_move(word: MorseWord, move: Move) -> MorseWord:
    """Apply one move; InvalidMove if its predicate fails at the site."""
    ev = word.events
    k = move.site
    rule = _RULES[move.kind]
    end = k + rule.width
    in_range = 0 <= k and end <= len(ev)
    if not in_range or move.params not in rule.params(ev[k:end], word.counts[k]):
        raise InvalidMove(f"{move} does not apply to {word}")
    result = MorseWord(ev[:k] + rule.rewrite(ev[k:end], move.params) + ev[end:])
    if result.component_count != word.component_count:
        raise InvalidMove(f"{move} changed the component count of {word}")
    return result


def inverse_move(word: MorseWord, move: Move) -> Move:
    """The move that undoes ``move``, to be applied to apply_move's result:
    the first move at the same site, among the kinds of opposite length
    delta, whose rewrite restores ``word``."""
    out = apply_move(word, move)
    ev = out.events
    k = move.site
    for kind, rule in _RULES.items():
        end = k + rule.width
        if rule.length_delta != -LENGTH_DELTA[move.kind] or end > len(ev):
            continue
        window = ev[k:end]
        for params in rule.params(window, out.counts[k]):
            if ev[:k] + rule.rewrite(window, params) + ev[end:] == word.events:
                return Move(kind, k, params)
    raise InvalidMove(f"no move undoes {move} on {word}")


def canonical_key(word: MorseWord) -> tuple[MorseEvent, ...]:
    """Normal form for visited sets: within each maximal run of
    consecutive crossings, greedily bubble distant crossings into
    lowest-index-first order.  Crossing commutation never reindexes, so
    this is the unique lexicographic normal form of the run; two words
    equal up to distant crossing commutation always share a key.
    Crossings are never pulled past cups or caps: that rewriting is
    order-sensitive and would make the key depend on bubbling history."""
    ev = list(word.events)
    changed = True
    while changed:
        changed = False
        for k in range(len(ev) - 1):
            a, b = ev[k], ev[k + 1]
            if (
                a.kind is EventKind.CROSS
                and b.kind is EventKind.CROSS
                and abs(a.index - b.index) >= 2
                and b.index < a.index
            ):
                ev[k], ev[k + 1] = b, a
                changed = True
    return tuple(ev)
