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

``apply_move`` simulates and checks every word it makes.  Every caller
reads a site's moves from one cache, ``_site``, keyed by the events from
the site and the strand count below it; a search also caches each checked
rewrite (``_rewrite``).  Both are under ``functools.lru_cache``, bounded at
``_MEMO_CAP`` entries each, least recently used out.  A rule replaced in
``_RULES`` is not seen by a cached site: empty both caches.

Crossing-only moves never touch the level profile; width changes come
only from cup/cap reordering (a cup-above-cap exchange moves the gap
between them by 4) and from zig-zag insertion/cancellation.  Sites are
0-based event positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import InvalidMove
from .events import EventKind, MorseEvent, MorseWord, _simulate, cap, cross, cup, require_closed
from .invariants import levels


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

    __hash__ = object.__hash__  # singletons: identity hash, as for EventKind


class Move(NamedTuple):
    """A move: its kind, site and parameters.  A tuple, half the cost of a
    frozen dataclass to make; the kind is a field, so two moves are equal
    only when their kinds are."""

    kind: MoveKind
    site: int
    params: tuple = ()

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


# An insertion's window is empty: one list per strand count, shared by every site.
@lru_cache
def _zigzag_insert_params(window: _Window, strands_below: int) -> list[tuple]:
    # In sorted order: "left" (cap above at i-1) before "right" (cap above at
    # i+1) at each i; there is no left at i = 1 and no right at i = n + 1.
    sides = [(i, side) for i in range(1, strands_below + 2) for side in ("left", "right")]
    return sides[1:-1]


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


@lru_cache
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


# eq=False: a rule hashes and compares by identity, so the _rewrite cache
# is keyed by the rule itself; a rule replaced in _RULES is a new key.
@dataclass(frozen=True, eq=False)
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


# The widest window: the moves at a site depend only on the events from it
# as far as this, and on the strand count below it.
_REACH = max(rule.width for rule in _RULES.values())

# Entries each cache below may hold, least recently used out.  A site entry
# takes about 0.4 KB at 4 strands and 0.7 KB at 10 and a rewrite entry about
# 0.35 KB, so both stay under some 20 MiB; 1,824 random-knot searches fill 1,023.
_MEMO_CAP = 1 << 14


@lru_cache(maxsize=_MEMO_CAP)
def _site(window: tuple, n: int) -> list[tuple]:
    """(kind, rule, params list) of each rule with a move on ``window`` (the
    events from a site, up to _REACH of them) with ``n`` strands below it."""
    return [
        (kind, rule, found)
        for kind, rule in _RULES.items()
        if rule.width <= len(window) and (found := rule.params(window[: rule.width], n))
    ]


def _counts(ev: Sequence[MorseEvent]) -> tuple[int, ...]:
    """The strand count below each event of the closed word ``ev``, and 0 above."""
    return tuple(accumulate([_SHIFT[e[0]] for e in ev], initial=0))


def _sites(ev: tuple, max_delta: int | None) -> Iterator[tuple]:
    """(site, strands below it, kind, rule, params) of each move of
    ``enumerate_moves`` on the closed word's events ``ev``."""
    for k, n in enumerate(_counts(ev)):
        for kind, rule, found in _site(ev[k : k + _REACH], n):
            if max_delta is None or rule.length_delta <= max_delta:
                for params in found:
                    yield k, n, kind, rule, params


def enumerate_moves(word: MorseWord, max_delta: int | None = None) -> list[Move]:
    """All valid moves, in deterministic order (site, then kind, then
    parameters).  ``max_delta`` leaves out the kinds whose length delta
    exceeds it, as a length budget would; None keeps every kind."""
    found = _sites(require_closed(word, "a move").events, max_delta)
    return [Move(kind, k, params) for k, _, kind, _, params in found]


def apply_move(word: MorseWord, move: Move) -> MorseWord:
    """Apply one move; InvalidMove if its predicate fails at the site or the
    result has another component count."""
    ev = require_closed(word, "a move").events
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


@lru_cache(maxsize=_MEMO_CAP)
def _rewrite(rule: _Rule, window: _Window, params: tuple, n0: int) -> tuple:
    """(rewrite events, flat, width change, critical change) of a move on
    ``window`` with ``n0`` strands below it.  The local check traces both as
    tangles on n0 strands: the rewrite needs valid indices and the window's
    top count, boundary matching and closed loops, which keeps the strand
    counts outside the window and the component count in any word, else
    InvalidMove.  Flat means equal levels.  Both levels end at the same top
    count, so the Gabai width of any word the move applies to changes by the
    difference of their sums and its critical count by the difference of
    their lengths."""
    new = rule.rewrite(window, params)
    before, after = _simulate(window, n0, False), _simulate(new, n0, False)
    valid = all(v.code == "NonzeroEnd" for v in after.violations)
    shape = (after.counts[-1], after.matching, after.closed_components)
    if not valid or shape != (before.counts[-1], before.matching, before.closed_components):
        shown = " -> ".join(" ".join(map(str, events)) for events in (window, new))
        raise InvalidMove(f"{shown} on {n0} strands changed the component count or the strands")
    old, now = levels(before.counts), levels(after.counts)
    return (new, old == now, sum(now) - sum(old), len(now) - len(old))


def inverse_move(word: MorseWord, move: Move) -> Move:
    """The move that undoes ``move``, to be applied to apply_move's result:
    the first enumerated move at the same site, of opposite length delta,
    that maps the result back to ``word``."""
    out = apply_move(word, move)
    delta = LENGTH_DELTA[move.kind]
    for back in enumerate_moves(out, -delta):
        if (
            back.site == move.site
            and LENGTH_DELTA[back.kind] == -delta
            and apply_move(out, back) == word
        ):
            return back
    raise InvalidMove(f"no move undoes {move} on {word}")


def canonical_key(events: Sequence[MorseEvent]) -> tuple[MorseEvent, ...]:
    """Normal form of a word or any event sequence, for visited sets:
    within each maximal run of consecutive crossings, a crossing sinks
    below any crossing more than one index above it.  The swaps never
    reindex and are confluent (in c < b - 1 < a - 3, a and c commute too),
    so this is the unique lexicographic normal form of the run; two words
    equal up to it share a key.  One scan returns the events as they are
    when no adjacent pair is out of order, else one insertion pass sorts
    them.  Crossings are never pulled past cups or caps: that rewriting is
    order-sensitive and would make the key depend on bubbling history."""
    ev = tuple(events)
    cross = EventKind.CROSS
    limit = 0  # a crossing of lower index than this is out of order
    for e in ev:
        if e[0] is cross:
            if e[1] < limit:
                break
            limit = e[1] - 1
        else:
            limit = 0
    else:
        return ev
    out = list(ev)
    for j, b in enumerate(ev):
        if b[0] is cross:
            while j and (a := out[j - 1])[0] is cross and b[1] < a[1] - 1:
                out[j] = a
                j -= 1
            out[j] = b
    return tuple(out)
