"""Local rewrite moves on Morse words.

Every move preserves the component count and the knot type of the
presented diagram, and each move has an inverse move in the system:

* CommuteDistant  -- swap two adjacent events whose strand supports at the
                     shared level are disjoint, reindexing as needed.  The
                     cap-then-cup pair at one slot needs a ``side`` telling
                     where the reborn pair lands, since both resolutions
                     are height exchanges of disjoint pieces.
* ZigZagInsert    -- insert a finger Cup(i), Cap(i±1); ZigZagCancel undoes it.
* R1Insert        -- insert a kink Cross(i,±) above Cup(i) or below Cap(i);
                     R1Absorb and CapAbsorbCross undo it.
* R2Insert        -- insert Cross(i,s), Cross(i,-s); R2Cancel undoes it.
* YangBaxter      -- braid relation: Cross(i,s) Cross(i+1,s) Cross(i,s)
                     <-> Cross(i+1,s) Cross(i,s) Cross(i+1,s).

Each kind is one entry of the rule table ``_RULES``: the number of events
it replaces at its site (its window), its length delta, whether it changes
the writhe, ``params`` (the parameters valid for a window and the strand
count below it: the kind's only validity predicate) and ``rewrite`` (the
window's replacement).  A cancel's ``params`` and ``rewrite`` are derived
from its insertion (``_cancel``).  Enumeration, application, inverses,
LENGTH_DELTA and WRITHE_CHANGING all derive from the table.

An event is an int, its code (``events.MorseEvent``), so the caches here
are keyed by the word's own events: ``_site``, keyed by the events from a
site and the strand count below it, lists the site's moves, and
``_rewrite`` licenses a rewrite by its local check and says what it does
to the levels and whether it is in normal form (``canonical_key``, the
one normal-form function, which the search runs too).  Both hand their
windows to the rules as they are.  ``enumerate_moves`` walks the sites and
reads ``_site``; ``apply_move`` and ``inverse_move`` read
``_site``, then ``_rewrite`` for each move they try.  A search reads
``_site`` alone: the first time it reads a site's entry for a rule,
``_records`` stores in it the ``_rewrite`` entry of each of its moves, so
the public calls, which never fill that slot, check no rewrite they do
not try.  A rule's ``params`` and ``rewrite`` are called only in the two
caches and in ``_images``, of the rewrites an insertion makes; each is an
``lru_cache`` of at most ``_MEMO_CAP`` entries.  A rule replaced in
``_RULES`` is not seen by a cached entry: empty the caches.

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
from typing import Callable, NamedTuple, Sequence

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

    __hash__ = object.__hash__  # singletons: identity hash, for a lookup per move


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


# Each event type's change in strand count, by the type e & 3 of an event e.
_SHIFT = (2, -2, 0, 0)


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
        return (e2, MorseEvent(e1.kind, e1.index + _SHIFT[e2 & 3], e1.sign))
    return (MorseEvent(e2.kind, e2.index - _SHIFT[e1 & 3], e2.sign), e1)


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


def _r1_insert_params(window: _Window, strands_below: int) -> list[tuple]:
    kind = window[0].kind
    at = "cup" if kind is EventKind.CUP else "cap"
    return [] if kind is EventKind.CROSS else [(-1, at), (1, at)]


def _r1_insert(window: _Window, params: tuple) -> tuple[MorseEvent, ...]:
    (e,) = window
    s, at = params
    kink = cross(e.index, s)
    return (e, kink) if at == "cup" else (kink, e)


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


def _cancel(insert: MoveKind, source: slice) -> tuple[Callable, Callable]:
    """``params`` and ``rewrite`` of the move that undoes ``insert``: it lists
    ``()`` on a window that is one of the insertion's rewrites of the
    window's ``source`` events on the same strand count, and gives back
    that source.  The insertion is looked up when called, so a rule put in
    ``_RULES`` in its place changes its cancel too."""

    def params(window: _Window, strands_below: int) -> list[tuple]:
        return [()] if window in _images(_RULES[insert], window[source], strands_below) else []

    return params, lambda window, _: window[source]


# eq=False: a rule hashes and compares by identity, so the _rewrite and _images
# caches are keyed by the rule itself; a rule replaced in _RULES is a new key.
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
    MoveKind.ZIGZAG_CANCEL: _Rule(2, -2, False, *_cancel(MoveKind.ZIGZAG_INSERT, slice(0))),
    MoveKind.ZIGZAG_INSERT: _Rule(0, +2, False, _zigzag_insert_params, _zigzag_insert),
    MoveKind.R1_ABSORB: _Rule(2, -1, True, *_cancel(MoveKind.R1_INSERT, slice(1))),
    MoveKind.R1_INSERT: _Rule(1, +1, True, _r1_insert_params, _r1_insert),
    MoveKind.R2_CANCEL: _Rule(2, -2, False, *_cancel(MoveKind.R2_INSERT, slice(0))),
    MoveKind.R2_INSERT: _Rule(0, +2, False, _r2_insert_params, _r2_insert),
    MoveKind.YANG_BAXTER: _Rule(3, 0, False, _yang_baxter_params, _yang_baxter),
    MoveKind.CAP_ABSORB_CROSS: _Rule(2, -1, True, *_cancel(MoveKind.R1_INSERT, slice(1, 2))),
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
# takes about 0.4 KB at 4 strands and 0.7 KB at 10, a rewrite entry about
# 0.4 KB and a kink's image entry 0.6 KB (a finger's, one per strand count,
# 8 KB at 10), so each stays under some 20 MiB; 1,824 random-knot searches
# fill 1,023 site and rewrite entries.  search._level_key has the same cap;
# a level-key entry takes about 0.4 KB at 8 levels and 0.5 KB at 24, its
# levels included.  The records a search stores in a site entry add about
# 0.2 KB to it at 4 strands and 0.4 KB at 10, besides the rewrite entries
# they share with _rewrite (and keep alive after it drops them).
_MEMO_CAP = 1 << 14


@lru_cache(maxsize=_MEMO_CAP)
def _images(rule: _Rule, source: tuple, n: int) -> frozenset:
    """Every rewrite ``rule`` lists for ``source`` with ``n`` strands below it."""
    return frozenset(rule.rewrite(source, params) for params in rule.params(source, n))


@lru_cache(maxsize=_MEMO_CAP)
def _site(window: tuple[MorseEvent, ...], n: int) -> list[list]:
    """[kind, rule, params list, records] of each rule with a move on
    ``window`` (the events from a site, up to _REACH of them) with ``n``
    strands below it.  Records is None until a search reads the entry
    (``_records``)."""
    return [
        [kind, rule, found, None]
        for kind, rule in _RULES.items()
        if rule.width <= len(window) and (found := rule.params(window[: rule.width], n))
    ]


def _records(entry: list, window: tuple[MorseEvent, ...], n: int) -> tuple[tuple, ...]:
    """The ``_rewrite`` entry of each params of ``entry``, a ``_site`` entry
    of ``window`` with ``n`` strands below it, stored in its records slot."""
    _, rule, found, _ = entry
    source = window[: rule.width]
    entry[3] = records = tuple(_rewrite(rule, source, params, n) for params in found)
    return records


def _counts(ev: Sequence[MorseEvent]) -> tuple[int, ...]:
    """The strand count below each event of the closed word ``ev``, and 0 above."""
    return tuple(accumulate([_SHIFT[e & 3] for e in ev], initial=0))


def enumerate_moves(word: MorseWord) -> list[Move]:
    """All valid moves, in deterministic order (site, then kind, then
    parameters), read off ``_site`` at each site as a search reads them."""
    ev = require_closed(word, "a move").events
    return [
        Move(kind, k, params)
        for k, n in enumerate(word.counts)
        for kind, _, found, _ in _site(ev[k : k + _REACH], n)
        for params in found
    ]


def apply_move(word: MorseWord, move: Move) -> MorseWord:
    """Apply one move as a search does: its params must be listed at its
    site (``_site``) and its rewrite pass ``_rewrite``'s local check, else
    InvalidMove.  The validating MorseWord builds the result."""
    ev, k = require_closed(word, "a move").events, move.site
    window = ev[k : k + _REACH]
    entries = _site(window, word.counts[k]) if 0 <= k <= len(ev) else ()
    for kind, rule, found, _ in entries:
        if kind is move.kind and move.params in found:
            new = _rewrite(rule, window[: rule.width], move.params, word.counts[k])[0]
            return MorseWord(ev[:k] + new + ev[k + rule.width :])
    raise InvalidMove(f"{move} does not apply to {word}")


@lru_cache(maxsize=_MEMO_CAP)
def _rewrite(rule: _Rule, window: tuple[MorseEvent, ...], params: tuple, n0: int) -> tuple:
    """(rewrite, flat, width change, critical change, in order, first event,
    last event, new levels, cups and caps) of a move on ``window`` with
    ``n0`` strands below it.  The local check sweeps the window and its
    rewrite from n0 strands: the rewrite needs no
    local fault and the window's top count, boundary matching and closed
    loops, which keeps the strand counts outside the window and the
    component count in any word, else InvalidMove.  Flat means equal
    levels.  Both levels end at the same top count, so the Gabai width of
    any word the move applies to changes by the difference of their sums
    and its critical count by the difference of their lengths.  In order
    means that the rewrite is its own normal form (``canonical_key``); its
    first and last events, None when it is empty, are what the search
    compares across its seams with the word.  The new levels are the rewrite's
    levels without the top count: in the word's levels they take the place
    of the counts below the window's cups and caps."""
    new = tuple(rule.rewrite(window, params))
    before, after = _simulate(window, n0), _simulate(new, n0)
    shape = (after.counts[-1], after.matching, len(after.closed))
    if after.violations or shape != (before.counts[-1], before.matching, len(before.closed)):
        shown = " -> ".join(" ".join(map(str, events)) for events in (window, new))
        raise InvalidMove(f"{shown} on {n0} strands changed the component count or the strands")
    old, now = levels(before.counts), levels(after.counts)
    inner = canonical_key(new) is new
    first, last = (new[0], new[-1]) if new else (None, None)
    change = (sum(now) - sum(old), len(now) - len(old))
    return (new, old == now, *change, inner, first, last, now[:-1], len(old) - 1)


def inverse_move(word: MorseWord, move: Move) -> Move:
    """The move that undoes ``move``, to be applied to apply_move's result:
    the first move listed at the same site of the result, of opposite length
    delta, whose spliced rewrite gives back ``word``'s events."""
    out = apply_move(word, move)
    ev, k, n = out.events, move.site, out.counts[move.site]
    window = ev[k : k + _REACH]
    for kind, rule, found, _ in _site(window, n):
        if rule.length_delta == -LENGTH_DELTA[move.kind]:
            end = k + rule.width
            for params in found:
                new = _rewrite(rule, window[: rule.width], params, n)[0]
                if ev[:k] + new + ev[end:] == word.events:
                    return Move(kind, k, params)
    raise InvalidMove(f"no move undoes {move} on {word}")


def canonical_key(events: Sequence[MorseEvent]) -> tuple[MorseEvent, ...]:
    """Normal form of a word or any event sequence, for visited sets: the
    events as they are when every adjacent pair is in order (``events``
    itself when it is a tuple), else the sorted events.  A pair (a, b) is
    out of order when both are crossings and b's index is more than one
    below a's: within each maximal run of consecutive crossings, a crossing
    sinks below any crossing more than one index above it.  The swaps never
    reindex and are confluent (in c < b - 1 < a - 3, a and c commute too),
    so this is the unique lexicographic normal form of the run; two words
    equal up to it share a key.  One scan returns the events when no
    adjacent pair is out of order, else one insertion pass sorts them.
    Crossings are never pulled past cups or caps: that rewriting is
    order-sensitive and would make the key depend on bubbling history."""
    ev = tuple(events)
    a = 0
    for b in ev:
        if a & b & 2 and b >> 2 < (a >> 2) - 1:
            break
        a = b
    else:
        return ev
    out = list(ev)
    for j, b in enumerate(ev):
        if b & 2:
            while j and (a := out[j - 1]) & 2 and b >> 2 < (a >> 2) - 1:
                out[j] = a
                j -= 1
            out[j] = b
    return tuple(out)
