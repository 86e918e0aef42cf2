"""Search over the move graph for good positions of a fixed knot.

A node is a position (key, events, trail, ordered, levels), its events the
word's own ``MorseEvent`` ints; edges are rewrite moves, and the strand
counts that a move needs are summed from the events' bits.  The loop walks
each parent's sites itself and reads a site's moves in one lookup of
``moves._site``, keyed by the events from the site up to
``moves._REACH`` and the strand count below it.  An entry lists, per rule
with moves there, its params list and the records of its moves: the
``moves._rewrite`` entry of each params, which ``moves._records`` stores in
the entry the first time a search reads it within the length budget.
A child's width or critical-count key is its parent's plus the rewrite's
change.  A search for any other key carries each position's levels: a
child splices its parent's with the rewrite's, and takes its key from
another bounded memo, ``_level_key``, which builds a level profile only
for levels it has not keyed.  Only the word a search returns is built as a
validated ``MorseWord``, and only its trace as ``Move`` objects.
Positions are deduplicated by the normal form of their events,
``moves.canonical_key``, the one normal-form function.
Order is a property of adjacent pairs, so an ordered position is its own
key, and so is its child by a rewrite that is in order inside and with
the events at its two seams: that needs no scan.
The searches never return a word worse than their input under the chosen
objective, and beam search is deterministic for a fixed seed: candidates
are generated in a fixed order, each draws one seeded random number in
that order, and the beam keeps the ``beam_width`` least (objective key,
draw) pairs, selected by ``heapq.nsmallest`` (which equals sorting them
all and keeping the first), so the seed only breaks ties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from heapq import nsmallest
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .bracket import jones_normalized
from .errors import BracketMismatch, BudgetExceeded, InvalidMove
from .events import MorseWord, require_knot
from .invariants import (
    LevelProfile,
    embedding_report,
    level_profile,
    levels,
)
from .moves import (
    _MEMO_CAP,
    _REACH,
    Move,
    MoveKind,
    _counts,
    _records,
    _site,
    canonical_key,
)


class ObjectiveKind(Enum):
    GABAI_WIDTH = "width"
    CRITICAL_COUNT = "critical"
    OTP_LEX = "otp"
    TRUNK_ONLY = "trunk"
    HEIGHT = "height"

    __hash__ = object.__hash__  # singletons: identity hash, for a lookup per candidate


# Every key is read off the word's level profile.
_PROFILE_KEYS: dict[ObjectiveKind, Callable[[LevelProfile], tuple]] = {
    ObjectiveKind.GABAI_WIDTH: lambda p: (p.width,),
    ObjectiveKind.CRITICAL_COUNT: lambda p: (p.critical_count,),
    # Thick-width vectors compare lexicographically; total width breaks ties.
    ObjectiveKind.OTP_LEX: lambda p: (p.otp_vector, p.width),
    ObjectiveKind.TRUNK_ONLY: lambda p: (p.trunk,),
    # Among the thinnest positions, the one with the fewest thick levels.
    ObjectiveKind.HEIGHT: lambda p: (p.width, p.height),
}


# Keys that sum over the steps of the strand counts (the cups and caps), so
# a rewrite changes them by its change, a field of its moves._rewrite entry.
# A search for any other key carries each position's levels.
_DELTA_FIELDS = {ObjectiveKind.GABAI_WIDTH: 2, ObjectiveKind.CRITICAL_COUNT: 3}


@lru_cache(maxsize=_MEMO_CAP)
def _level_key(kind: ObjectiveKind, levels: tuple[int, ...]) -> tuple:
    """The ``kind`` key of a position with these levels: a search builds a
    level profile only the first time it meets them."""
    return _PROFILE_KEYS[kind](LevelProfile(levels))


@dataclass(frozen=True)
class Objective:
    """What to minimize."""

    kind: ObjectiveKind = ObjectiveKind.GABAI_WIDTH

    def key(self, word: MorseWord) -> tuple:
        """The word's key, read off its one level profile."""
        return _PROFILE_KEYS[self.kind](level_profile(word))


def _refuse_negative(name: str, value: int) -> None:
    # A float or None would fail deep in the loop, or not at all; a bool
    # would run as 0 or 1.
    if type(value) is not int:
        raise ValueError(f"{name.replace('_', ' ')} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name.replace('_', ' ')} must be 0 or more, got {value}")


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 32
    max_steps: int = 64
    insertion_budget: int = 2
    random_seed: int = 0

    def __post_init__(self):
        # A negative beam slice would keep all but the last candidates, a
        # negative budget would admit only moves that shrink the word.
        for name in ("beam_width", "max_steps", "insertion_budget"):
            _refuse_negative(name, getattr(self, name))


@dataclass(frozen=True)
class SearchResult:
    best_word: MorseWord
    best_report: Optional[LevelProfile]
    trace: tuple[Move, ...]
    visited: int
    objective_value: tuple


_BEAM_NODE_CAP = 1_000_000
_EXHAUSTIVE_NODE_CAP = 200_000


# A position is (key, events, trail, ordered, levels): its events, with its
# objective key.  A trail is None at the start word, else (the parent's
# trail, kind, site, params) of the move from the parent: the trace as a
# parent-pointer chain, unwound once into Moves.  Ordered means the events
# are their own canonical key (canonical_key returns them as they are).  The
# levels are the events' levels in a search that carries them (see
# _DELTA_FIELDS), else None.
_Candidate = tuple[tuple, tuple, Optional[tuple], bool, Optional[tuple]]


def _result(best: _Candidate, visited: int, start: MorseWord) -> SearchResult:
    """The result, its word built by the validating constructor, which must
    give the start's component count."""
    key, events, trail, _, _ = best
    moves = []
    while trail is not None:
        trail, kind, site, params = trail
        moves.append(Move(kind, site, params))
    word = MorseWord(events)
    if word.component_count != start.component_count:
        raise InvalidMove(f"{word} has another component count than {start}")
    report = embedding_report(word) if word.is_knot else None
    return SearchResult(word, report, tuple(reversed(moves)), visited, key)


def _child(
    objective: Objective,
    parent: _Candidate,
    kind: MoveKind,
    site: int,
    params: tuple,
    events: tuple,
    rewrite: tuple,
    ordered: bool,
    starts: Optional[list[int]],
) -> _Candidate:
    """The candidate of the new position ``events``, made by the move
    (kind, site, params), whose moves._rewrite entry is ``rewrite``.  A flat
    rewrite keeps the key and the levels, which the child shares.  With no
    levels carried (``starts`` None) the width or critical-count key changes
    by the rewrite's change.  Otherwise ``starts[site]`` is the number of
    cups and caps below the site, where the window's levels start in the
    parent's: the rewrite's new levels take the place of the window's, and
    the key of the spliced levels comes from ``_level_key``."""
    key, _, trail, _, lv = parent
    if not rewrite[1]:
        if starts is None:
            key = (key[0] + rewrite[_DELTA_FIELDS[objective.kind]],)
        else:
            j = starts[site]
            lv = lv[:j] + rewrite[7] + lv[j + rewrite[8] :]
            key = _level_key(objective.kind, lv)
    return (key, events, (trail, kind, site, params), ordered, lv)


def _frontier_search(
    start: MorseWord,
    objective: Objective,
    steps: int,
    insertion_budget: int,
    node_cap: int,
    name: str,
    rank: Optional[Callable[[_Candidate], tuple]] = None,
    keep: Optional[int] = None,
) -> SearchResult:
    """The loop behind both searches.  Each step applies every move within
    the length budget to every frontier position and builds only positions
    not yet seen (by canonical key).  Without ``rank`` all the new ones form
    the next frontier, and the first with the least key offers the best.
    With it, the ``keep`` least by ``rank`` form it (by ``heapq.nsmallest``,
    which equals ``sorted(...)[:keep]``), and the least of all offers the
    best: it is selected even when ``keep`` is 0."""
    max_len = len(start.events) + insertion_budget
    start_key = canonical_key(start.events)
    visited = {start_key}
    carry = objective.kind not in _DELTA_FIELDS
    start_levels = levels(start.counts) if carry else None
    ordered = start_key is start.events
    best: _Candidate = (objective.key(start), start.events, None, ordered, start_levels)
    frontier = [best]

    for _ in range(steps):
        candidates: list[_Candidate] = []
        for parent in frontier:
            ev, ordered = parent[1], parent[3]
            size = len(ev)
            budget = max_len - size
            # Where each site's levels start: the cups and caps below it.
            starts = [*accumulate([not c & 2 for c in ev], initial=0)] if carry else None
            for k, n in enumerate(_counts(ev)):
                window = ev[k : k + _REACH]
                for entry in _site(window, n):
                    kind, rule, found, records = entry
                    if rule.length_delta > budget:
                        continue
                    if records is None:
                        records = _records(entry, window, n)
                    end = k + rule.width
                    head, tail = ev[:k], ev[end:]
                    # The events at the seams; 0, a cup, stands in past either end.
                    below, above = ev[k - 1] if k else 0, ev[end] if end < size else 0
                    for params, rewrite in zip(found, records):
                        # Key first, build only new positions.  Equal keys
                        # differ only by distant crossing swaps, which keep
                        # index validity, counts and component count: the
                        # word first seen with a key has them.
                        new = rewrite[0]
                        events = head + new + tail
                        # Order is a property of adjacent pairs
                        # (canonical_key), so the child of an ordered word is
                        # ordered, and its own key with no scan, when the
                        # rewrite is in order and so are its seams (below,
                        # first) and (last, above); round an empty rewrite
                        # both are (below, above).
                        key = events
                        first, last = (rewrite[5], rewrite[6]) if new else (above, below)
                        if not (ordered and rewrite[4]) or (
                            below & first & 2 and first >> 2 < (below >> 2) - 1
                            or last & above & 2 and above >> 2 < (last >> 2) - 1
                        ):
                            key = canonical_key(events)
                        seen = len(visited)
                        visited.add(key)  # one hash per key
                        if len(visited) == seen:
                            continue
                        child = _child(
                            objective,
                            parent,
                            kind,
                            k,
                            params,
                            events,
                            rewrite,
                            key is events,
                            starts,
                        )
                        candidates.append(child)
                        if seen >= node_cap:
                            best = min([best, *candidates], key=itemgetter(0))
                            raise BudgetExceeded(
                                f"{name} search node cap exceeded",
                                best=_result(best, len(visited), start),
                            )
        if not candidates:
            break
        if rank is None:
            best = min([best, *candidates], key=itemgetter(0))
            frontier = candidates
        else:
            frontier = nsmallest(max(keep, 1), candidates, key=rank)
            best = min(best, frontier[0], key=itemgetter(0))
            del frontier[keep:]
    return _result(best, len(visited), start)


def beam_search(
    start: MorseWord,
    objective: Objective = Objective(),
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Seeded beam search.  Keeps the ``beam_width`` best frontier words
    each step, deduplicating by canonical key; traces record the exact
    move sequence from ``start`` to the reported word."""
    rng = random.Random(config.random_seed)
    return _frontier_search(
        start,
        objective,
        config.max_steps,
        config.insertion_budget,
        _BEAM_NODE_CAP,
        "beam",
        rank=lambda candidate: (candidate[0], rng.random()),
        keep=config.beam_width,
    )


def exhaustive_min(
    start: MorseWord,
    objective: Objective = Objective(),
    radius: int = 4,
    insertion_budget: int = 0,
) -> SearchResult:
    """Breadth-first over every word within ``radius`` moves, up to the
    node cap.  With insertion_budget=0 the reachable set is finite."""
    _refuse_negative("radius", radius)
    _refuse_negative("insertion_budget", insertion_budget)
    return _frontier_search(
        start, objective, radius, insertion_budget, _EXHAUSTIVE_NODE_CAP, "exhaustive"
    )


@dataclass(frozen=True)
class ClassifiedPosition:
    word: MorseWord
    report: LevelProfile
    width_minimal: bool
    critical_minimal: bool
    otp_minimal: bool

    @property
    def cell(self) -> str:
        labels = []
        if self.width_minimal:
            labels.append("TP")
        if self.critical_minimal:
            labels.append("MCP")
        if self.otp_minimal:
            labels.append("OTP")
        return "&".join(labels) if labels else "none"


@dataclass(frozen=True)
class PositionClasses:
    positions: tuple[ClassifiedPosition, ...]
    min_width: int
    min_critical_count: int
    min_otp_vector: tuple[int, ...]


def classify_positions(words: Sequence[MorseWord]) -> PositionClasses:
    """Flag which of the given positions minimize the width, critical-count
    and OTP objective keys within the collection.  All words must present
    the same knot; sameness is gated by the normalized bracket."""
    words = list(words)
    if not words:
        raise ValueError("no positions given")
    for w in words:
        require_knot(w)
    reference = jones_normalized(words[0])
    for w in words[1:]:
        if jones_normalized(w) != reference:
            raise BracketMismatch(
                f"positions disagree on the normalized bracket: {words[0]} vs {w}"
            )
    profiles = [level_profile(w) for w in words]  # one per word: its keys and its report
    kinds = (ObjectiveKind.GABAI_WIDTH, ObjectiveKind.CRITICAL_COUNT, ObjectiveKind.OTP_LEX)
    keys = [tuple(_PROFILE_KEYS[kind](p) for kind in kinds) for p in profiles]
    minima = [min(column) for column in zip(*keys)]
    positions = tuple(
        ClassifiedPosition(w, p, *(k == m for k, m in zip(row, minima)))
        for w, p, row in zip(words, profiles, keys)
    )
    (min_width,), (min_critical,), (min_otp, _) = minima
    return PositionClasses(positions, min_width, min_critical, min_otp)
