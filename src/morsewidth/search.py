"""Search over the move graph for good positions of a fixed knot.

A node is a position (key, events, strand counts, trail); edges are
rewrite moves.  Only the word a search returns is built as a validated
``MorseWord``.  The searches never return a word worse than their input
under the chosen objective, and beam search is deterministic for a fixed
seed: candidates are generated in a fixed order and sorted by (objective
key, one seeded random draw per candidate), so the seed only breaks ties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .bracket import jones_normalized
from .errors import BracketMismatch, BudgetExceeded, InvalidMove
from .events import MorseWord, require_knot
from .invariants import (
    EmbeddingReport,
    LevelProfile,
    embedding_report,
    level_profile,
    levels,
)
from .moves import Move, _rewrite, _site, _sites, canonical_key


class ObjectiveKind(Enum):
    GABAI_WIDTH = "width"
    CRITICAL_COUNT = "critical"
    OTP_LEX = "otp"
    TRUNK_ONLY = "trunk"
    HEIGHT = "height"

    __hash__ = object.__hash__  # singletons: identity hash, as for EventKind


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
_DELTA_FIELDS = {ObjectiveKind.GABAI_WIDTH: 3, ObjectiveKind.CRITICAL_COUNT: 4}


@dataclass(frozen=True)
class Objective:
    """What to minimize."""

    kind: ObjectiveKind = ObjectiveKind.GABAI_WIDTH

    def key(self, word: MorseWord) -> tuple:
        """The word's key, read off its one level profile."""
        return _PROFILE_KEYS[self.kind](level_profile(word))


def _refuse_negative(name: str, value: int) -> None:
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
    best_report: Optional[EmbeddingReport]
    trace: tuple[Move, ...]
    visited: int
    objective_value: tuple


_BEAM_NODE_CAP = 1_000_000
_EXHAUSTIVE_NODE_CAP = 200_000


# A position is its events and strand counts, the counts patched from its
# parent's.  A trail is None at the start word, else (the parent's trail,
# the move from the parent): the trace as a parent-pointer chain, unwound once.
_Candidate = tuple[tuple, tuple, tuple, Optional[tuple]]  # (key, events, counts, trail)


def _result(best: _Candidate, visited: int, start: MorseWord) -> SearchResult:
    """The result, its word built by the validating constructor, which must
    give the candidate's patched counts and the start's component count."""
    key, events, counts, trail = best
    moves = []
    while trail is not None:
        trail, move = trail
        moves.append(move)
    word = MorseWord(events)
    if word.counts != counts or word.component_count != start.component_count:
        raise InvalidMove(f"the patched counts of {word} differ from its simulation")
    report = embedding_report(word) if word.is_knot else None
    return SearchResult(word, report, tuple(reversed(moves)), visited, key)


def _child(
    objective: Objective, parent: _Candidate, move: Move, end: int, events: tuple, rewrite: tuple
) -> _Candidate:
    """The candidate of the new position ``events``, made by ``move`` (its
    window ends at ``end``; ``rewrite`` is its moves._rewrite entry).  Its
    counts are the parent's outside the window and the rewrite's inside.  A
    flat rewrite keeps every key; the width and critical-count keys change by
    the rewrite's change, and the others are read off the new levels."""
    key, ev, counts, trail = parent
    local, flat = rewrite[1], rewrite[2]
    if local is None:
        word = " ".join(map(str, ev))
        raise InvalidMove(f"{move} changed the component count or the strands of {word}")
    counts = counts[: move.site] + local + counts[end + 1 :]
    if not flat:
        field = _DELTA_FIELDS.get(objective.kind)
        if field is None:
            key = _PROFILE_KEYS[objective.kind](LevelProfile(levels(counts)))
        else:
            key = (key[0] + rewrite[field],)
    return (key, events, counts, (trail, move))


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
    not yet seen (by canonical key).  The new ones, sorted by ``rank`` if
    given, offer the best and form the next frontier: the first ``keep``, or all."""
    max_len = len(start.events) + insertion_budget
    visited = {canonical_key(start)}
    best: _Candidate = (objective.key(start), start.events, start.counts, None)
    frontier = [best]

    for _ in range(steps):
        candidates: list[_Candidate] = []
        for parent in frontier:
            _, ev, counts, _ = parent
            for k, kind, rule, params in _sites(ev, counts, max_len - len(ev), _site):
                # Key first, build only new positions.  Equal keys differ only
                # by distant crossing swaps, which keep index validity, counts
                # and component count: the word first seen with a key has them.
                end = k + rule.width
                rewrite = _rewrite(rule, ev[k:end], params, counts[k])
                events = ev[:k] + rewrite[0] + ev[end:]
                seen = len(visited)
                visited.add(canonical_key(events))  # one hash per key
                if len(visited) == seen:
                    continue
                move = Move(kind, k, params)
                candidates.append(_child(objective, parent, move, end, events, rewrite))
                if len(visited) > node_cap:
                    best = min([best, *candidates], key=itemgetter(0))
                    raise BudgetExceeded(
                        f"{name} search node cap exceeded",
                        best=_result(best, len(visited), start),
                    )
        if not candidates:
            break
        if rank is not None:
            candidates.sort(key=rank)
        best = min([best, *candidates], key=itemgetter(0))
        frontier = candidates[:keep]
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
    report: EmbeddingReport
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
