"""Search over the move graph for good positions of a fixed knot.

Nodes are Morse words; edges are rewrite moves.  The searches never
return a word worse than their input under the chosen objective, and
beam search is deterministic for a fixed seed: candidates are generated
in a fixed order, shuffled by the seeded RNG, then stably sorted by
objective value, so the seed only breaks ties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .bracket import jones_normalized
from .errors import BracketMismatch, BudgetExceeded
from .events import MorseWord, require_knot
from .invariants import (
    EmbeddingReport,
    critical_count,
    embedding_report,
    otp_vector,
    trunk,
    width,
)
from .moves import LENGTH_DELTA, Move, apply_move, canonical_key, enumerate_moves


class ObjectiveKind(Enum):
    GABAI_WIDTH = "width"
    CRITICAL_COUNT = "critical"
    OTP_LEX = "otp"
    TRUNK_ONLY = "trunk"


def _otp_key(word: MorseWord) -> tuple:
    # Thick-width vectors compare lexicographically; total width breaks ties.
    return (otp_vector(word), width(word))


_KEYS: dict[ObjectiveKind, Callable[[MorseWord], tuple]] = {
    ObjectiveKind.GABAI_WIDTH: lambda w: (width(w),),
    ObjectiveKind.CRITICAL_COUNT: lambda w: (critical_count(w),),
    ObjectiveKind.OTP_LEX: _otp_key,
    ObjectiveKind.TRUNK_ONLY: lambda w: (trunk(w),),
}


@dataclass(frozen=True)
class Objective:
    """What to minimize.  ``tiebreak`` appends a secondary objective's
    key, compared only when the primary keys are equal."""

    kind: ObjectiveKind = ObjectiveKind.GABAI_WIDTH
    tiebreak: Optional[ObjectiveKind] = None

    def key(self, word: MorseWord) -> tuple:
        k = _KEYS[self.kind](word)
        if self.tiebreak is not None:
            k = k + _KEYS[self.tiebreak](word)
        return k


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 32
    max_steps: int = 64
    insertion_budget: int = 2
    random_seed: int = 0


@dataclass(frozen=True)
class SearchResult:
    best_word: MorseWord
    best_report: Optional[EmbeddingReport]
    trace: tuple[Move, ...]
    visited: int
    objective_value: tuple


_BEAM_NODE_CAP = 1_000_000
_EXHAUSTIVE_NODE_CAP = 200_000


_Candidate = tuple[tuple, MorseWord, tuple[Move, ...]]  # (key, word, trace)


def _result(best: _Candidate, visited: int) -> SearchResult:
    key, word, trace = best
    report = embedding_report(word) if word.is_knot else None
    return SearchResult(word, report, trace, visited, key)


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
    the length budget to every frontier word and drops positions already
    seen (by canonical key).  The new ones, sorted by ``rank`` if given,
    offer the best word and form the next frontier: the first ``keep``, or all."""
    max_len = len(start.events) + insertion_budget
    visited = {canonical_key(start)}
    best: _Candidate = (objective.key(start), start, ())
    frontier = [best]

    for _ in range(steps):
        candidates: list[_Candidate] = []
        for _, word, trace in frontier:
            for move in enumerate_moves(word):
                if len(word.events) + LENGTH_DELTA[move.kind] > max_len:
                    continue
                new_word = apply_move(word, move)
                ck = canonical_key(new_word)
                if ck in visited:
                    continue
                visited.add(ck)
                candidates.append((objective.key(new_word), new_word, trace + (move,)))
                if len(visited) > node_cap:
                    best = min([best, *candidates], key=itemgetter(0))
                    raise BudgetExceeded(
                        f"{name} search node cap exceeded",
                        best=_result(best, len(visited)),
                    )
        if not candidates:
            break
        if rank is not None:
            candidates.sort(key=rank)
        best = min([best, *candidates], key=itemgetter(0))
        frontier = candidates[:keep]
    return _result(best, len(visited))


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
    """Flag which of the given positions minimize width, critical count,
    and thick-vector order within the collection.  All words must present
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
    reports = [embedding_report(w) for w in words]
    min_width = min(r.width for r in reports)
    min_critical = min(r.critical_count for r in reports)
    min_otp = min((r.otp_vector, r.width) for r in reports)
    positions = tuple(
        ClassifiedPosition(
            word=w,
            report=r,
            width_minimal=r.width == min_width,
            critical_minimal=r.critical_count == min_critical,
            otp_minimal=(r.otp_vector, r.width) == min_otp,
        )
        for w, r in zip(words, reports)
    )
    return PositionClasses(positions, min_width, min_critical, min_otp[0])
