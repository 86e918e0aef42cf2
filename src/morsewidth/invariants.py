"""Level invariants of a Morse word: width, trunk, height, bridge number.

Between two consecutive critical events (cups and caps; crossings are not
critical for the height function) the strand count is constant.  Each such
regular interval is a *gap* whose width is that count.  The *levels* are
the strand counts with the repeats at crossings collapsed: 0, each gap's
width, 0.  A gap is *thick* at a local maximum of the levels, *thin* at a
local minimum, and unclassified otherwise.  The thick and thin gaps
alternate, starting and ending thick, so #thick = #thin + 1.

From the levels:

* width        -- Gabai width, the sum of all gap widths; equivalently
                  (sum of thick^2 - sum of thin^2) / 2.
* trunk        -- the largest gap width (always attained at a thick gap).
* height       -- the number of thick gaps.
* bridge_count -- the number of caps (= number of cups): half the level steps.
* otp_vector   -- thick widths, sorted non-increasing; compared
                  lexicographically with a proper prefix ordered first.
* critical_count, rep_upper, waist_upper -- the number of cups and caps,
                  trunk // 2 and trunk // 3.

All derived ratios (proportion, average_trunk) are exact rationals.  A
knot word's report is its ``LevelProfile``: every value above is a
property of the profile, computed when read.  Tangles have no levels
here; ``tangle_trunk`` is their invariant.
These are invariants of the embedding the word presents, not of the
underlying knot type; knot-type minima over all embeddings are out of
scope (as are mp(K), distortion and bridge-distance style invariants),
and position comparisons are per word set (see position search).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .events import MorseWord, TangleWord, require_closed, require_knot

THICK = "thick"
THIN = "thin"
NEITHER = "neither"


@dataclass(frozen=True)
class Gap:
    """One regular interval between consecutive critical events."""

    width: int
    classification: str


@dataclass(frozen=True)
class LevelProfile:
    """The levels of a closed word: 0, each gap's width bottom to top, 0.
    Every level invariant is a property; a knot word's profile is its report."""

    levels: tuple[int, ...]

    @property
    def widths(self) -> tuple[int, ...]:
        return self.levels[1:-1]

    @cached_property
    def _classes(self) -> list[str]:
        """Each gap's class: thick at a local maximum, thin at a local minimum."""
        lv = self.levels
        return [
            THICK if below < w > above else THIN if below > w < above else NEITHER
            for below, w, above in zip(lv, lv[1:], lv[2:])
        ]

    @property
    def gaps(self) -> tuple[Gap, ...]:
        """The profile as ``Gap`` objects, for reports."""
        return tuple(map(Gap, self.widths, self._classes))

    @cached_property
    def thick_widths(self) -> tuple[int, ...]:
        return tuple(w for w, c in zip(self.widths, self._classes) if c == THICK)

    @property
    def thin_widths(self) -> tuple[int, ...]:
        return tuple(w for w, c in zip(self.widths, self._classes) if c == THIN)

    @property
    def width(self) -> int:
        return sum(self.widths)

    @property
    def trunk(self) -> int:
        return max(self.widths)

    @property
    def height(self) -> int:
        return len(self.thick_widths)

    @property
    def bridge(self) -> int:
        return len(self.levels) // 2  # one cup step and one cap step per bridge

    @property
    def otp_vector(self) -> tuple[int, ...]:
        return tuple(sorted(self.thick_widths, reverse=True))

    @property
    def proportion(self) -> Fraction:
        return Fraction(self.trunk, self.height * 2 * self.bridge)

    @property
    def average_trunk(self) -> Fraction:
        return Fraction(sum(self.thick_widths), self.height)

    @property
    def critical_count(self) -> int:
        return len(self.levels) - 1  # one level step per cup or cap

    @property
    def rep_upper(self) -> int:
        return self.trunk // 2

    @property
    def waist_upper(self) -> int:
        return self.trunk // 3

    def as_dict(self) -> dict:
        """JSON-ready dict of the ten report fields (not ``gaps``); the vector
        becomes a list and rationals {num, den} in lowest terms."""
        out = {name: getattr(self, name) for name in _REPORT_FIELDS}
        out["otp_vector"] = list(self.otp_vector)
        for name in ("proportion", "average_trunk"):
            out[name] = {"num": out[name].numerator, "den": out[name].denominator}
        return out


_REPORT_FIELDS = (
    "width", "trunk", "height", "bridge", "critical_count",
    "otp_vector", "proportion", "average_trunk", "rep_upper", "waist_upper",
)
EmbeddingReport = LevelProfile


def levels(counts: Sequence[int]) -> tuple[int, ...]:
    """Each run of equal strand counts once, bottom to top: a crossing
    repeats the count below it."""
    return tuple([c for c, d in zip(counts, counts[1:]) if c != d]) + tuple(counts[-1:])


def level_profile(word: MorseWord) -> LevelProfile:
    return LevelProfile(levels(require_closed(word, "a level invariant").counts))


def width(word: MorseWord) -> int:
    return level_profile(word).width


def trunk(word: MorseWord) -> int:
    return level_profile(word).trunk


def height(word: MorseWord) -> int:
    return level_profile(word).height


def bridge_count(word: MorseWord) -> int:
    return level_profile(word).bridge


def critical_count(word: MorseWord) -> int:
    return level_profile(word).critical_count


def otp_vector(word: MorseWord) -> tuple[int, ...]:
    return level_profile(word).otp_vector


def otp_compare(a, b) -> int:
    """Order two thick-width vectors (or the words carrying them): -1, 0, +1.

    Lexicographic on non-increasing vectors; a proper prefix precedes the
    longer vector, so {10,10} < {10,10,10}.  (Python tuple comparison
    implements exactly this convention.)
    """
    if isinstance(a, (MorseWord, TangleWord)):
        a = otp_vector(a)
    if isinstance(b, (MorseWord, TangleWord)):
        b = otp_vector(b)
    a, b = tuple(a), tuple(b)
    return -1 if a < b else (0 if a == b else 1)


def proportion(word: MorseWord) -> Fraction:
    """trunk / (height * 2 * bridge), exactly; equals 1 on bridge positions."""
    return level_profile(word).proportion


def average_trunk(word: MorseWord) -> Fraction:
    return level_profile(word).average_trunk


def rep_upper_bound(word: MorseWord) -> int:
    """Upper bound for the representativity of the knot the word presents:
    floor(trunk/2), the paper's bound.  It never exceeds the bridge number,
    since trunk <= 2 * bridge on every closed word."""
    return embedding_report(word).rep_upper


def waist_upper_bound(word: MorseWord) -> int:
    """Upper bound for the waist of the knot: floor(trunk/3)."""
    return embedding_report(word).waist_upper


def embedding_report(word: MorseWord) -> EmbeddingReport:
    return level_profile(require_knot(word))


def is_bridge_position(word: MorseWord) -> bool:
    """True when every cup precedes every cap: the word has no thin gap."""
    return not level_profile(word).thin_widths


def connected_sum(a: MorseWord, b: MorseWord) -> MorseWord:
    """Splice two knot words: drop a's final cap and b's initial cup and
    concatenate.  Exactly additive: width w1+w2-2, bridge b1+b2-1, trunk
    max(t1, t2), still one component."""
    for w in (a, b):
        require_knot(w)
    # Local validity forces a's last event to be Cap(1) at two strands and
    # b's first to be Cup(1), so the splice lines up without reindexing.
    return MorseWord(a.events[:-1] + b.events[1:])


def tangle_trunk(word: TangleWord) -> int:
    """Largest strand count over regular levels, boundary level included."""
    return max(word.counts)
