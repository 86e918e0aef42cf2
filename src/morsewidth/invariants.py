"""Level invariants of a Morse word: width, trunk, height, bridge number.

Between two consecutive critical events (cups and caps; crossings are not
critical for the height function) the strand count is constant.  Each such
regular interval is a *gap* whose width is that count.  A gap is *thick*
when a cup lies below it and a cap above, *thin* in the opposite case, and
unclassified otherwise.  For a closed word the thick and thin gaps
alternate, starting and ending thick, so #thick = #thin + 1.

From the gap profile:

* width        -- Gabai width, the sum of all gap widths; equivalently
                  (sum of thick^2 - sum of thin^2) / 2.
* trunk        -- the largest gap width (always attained at a thick gap).
* height       -- the number of thick gaps.
* bridge_count -- the number of caps (= number of cups).
* otp_vector   -- thick widths, sorted non-increasing; compared
                  lexicographically with a proper prefix ordered first.

All derived ratios (proportion, average_trunk) are exact rationals.
These are invariants of the embedding the word presents, not of the
underlying knot type; knot-type minima over all embeddings are out of
scope (as are mp(K), distortion and bridge-distance style invariants),
and position comparisons are per word set (see position search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError, Violation
from .events import EventKind, MorseWord, TangleWord, require_knot

THICK = "thick"
THIN = "thin"
NEITHER = "neither"


@dataclass(frozen=True)
class Gap:
    """One regular interval between consecutive critical events."""

    width: int
    below: EventKind
    above: EventKind

    @property
    def classification(self) -> str:
        if self.below is EventKind.CUP and self.above is EventKind.CAP:
            return THICK
        if self.below is EventKind.CAP and self.above is EventKind.CUP:
            return THIN
        return NEITHER


@dataclass(frozen=True)
class LevelProfile:
    """Gap widths, bottom to top, and the kinds of the critical events
    around them (``kinds[t]`` below gap t, ``kinds[t + 1]`` above it)."""

    widths: tuple[int, ...]
    kinds: tuple[EventKind, ...]

    @property
    def gaps(self) -> tuple[Gap, ...]:
        """The profile as ``Gap`` objects, for reports."""
        k = self.kinds
        return tuple(Gap(w, k[t], k[t + 1]) for t, w in enumerate(self.widths))

    def _widths_between(self, below: EventKind, above: EventKind) -> tuple[int, ...]:
        k = self.kinds
        return tuple(w for w, b, a in zip(self.widths, k, k[1:]) if b is below and a is above)

    @property
    def thick_widths(self) -> tuple[int, ...]:
        return self._widths_between(EventKind.CUP, EventKind.CAP)

    @property
    def thin_widths(self) -> tuple[int, ...]:
        return self._widths_between(EventKind.CAP, EventKind.CUP)

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
    def otp_vector(self) -> tuple[int, ...]:
        return tuple(sorted(self.thick_widths, reverse=True))

    @property
    def average_trunk(self) -> Fraction:
        thick = self.thick_widths
        return Fraction(sum(thick), len(thick))


def level_profile(word: MorseWord) -> LevelProfile:
    """Gap profile of a closed word (crossings merge into their gap)."""
    cross = EventKind.CROSS
    critical = [pos for pos, ev in enumerate(word.events) if ev.kind is not cross]
    counts, events = word.counts, word.events
    return LevelProfile(
        tuple([counts[pos + 1] for pos in critical[:-1]]),
        tuple([events[pos].kind for pos in critical]),
    )


def width(word: MorseWord) -> int:
    return level_profile(word).width


def trunk(word: MorseWord) -> int:
    return level_profile(word).trunk


def height(word: MorseWord) -> int:
    return level_profile(word).height


def bridge_count(word: MorseWord) -> int:
    return sum(1 for e in word.events if e.kind is EventKind.CAP)


def critical_count(word: MorseWord) -> int:
    return sum(1 for e in word.events if e.is_critical)


def otp_vector(word: MorseWord) -> tuple[int, ...]:
    return level_profile(word).otp_vector


def otp_compare(a, b) -> int:
    """Order two thick-width vectors (or the words carrying them): -1, 0, +1.

    Lexicographic on non-increasing vectors; a proper prefix precedes the
    longer vector, so {10,10} < {10,10,10}.  (Python tuple comparison
    implements exactly this convention.)
    """
    if isinstance(a, MorseWord):
        a = otp_vector(a)
    if isinstance(b, MorseWord):
        b = otp_vector(b)
    a, b = tuple(a), tuple(b)
    return -1 if a < b else (0 if a == b else 1)


def proportion(word: MorseWord) -> Fraction:
    """trunk / (height * 2 * bridge), exactly; equals 1 on bridge positions."""
    return _proportion(level_profile(word), bridge_count(word))


def _proportion(profile: LevelProfile, bridge: int) -> Fraction:
    return Fraction(profile.trunk, profile.height * 2 * bridge)


def average_trunk(word: MorseWord) -> Fraction:
    return level_profile(word).average_trunk


def rep_upper_bound(word: MorseWord) -> int:
    """Upper bound for the representativity of the knot the word presents:
    min(bridge number, floor(trunk/2))."""
    return embedding_report(word).rep_upper


def waist_upper_bound(word: MorseWord) -> int:
    """Upper bound for the waist of the knot: floor(trunk/3)."""
    return embedding_report(word).waist_upper


@dataclass(frozen=True)
class EmbeddingReport:
    """All level invariants of one knot embedding, derived from one gap
    profile.  ``gaps`` is that profile; it is not part of ``as_dict``."""

    width: int
    trunk: int
    height: int
    bridge: int
    critical_count: int
    otp_vector: tuple[int, ...]
    proportion: Fraction
    average_trunk: Fraction
    rep_upper: int
    waist_upper: int
    gaps: tuple[Gap, ...] = field(compare=False, repr=False)

    def as_dict(self) -> dict:
        """JSON-ready dict; rationals become {num, den} in lowest terms."""
        return {
            "width": self.width,
            "trunk": self.trunk,
            "height": self.height,
            "bridge": self.bridge,
            "critical_count": self.critical_count,
            "otp_vector": list(self.otp_vector),
            "proportion": {
                "num": self.proportion.numerator,
                "den": self.proportion.denominator,
            },
            "average_trunk": {
                "num": self.average_trunk.numerator,
                "den": self.average_trunk.denominator,
            },
            "rep_upper": self.rep_upper,
            "waist_upper": self.waist_upper,
        }


def embedding_report(word: MorseWord) -> EmbeddingReport:
    require_knot(word)
    profile = level_profile(word)
    top, bridge = profile.trunk, bridge_count(word)
    return EmbeddingReport(
        width=profile.width,
        trunk=top,
        height=profile.height,
        bridge=bridge,
        critical_count=critical_count(word),
        otp_vector=profile.otp_vector,
        proportion=_proportion(profile, bridge),
        average_trunk=profile.average_trunk,
        rep_upper=min(bridge, top // 2),
        waist_upper=top // 3,
        gaps=profile.gaps,
    )


def is_bridge_position(word: MorseWord) -> bool:
    """True when every cup precedes every cap: the word has no thin gap."""
    return not level_profile(word).thin_widths


def connected_sum(a: MorseWord, b: MorseWord) -> MorseWord:
    """Splice two knot words: drop a's final cap and b's initial cup and
    concatenate.  Exactly additive: width w1+w2-2, bridge b1+b2-1, trunk
    max(t1, t2), still one component."""
    for w in (a, b):
        if not isinstance(w, MorseWord):
            raise ValidationError(
                [Violation("EmptyWord", 0, "connected_sum needs two knot words")]
            )
        require_knot(w)
    # Local validity forces a's last event to be Cap(1) at two strands and
    # b's first to be Cup(1), so the splice lines up without reindexing.
    return MorseWord(a.events[:-1] + b.events[1:])


def tangle_trunk(word: TangleWord) -> int:
    """Largest strand count over regular levels, boundary level included."""
    return max(word.counts)
