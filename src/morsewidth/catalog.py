"""Named example words and profile constructors.

Entries come in three flavors: small knots given by explicit plats
(unknot, trefoil_plat, figure8_plat, torus_plat(p,q), padded_trefoil),
crossingless stand-ins realizing a prescribed gap profile (cex4_gamma
and friends; these present the unknot but carry the exact level
structure of interest), and open tangles (rational_tangle,
two_rational_sum).
"""

from __future__ import annotations

import math
import re
from typing import Sequence, Union

from .errors import UnknownName, ValidationError, Violation
from .events import MorseEvent, MorseWord, TangleWord, cap, cross, cup
from .moves import Move, MoveKind, apply_move


def realize_profile(widths: Sequence[int]) -> MorseWord:
    """Crossingless closed word whose gap profile is exactly ``widths``.

    Every level's strands pair up by arc as (1,2), (3,4), ...: a cup at 1
    adds a pair, and a cap at 2 joins the first two arcs into the new first
    pair.  So ascents are cup(1) and descents cap(2); only the last event,
    cap(1), closes a loop, and the word is one component.
    """
    widths = list(widths)
    if not widths:
        raise ValueError("profile must be non-empty")
    for w in widths:
        if w < 2 or w % 2 != 0:
            raise ValueError(f"profile values must be positive even, got {w}")
    if widths[0] != 2 or widths[-1] != 2:
        raise ValueError("profile must start and end at 2")
    for a, b in zip(widths, widths[1:]):
        if abs(a - b) != 2:
            raise ValueError(f"profile must step by 2, got {a} -> {b}")

    events: list[MorseEvent] = [cup(1)]
    for prev, cur in zip(widths, widths[1:]):
        events.append(cup(1) if cur > prev else cap(2))
    events.append(cap(1))
    return MorseWord(events)


def profile_from_extrema(thick: Sequence[int], thin: Sequence[int]) -> list[int]:
    """Gap profile walking through the given alternating extrema:
    thick[0], thin[0], thick[1], ..., thick[-1].  Needs one more thick
    level than thin levels, every thin strictly below its neighbors."""
    thick, thin = list(thick), list(thin)
    if len(thick) != len(thin) + 1:
        raise ValueError("need exactly one more thick level than thin levels")
    for v in thick + thin:
        if v < 2 or v % 2 != 0:
            raise ValueError(f"levels must be positive even, got {v}")
    for k, s in enumerate(thin):
        if s >= thick[k] or s >= thick[k + 1]:
            raise ValueError(f"thin level {s} not below its thick neighbors")
    targets = [thick[0]]
    for s, t in zip(thin, thick[1:]):
        targets += [s, t]
    targets.append(2)
    profile = [2]
    for tgt in targets:
        step = 2 if tgt > profile[-1] else -2
        while profile[-1] != tgt:
            profile.append(profile[-1] + step)
    return profile


def pad_with_fingers(word: MorseWord, count: int = 1) -> MorseWord:
    """Insert ``count`` cancellable zig-zag fingers at the widest level.
    Each finger adds a thick gap two wider than the current maximum and
    is removable by ZigZagCancel, so the result presents the same knot
    with strictly larger width.  A negative count raises ValueError."""
    if count < 0:
        raise ValueError(f"count must be 0 or more, got {count}")
    for _ in range(count):
        m = max(word.counts)
        finger = Move(MoveKind.ZIGZAG_INSERT, word.counts.index(m), (m, "right"))
        word = apply_move(word, finger)
    return word


def torus_plat(p: int, q: int, sign: int = -1) -> MorseWord:
    """Plat presentation of the (p,q) torus knot: p nested cups, the
    q-fold repeated braid ribbon on the upper p strands, p caps.  Report
    values: width 2p^2, trunk 2p, height 1, bridge p."""
    if p < 2 or q < 1:
        raise ValueError("torus_plat needs p >= 2, q >= 1")
    if math.gcd(p, q) != 1:
        raise ValidationError(
            [
                Violation(
                    "MultipleComponents",
                    0,
                    f"torus_plat({p},{q}) closes gcd({p},{q})={math.gcd(p, q)} "
                    "components; a knot needs coprime parameters",
                )
            ]
        )
    events = [cup(k) for k in range(1, p + 1)]
    for _ in range(q):
        for j in range(1, p):
            events.append(cross(p + j, sign))
    events.extend(cap(k) for k in range(p, 0, -1))
    return MorseWord(events)


def _unknot() -> MorseWord:
    return MorseWord([cup(1), cap(1)])


def _trefoil_plat() -> MorseWord:
    return torus_plat(2, 3)


def _figure8_plat() -> MorseWord:
    return MorseWord(
        [
            cup(1),
            cup(2),
            cup(3),
            cross(4, +1),
            cross(5, -1),
            cross(4, +1),
            cross(5, -1),
            cap(3),
            cap(2),
            cap(1),
        ]
    )


def _padded_trefoil() -> MorseWord:
    return pad_with_fingers(_trefoil_plat(), 1)


_ENTRIES: dict[str, tuple] = {
    "unknot": (_unknot, "round unknot, one cup and one cap"),
    "trefoil_plat": (_trefoil_plat, "2-bridge plat of the trefoil, width 8"),
    "figure8_plat": (_figure8_plat, "3-bridge plat of the figure-eight knot"),
    "padded_trefoil": (
        _padded_trefoil,
        "trefoil plat plus one cancellable finger, width 18",
    ),
    "cex4_gamma": (
        lambda: realize_profile(profile_from_extrema([22], [])),
        "bridge-position stand-in: single thick level 22, width 242",
    ),
    "cex4_gamma_prime": (
        lambda: realize_profile(profile_from_extrema([18, 14], [6])),
        "stand-in with thick levels 18,14 over thin 6, width 242",
    ),
    "bt134": (
        lambda: realize_profile(profile_from_extrema([10, 10, 10], [4, 4])),
        "stand-in with thick levels 10,10,10 over thins 4,4, width 134",
    ),
    "bt_mcp": (
        lambda: realize_profile(profile_from_extrema([12, 12], [4])),
        "stand-in with thick levels 12,12 over thin 4, width 136",
    ),
    "stack_101010": (
        lambda: realize_profile(profile_from_extrema([10, 10, 10], [2, 2])),
        "stand-in with thick levels 10,10,10 over thins 2,2, width 146",
    ),
    "rational_tangle": (
        lambda: TangleWord(4, [cross(1, +1), cross(2, +1), cap(2), cap(1)]),
        "4-strand tangle with two crossings, trunk 4",
    ),
    "two_rational_sum": (
        lambda: TangleWord(
            4, [cross(1, +1), cross(3, -1), cup(3), cap(2), cap(2), cap(1)]
        ),
        "4-strand tangle joining two twist regions, trunk 6",
    ),
}

_TORUS = re.compile(r"^torus_plat\((\d+),\s*(\d+)\)$")


def entries() -> list[tuple[str, str]]:
    """(name, description) pairs, plus the parametric family."""
    rows = [(name, desc) for name, (_, desc) in _ENTRIES.items()]
    rows.append(
        ("torus_plat(p,q)", "parametric torus-knot plat, coprime p >= 2, q >= 1")
    )
    return rows


def catalog(name: str) -> Union[MorseWord, TangleWord]:
    """Look up a named word; UnknownName lists what exists."""
    if name in _ENTRIES:
        return _ENTRIES[name][0]()
    m = _TORUS.match(name)
    if m:
        return torus_plat(int(m.group(1)), int(m.group(2)))
    known = ", ".join(sorted(_ENTRIES) + ["torus_plat(p,q)"])
    raise UnknownName(f"no catalog entry {name!r}; known: {known}")
