"""Slow reference implementations, deliberately separate from the package.

These recompute invariants from event lists by direct simulation so the
fast implementations in morsewidth have something independent to agree
with.  The bracket oracle expands the state sum by relabeling strand
lists per state (no shared arc structure, no union-find); the writhe
oracle uses the parity rule: a crossing keeps its letter sign when its
two strands are traversed in the same vertical direction and flips it
otherwise.
"""

from __future__ import annotations

from morsewidth.events import EventKind, MorseWord

# ---------------------------------------------------------------------------
# Tiny Laurent polynomial helpers over plain dicts {exponent: coefficient}.


def padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def ppow(p: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = pmul(out, p)
    return out


DELTA = {2: -1, -2: -1}  # loop value -A^2 - A^-2


# ---------------------------------------------------------------------------
# Gap profile recomputed by direct scanning.


def oracle_counts(events, start: int = 0) -> list[int]:
    counts = [start]
    n = start
    for e in events:
        if e.kind is EventKind.CUP:
            n += 2
        elif e.kind is EventKind.CAP:
            n -= 2
        counts.append(n)
    return counts


def oracle_gaps(events) -> list[tuple[int, str]]:
    """(width, classification) per regular interval between criticals."""
    counts = oracle_counts(events)
    criticals = [
        (k, e.kind) for k, e in enumerate(events) if e.kind is not EventKind.CROSS
    ]
    gaps = []
    for (k1, kind1), (k2, kind2) in zip(criticals, criticals[1:]):
        w = counts[k1 + 1]
        if kind1 is EventKind.CUP and kind2 is EventKind.CAP:
            cls = "thick"
        elif kind1 is EventKind.CAP and kind2 is EventKind.CUP:
            cls = "thin"
        else:
            cls = "neither"
        gaps.append((w, cls))
    return gaps


def oracle_width(events) -> int:
    return sum(w for w, _ in oracle_gaps(events))


# ---------------------------------------------------------------------------
# Components by a graph walk over strand pieces.


def oracle_components(events, start: int = 0):
    """(counts, closed components, [(violation code, position)]) of an event
    list read from ``start`` strands; a start above zero is a tangle.

    The sweep only records pieces: a boundary strand or a cup end is a
    piece, a cup's arc and a cap each join two pieces, and a crossing
    swaps two slots.  Invalid events are skipped.  Afterwards a walk finds
    the connected pieces; a component with no boundary piece and no piece
    left open at the top is closed, and it closes at its highest cap.
    """
    counts, bad, slots, components = _piece_walk(events, start)
    open_ends = set(slots)
    closed_at = [
        top_cap
        for members, top_cap in components
        if not any(p[0] == "boundary" or p in open_ends for p in members)
    ]
    if start > 0:
        bad += [("MultipleComponents", pos) for pos in closed_at]
    bad.sort(key=lambda v: v[1])
    if slots:
        bad.append(("NonzeroEnd", len(events)))
    return counts, len(closed_at), bad


def oracle_matching(events, start: int = 0) -> list[int]:
    """How the walk's components join the boundary points of the events read
    as a tangle: the ``start`` bottom points are 0..start-1, the strands
    open at the top follow.  Entry j is the point joined to point j."""
    _, _, slots, components = _piece_walk(events, start)
    matching = [-1] * (start + len(slots))
    for members, _ in components:
        points = [p[1] for p in members if p[0] == "boundary"]
        points += [start + slots.index(p) for p in members if p in slots]
        if points:
            a, b = points  # an arc meets the boundary at its two ends
            matching[a], matching[b] = b, a
    return matching


def _piece_walk(events, start: int):
    """The sweep and the walk of ``oracle_components``: (counts, index
    violations, pieces open at the top, [(members, highest cap)] per
    connected set of pieces)."""
    slots = [("boundary", j) for j in range(start)]
    pieces = list(slots)
    joins: dict = {piece: [] for piece in pieces}  # piece -> [(piece, cap pos)]
    counts = [start]
    bad: list[tuple[str, int]] = []
    for pos, e in enumerate(events):
        n, i = len(slots), e.index
        if e.kind is EventKind.CUP:
            if 1 <= i <= n + 1:
                a, b = ("cup", pos, "l"), ("cup", pos, "r")
                pieces += [a, b]
                joins[a], joins[b] = [(b, -1)], [(a, -1)]
                slots[i - 1 : i - 1] = [a, b]
            else:
                bad.append(("BadIndex", pos))
        elif e.kind is EventKind.CAP:
            if n < 2:
                bad.append(("NegativeCount", pos))
            elif 1 <= i <= n - 1:
                a, b = slots[i - 1], slots[i]
                joins[a].append((b, pos))
                joins[b].append((a, pos))
                del slots[i - 1 : i + 1]
            else:
                bad.append(("BadIndex", pos))
        elif 1 <= i <= n - 1:
            slots[i - 1], slots[i] = slots[i], slots[i - 1]
        else:
            bad.append(("BadIndex", pos))
        counts.append(len(slots))

    seen: set = set()
    components = []
    for piece in pieces:
        if piece in seen:
            continue
        seen.add(piece)
        stack, members, top_cap = [piece], [], -1
        while stack:
            p = stack.pop()
            members.append(p)
            for q, cap_pos in joins[p]:
                top_cap = max(top_cap, cap_pos)
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        components.append((members, top_cap))
    return counts, bad, slots, components


# ---------------------------------------------------------------------------
# Kauffman bracket by per-state strand relabeling.


def _smooth_plan(sign: int, choice: int) -> str:
    # choice 0 is the A-smoothing.  For a positive letter (lower-left
    # strand over) the A-smoothing is vertical; for a negative letter it
    # is horizontal.  choice 1 is the other one.
    if sign > 0:
        return "vertical" if choice == 0 else "horizontal"
    return "horizontal" if choice == 0 else "vertical"


def oracle_bracket(word: MorseWord) -> dict:
    events = word.events
    xs = [k for k, e in enumerate(events) if e.kind is EventKind.CROSS]
    c = len(xs)
    total: dict = {}
    for mask in range(1 << c):
        choice = {k: (mask >> t) & 1 for t, k in enumerate(xs)}
        b_count = sum(choice.values())
        labels: list[int] = []
        fresh = 0
        loops = 0
        for k, e in enumerate(events):
            i = e.index
            if e.kind is EventKind.CUP:
                fresh += 1
                labels[i - 1 : i - 1] = [fresh, fresh]
            elif e.kind is EventKind.CAP:
                a, b = labels[i - 1], labels[i]
                del labels[i - 1 : i + 1]
                if a == b:
                    loops += 1
                else:
                    labels = [a if x == b else x for x in labels]
            else:
                plan = _smooth_plan(e.sign, choice[k])
                if plan == "horizontal":
                    # cap then cup at the same spot
                    a, b = labels[i - 1], labels[i]
                    if a == b:
                        loops += 1
                    else:
                        labels = [a if x == b else x for x in labels]
                    fresh += 1
                    labels[i - 1] = labels[i] = fresh
                # vertical smoothing leaves the strands alone
        exponent = (c - b_count) - b_count
        term = pmul({exponent: 1}, ppow(DELTA, loops - 1))
        total = padd(total, term)
    return total


# ---------------------------------------------------------------------------
# Writhe by cycle walk plus the direction-parity rule.
#
# Points are tagged tuples.  Each point has one "outer" connection made
# by the simulation (cup birth link, cap join, or strand feeding into a
# crossing) and one "inner" connection fixed by its own event (cup arc,
# crossing strand).  Walking alternates outer and inner connections.


def _diagram_points(word: MorseWord):
    outer: dict = {}
    slots: list[tuple] = []

    def connect(p, q):
        outer[p] = q
        outer[q] = p

    for k, e in enumerate(word.events):
        i = e.index
        if e.kind is EventKind.CUP:
            l, r = ("cup", k, "l"), ("cup", k, "r")
            slots[i - 1 : i - 1] = [l, r]
        elif e.kind is EventKind.CAP:
            connect(("cap", k, "l"), slots[i - 1])
            connect(("cap", k, "r"), slots[i])
            del slots[i - 1 : i + 1]
        else:
            connect(("x", k, "bl"), slots[i - 1])
            connect(("x", k, "br"), slots[i])
            slots[i - 1] = ("x", k, "tl")
            slots[i] = ("x", k, "tr")
    return outer


_INNER = {"l": "r", "r": "l", "bl": "tr", "tr": "bl", "br": "tl", "tl": "br"}
_UPWARD = {"bl": True, "br": True, "tl": False, "tr": False}


def oracle_writhe(word: MorseWord) -> int:
    events = word.events
    outer = _diagram_points(word)
    if not outer:
        return 0
    seen: set = set()
    upward: dict = {}  # (event idx, "main"/"other") -> traversed upward?
    start = next(iter(outer))
    point, mode = start, "outer"
    while True:
        if mode == "outer":
            point = outer[point]
            mode = "inner"
        else:
            tag, k, role = point
            nxt = (tag, k, _INNER[role])
            if tag == "x":
                strand = "main" if role in ("bl", "tr") else "other"
                upward[(k, strand)] = _UPWARD[role]
            point, mode = nxt, "outer"
        if point in seen:
            break
        seen.add(point)
    assert len(seen) == len(outer), "knot words trace a single cycle"
    w = 0
    for k, e in enumerate(events):
        if e.kind is EventKind.CROSS:
            same = upward[(k, "main")] == upward[(k, "other")]
            w += e.sign if same else -e.sign
    return w


def oracle_jones(word: MorseWord) -> dict:
    w = oracle_writhe(word)
    norm = {-3 * w: 1 if w % 2 == 0 else -1}  # (-A^3)^(-w)
    return pmul(norm, oracle_bracket(word))


# ---------------------------------------------------------------------------
# Crossingless matchings as partner arrays: entry k is strand k's partner.


def oracle_matchings(n: int) -> list[list[int]]:
    """Every crossingless matching of n strands: strand 0 pairs with some
    strand j that leaves an even number of strands on each side."""
    if n == 0:
        return [[]]
    out = []
    for j in range(1, n, 2):
        for inner in oracle_matchings(j - 1):
            for outer in oracle_matchings(n - j - 1):
                m = [j] + [k + 1 for k in inner] + [0] + [k + j + 1 for k in outer]
                out.append(m)
    return out


def oracle_cup(partner: list[int], i: int) -> list[int]:
    """A new pair of strands at i, i+1; the strands from i on move up two."""
    moved = [k + 2 if k >= i else k for k in partner]
    return moved[:i] + [i + 1, i] + moved[i:]


def oracle_join(partner: list[int], i: int) -> tuple[list[int], bool]:
    """Cap strands i and i+1, then cup them again: (matching, loop closed)."""
    a, b = partner[i], partner[i + 1]
    if a == i + 1:
        return list(partner), True
    out = list(partner)
    out[a], out[b] = b, a
    out[i], out[i + 1] = i + 1, i
    return out, False


def oracle_cap(partner: list[int], i: int) -> tuple[list[int], bool]:
    """Cap strands i and i+1: (matching of the other strands, loop closed)."""
    joined, loop = oracle_join(partner, i)
    rest = joined[:i] + joined[i + 2 :]
    return [k - 2 if k > i else k for k in rest], loop


def oracle_dyck(partner: list[int]) -> int:
    """The int whose bit k is 1 when strand k's partner lies above it."""
    return sum(1 << k for k, p in enumerate(partner) if p > k)


# ---------------------------------------------------------------------------
# Canonical key by repeated bubble passes.


def oracle_canonical_key(events) -> tuple:
    """Within each run of consecutive crossings, swap an adjacent pair
    whenever the upper crossing's index is more than one below the lower
    one's, pass after pass, until a pass swaps nothing."""
    ev = list(events)
    changed = len(ev) > 1
    while changed:
        changed = False
        for k in range(1, len(ev)):
            a, b = ev[k - 1], ev[k]
            if a.kind is b.kind is EventKind.CROSS and b.index < a.index - 1:
                ev[k - 1], ev[k] = b, a
                changed = True
    return tuple(ev)
