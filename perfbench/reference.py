"""Independent references for checking the benchmark's outputs.

Nothing here imports morsewidth.  Every function reads a word as its
text (``b1 b2 x3- x3- x3- d2 d1``) and recomputes the answer from the
definitions:

* ``torus_jones`` -- the closed-form Jones polynomial of the (p,q) torus
  knot, V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2),
  written in A by t = A^4 (the chirality of ``torus_plat``'s negative
  crossings).
* ``gap_scan`` -- width, trunk, height, bridge and OTP vector by a direct
  scan of the strand counts between critical events.
* ``oracle_jones`` -- the state-sum bracket by per-state strand
  relabeling and the writhe by the direction-parity rule, copied from the
  test suite's slow oracles so that the benchmark runs without the tests.

Polynomials are plain dicts {exponent of A: coefficient} without zeros.
``self_test`` checks all of them against hand-known values.
"""

from __future__ import annotations

from fractions import Fraction


def events_of(text: str) -> list[tuple[str, int, int]]:
    """(kind, index, sign) per token; kind is 'b' (cup), 'd' (cap) or 'x'."""
    out = []
    for line in text.splitlines():
        for tok in line.split("#", 1)[0].split():
            if tok[0] == "x":
                out.append(("x", int(tok[1:-1]), +1 if tok[-1] == "+" else -1))
            elif tok[0] in "bd":
                out.append((tok[0], int(tok[1:]), 0))
            else:
                raise ValueError(f"reference cannot read token {tok!r}")
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials over plain dicts.


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
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def ppow(p: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = pmul(out, p)
    return out


DELTA = {2: -1, -2: -1}  # loop value -A^2 - A^-2


# ---------------------------------------------------------------------------
# Closed-form torus-knot Jones polynomial.


def torus_jones(p: int, q: int) -> dict:
    """Jones polynomial of T(p,q) in A (t = A^4)."""
    numerator = {}
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        numerator[e] = numerator.get(e, 0) + c
    top = max(numerator)
    quotient = [0] * (top - 1)  # (1 - t^2) * quotient == numerator
    for k in range(top - 1):
        quotient[k] = numerator.get(k, 0) + (quotient[k - 2] if k >= 2 else 0)
    shift = (p - 1) * (q - 1) // 2
    return {4 * (k + shift): c for k, c in enumerate(quotient) if c != 0}


# ---------------------------------------------------------------------------
# Gap profile by direct scanning.


def gap_scan(events) -> dict:
    """Every level invariant of a closed word, from the definitions."""
    counts = [0]
    for kind, _, _ in events:
        counts.append(counts[-1] + (2 if kind == "b" else -2 if kind == "d" else 0))
    critical = [(k, kind) for k, (kind, _, _) in enumerate(events) if kind != "x"]
    gaps = []
    for (k1, kind1), (_, kind2) in zip(critical, critical[1:]):
        if kind1 == "b" and kind2 == "d":
            cls = "thick"
        elif kind1 == "d" and kind2 == "b":
            cls = "thin"
        else:
            cls = "neither"
        gaps.append((counts[k1 + 1], cls))
    thick = [w for w, c in gaps if c == "thick"]
    thin = [w for w, c in gaps if c == "thin"]
    bridge = sum(1 for kind, _, _ in events if kind == "d")
    trunk = max(w for w, _ in gaps)
    return {
        "counts": counts,
        "gaps": gaps,
        "thick": thick,
        "thin": thin,
        "width": sum(w for w, _ in gaps),
        "trunk": trunk,
        "height": len(thick),
        "bridge": bridge,
        "critical_count": len(critical),
        "otp_vector": tuple(sorted(thick, reverse=True)),
        "proportion": Fraction(trunk, len(thick) * 2 * bridge),
        "average_trunk": Fraction(sum(thick), len(thick)),
        "rep_upper": min(bridge, trunk // 2),
        "waist_upper": trunk // 3,
    }


def component_count(events) -> int:
    """Closed components, by relabeling strand ends (closed words only)."""
    labels: list[int] = []
    fresh = closed = 0
    for kind, i, _ in events:
        if kind == "b":
            fresh += 1
            labels[i - 1 : i - 1] = [fresh, fresh]
        elif kind == "d":
            a, b = labels[i - 1], labels[i]
            del labels[i - 1 : i + 1]
            if a == b:
                closed += 1
            else:
                labels = [a if x == b else x for x in labels]
        else:
            labels[i - 1], labels[i] = labels[i], labels[i - 1]
    return closed


# ---------------------------------------------------------------------------
# Kauffman bracket by per-state strand relabeling (after tests/oracles.py).


def oracle_bracket(events) -> dict:
    xs = [k for k, (kind, _, _) in enumerate(events) if kind == "x"]
    c = len(xs)
    total: dict = {}
    for mask in range(1 << c):
        choice = {k: (mask >> t) & 1 for t, k in enumerate(xs)}
        b_count = sum(choice.values())
        labels: list[int] = []
        fresh = loops = 0
        for k, (kind, i, sign) in enumerate(events):
            if kind == "b":
                fresh += 1
                labels[i - 1 : i - 1] = [fresh, fresh]
            elif kind == "d":
                a, b = labels[i - 1], labels[i]
                del labels[i - 1 : i + 1]
                if a == b:
                    loops += 1
                else:
                    labels = [a if x == b else x for x in labels]
            else:
                # The A-smoothing (choice 0) of a positive letter is
                # vertical, of a negative letter horizontal.
                horizontal = (choice[k] == 0) == (sign < 0)
                if horizontal:  # a cap then a cup at the same spot
                    a, b = labels[i - 1], labels[i]
                    if a == b:
                        loops += 1
                    else:
                        labels = [a if x == b else x for x in labels]
                    fresh += 1
                    labels[i - 1] = labels[i] = fresh
        term = pmul({c - 2 * b_count: 1}, ppow(DELTA, loops - 1))
        total = padd(total, term)
    return total


# ---------------------------------------------------------------------------
# Writhe by a cycle walk plus the direction-parity rule: a crossing keeps
# its letter sign when both strands run the same vertical direction.

_INNER = {"l": "r", "r": "l", "bl": "tr", "tr": "bl", "br": "tl", "tl": "br"}
_UPWARD = {"bl": True, "br": True, "tl": False, "tr": False}


def oracle_writhe(events) -> int:
    outer: dict = {}
    slots: list[tuple] = []

    def connect(p, q):
        outer[p] = q
        outer[q] = p

    for k, (kind, i, _) in enumerate(events):
        if kind == "b":
            slots[i - 1 : i - 1] = [("b", k, "l"), ("b", k, "r")]
        elif kind == "d":
            connect(("d", k, "l"), slots[i - 1])
            connect(("d", k, "r"), slots[i])
            del slots[i - 1 : i + 1]
        else:
            connect(("x", k, "bl"), slots[i - 1])
            connect(("x", k, "br"), slots[i])
            slots[i - 1] = ("x", k, "tl")
            slots[i] = ("x", k, "tr")
    upward: dict = {}
    seen: set = set()
    point, mode = next(iter(outer)), "outer"
    while True:
        if mode == "outer":
            point, mode = outer[point], "inner"
        else:
            tag, k, role = point
            if tag == "x":
                upward[(k, role in ("bl", "tr"))] = _UPWARD[role]
            point, mode = (tag, k, _INNER[role]), "outer"
        if point in seen:
            break
        seen.add(point)
    if len(seen) != len(outer):
        raise ValueError("writhe needs a knot: the walk missed a component")
    w = 0
    for k, (kind, _, sign) in enumerate(events):
        if kind == "x":
            w += sign if upward[(k, True)] == upward[(k, False)] else -sign
    return w


def oracle_jones(events) -> dict:
    """(-A^3)^(-writhe) * bracket."""
    w = oracle_writhe(events)
    return pmul({-3 * w: 1 if w % 2 == 0 else -1}, oracle_bracket(events))


# ---------------------------------------------------------------------------


def self_test() -> None:
    """Check the references against values known by hand; raise on a miss."""
    unknot = events_of("b1 d1")
    trefoil = events_of("b1 b2 x3- x3- x3- d2 d1")
    figure8 = events_of("b1 b2 b3 x4+ x5- x4+ x5- d3 d2 d1")
    expected = [
        (oracle_jones(unknot), {0: 1}),
        (torus_jones(2, 1), {0: 1}),
        # t + t^3 - t^4
        (oracle_jones(trefoil), {4: 1, 12: 1, 16: -1}),
        (torus_jones(2, 3), {4: 1, 12: 1, 16: -1}),
        (torus_jones(3, 2), {4: 1, 12: 1, 16: -1}),
        # A^8 - A^4 + 1 - A^-4 + A^-8
        (oracle_jones(figure8), {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}),
        (oracle_bracket(events_of("b1 x1+ d1")), {-3: -1}),
        (component_count(figure8), 1),
        (component_count(events_of("b1 b1 d1 d1")), 2),
    ]
    for (got, want) in expected:
        if got != want:
            raise AssertionError(f"reference self-test: got {got}, want {want}")
    for events, width, trunk, height, bridge, otp in (
        (unknot, 2, 2, 1, 1, (2,)),
        (trefoil, 8, 4, 1, 2, (4,)),
        (figure8, 18, 6, 1, 3, (6,)),
        (events_of("b1 b1 d2 b1 d2 d1"), 14, 4, 2, 3, (4, 4)),
    ):
        scan = gap_scan(events)
        got = (scan["width"], scan["trunk"], scan["height"], scan["bridge"],
               scan["otp_vector"])
        if got != (width, trunk, height, bridge, otp):
            raise AssertionError(f"gap-scan self-test: got {got}")
