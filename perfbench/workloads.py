"""The three workloads: seeded corpora, the operation on each item, and
the check of each output against ``reference``.

A corpus is one pass of items.  Each workload has two steps: ``plan``
draws everything random from the seed (knot texts, profiles, order) without
morsewidth, and ``build`` turns the plan into words through morsewidth's
public constructors only (``parse``, ``catalog``, ``torus_plat``,
``pad_with_fingers``, ``connected_sum``, ``realize_profile`` and, for
scrambled copies, ``enumerate_moves`` and ``apply_move``).  The benchmark
times ``build`` as set-up.  Every pass runs the same items in the same
order, so a run's mix of cheap and dear operations is fixed.

Each corpus is laid out in cost tiers that do not overlap, so that the
median and the 90th percentile of a run fall inside one tier whatever the
seed: the seed changes the words, not how many of each kind there are.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import reference as ref


class Item:
    """One operation of a pass: ``run`` calls into morsewidth, ``check``
    compares the output with the references."""

    label = ""

    def run(self, mw):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Failures found in ``out``; empty when it is correct."""
        raise NotImplementedError


_jones_cache: dict[str, dict] = {}


def jones_of(text: str) -> dict:
    """Reference Jones polynomial of a word, kept per word text."""
    if text not in _jones_cache:
        _jones_cache[text] = ref.oracle_jones(ref.events_of(text))
    return _jones_cache[text]


def random_knot_text(rng: random.Random, bridges: int, crossings: int) -> str:
    """A random knot word: ``bridges`` cups, ``crossings`` crossings, then
    caps, drawn until the reference finds one component."""
    while True:
        toks = [f"b{rng.randint(1, 2 * j + 1)}" for j in range(bridges)]
        toks += [f"x{rng.randint(1, 2 * bridges - 1)}{rng.choice('+-')}"
                 for _ in range(crossings)]
        toks += [f"d{rng.randint(1, n - 1)}" for n in range(2 * bridges, 0, -2)]
        text = " ".join(toks)
        if ref.component_count(ref.events_of(text)) == 1:
            return text


# ---------------------------------------------------------------------------
# search


class SearchItem(Item):
    def __init__(self, label, start, objective, config=None, radius=0,
                 insertions=0, reaches_8=False):
        self.label = label
        self.start = start
        self.objective = objective
        self.config = config  # None selects exhaustive_min
        self.radius = radius
        self.insertions = insertions
        self.reaches_8 = reaches_8
        self.otp = objective.kind.value == "otp"
        self._checked: set = set()

    def run(self, mw):
        if self.config is not None:
            return mw.beam_search(self.start, self.objective, self.config)
        return mw.exhaustive_min(self.start, self.objective, self.radius,
                                 self.insertions)

    def _key(self, scan):
        if self.otp:
            return (scan["otp_vector"], scan["width"])
        return (scan["width"],)

    def check(self, result) -> list[str]:
        best = str(result.best_word)
        seen = (best, result.objective_value, result.visited)
        if seen in self._checked:
            return []
        errors = []
        start = str(self.start)
        scan = ref.gap_scan(ref.events_of(best))
        start_scan = ref.gap_scan(ref.events_of(start))
        start_jones = jones_of(start)
        if jones_of(best) != start_jones:
            errors.append("best word's Jones polynomial differs from the start's")
        if tuple(result.objective_value) != self._key(scan):
            errors.append(f"objective_value {result.objective_value} != "
                          f"reference {self._key(scan)}")
        if self._key(scan) > self._key(start_scan):
            errors.append("best word is worse than the start")
        if start_jones != {0: 1} and scan["width"] < 8:
            errors.append(f"nontrivial knot reported at width {scan['width']}")
        if self.reaches_8 and scan["width"] != 8:
            errors.append(f"padded trefoil ended at width {scan['width']}, not 8")
        if not errors:
            self._checked.add(seen)
        return errors


def plan_search(rng: random.Random) -> dict:
    beams = [(random_knot_text(rng, 2, 3 + k % 2), "otp" if k % 4 == 3 else "width",
              rng.randrange(10**6)) for k in range(14)]
    balls = [(random_knot_text(rng, 2, 3 + k % 2), 0 if k < 24 else 1)
             for k in range(100)]
    order = list(range(2 + 4 + 14 + len(beams) + len(balls)))
    rng.shuffle(order)
    return {"beams": beams, "balls": balls, "order": order}


def build_search(mw, plan: dict, rng: random.Random) -> list[Item]:
    objectives = {"width": mw.Objective(mw.ObjectiveKind.GABAI_WIDTH),
                  "otp": mw.Objective(mw.ObjectiveKind.OTP_LEX)}
    width = objectives["width"]
    trefoil = mw.catalog("trefoil_plat")
    padded = mw.catalog("padded_trefoil")
    items: list[Item] = [
        # The ROADMAP's reference search, always at seed 9: about 4 s.
        SearchItem("beam p2 seed9", mw.pad_with_fingers(trefoil, 2), width,
                   mw.SearchConfig(random_seed=9), reaches_8=True),
        SearchItem("beam bt134 2 steps", mw.catalog("bt134"), width,
                   mw.SearchConfig(beam_width=4, max_steps=2, insertion_budget=0)),
    ]
    for radius, insertions in ((2, 0), (2, 1), (3, 0), (3, 1)):
        items.append(SearchItem(f"exh padded r{radius} i{insertions}", padded,
                                width, radius=radius, insertions=insertions,
                                reaches_8=True))
    # Top tier (about 0.5 s each) holds the 90th percentile.  Their search
    # seeds are fixed, so the seed changes only the random knots below.
    for k in range(14):
        name = "otp" if k % 3 == 2 else "width"
        items.append(SearchItem(f"beam padded {name}", padded, objectives[name],
                                mw.SearchConfig(random_seed=k), reaches_8=True))
    # Middle tier: short beams on random knots (0.1 to 0.3 s each).
    for text, name, seed in plan["beams"]:
        items.append(SearchItem(f"beam random {name}",
                                mw.pad_with_fingers(mw.parse(text), 1),
                                objectives[name],
                                mw.SearchConfig(beam_width=8, max_steps=8,
                                                random_seed=seed)))
    # Two bottom tiers of radius-2 balls on random knots: 24 without room to
    # insert (5 to 30 ms) below 76 with one insertion (15 to 60 ms), so
    # that the median falls mid-way through the 76.
    for text, insertions in plan["balls"]:
        items.append(SearchItem(f"exh random r2 i{insertions}",
                                mw.pad_with_fingers(mw.parse(text), 1), width,
                                radius=2, insertions=insertions))
    return [items[k] for k in plan["order"]]


# ---------------------------------------------------------------------------
# verify


class VerifyItem(Item):
    def __init__(self, label, word, p, q):
        self.label = label
        self.word = word
        self.torus = (p, q)
        self._checked = None

    def run(self, mw):
        return mw.jones_normalized(self.word)

    def check(self, poly) -> list[str]:
        got = poly.coefficients()
        if got == self._checked:
            return []
        errors = []
        torus = ref.torus_jones(*self.torus)
        if got != torus:
            errors.append(f"{self.label}: {got} != closed form {torus}")
        if sum(got.values()) != 1:
            errors.append(f"{self.label}: V(1) = {sum(got.values())}, not 1")
        if any(e % 4 for e in got):
            errors.append(f"{self.label}: an exponent is not a multiple of 4")
        if self.word.crossing_count <= 12 and got != jones_of(str(self.word)):
            errors.append(f"{self.label}: differs from the state-sum oracle")
        if not errors:
            self._checked = got
        return errors


def _insert(mw, rng, word, kind_name, count):
    """Apply ``count`` seeded R1 or R2 insertions; neither changes the
    strand counts, so the trunk stays put."""
    kind = getattr(mw.MoveKind, kind_name)
    for _ in range(count):
        word = mw.apply_move(word, rng.choice(
            [m for m in mw.enumerate_moves(word) if m.kind is kind]))
    return word


_SCRAMBLE_KINDS = ("COMMUTE_DISTANT", "YANG_BAXTER", "ZIGZAG_INSERT",
                   "ZIGZAG_CANCEL")


def scramble(mw, rng, word, steps=4):
    """Seeded random moves that keep the crossing count and the trunk."""
    kinds = {getattr(mw.MoveKind, k) for k in _SCRAMBLE_KINDS}
    crossings, trunk, length = word.crossing_count, max(word.counts), len(word)
    for _ in range(steps):
        moves = [m for m in mw.enumerate_moves(word) if m.kind in kinds]
        rng.shuffle(moves)
        for move in moves:
            new = mw.apply_move(word, move)
            if (new.crossing_count == crossings and max(new.counts) == trunk
                    and len(new) <= length + 4):
                word = new
                break
    return word


# (p, q, R1 insertions, R2 insertions, scrambled): 25 words of 10 to 16
# crossings.  The tiers by crossing count put the median among the 12s
# and the 90th percentile among the 16s; each tier spans trunks 4 to 18.
VERIFY_SPECS = [
    (2, 9, 1, 0, False), (3, 5, 0, 0, False), (3, 5, 0, 0, True),
    (4, 3, 1, 0, False), (5, 2, 0, 1, False), (5, 2, 0, 1, True),
    (7, 1, 0, 2, False), (9, 1, 0, 1, False),
    (2, 11, 1, 0, False), (2, 11, 1, 0, True), (3, 5, 0, 1, False),
    (4, 3, 1, 1, False), (5, 3, 0, 0, False), (5, 3, 0, 0, True),
    (7, 2, 0, 0, False), (7, 2, 0, 0, True), (9, 1, 0, 2, False),
    (3, 7, 0, 0, False), (5, 3, 0, 1, True), (7, 2, 0, 1, True),
    (2, 15, 0, 0, False), (4, 5, 0, 0, False),
    (3, 8, 0, 0, False), (5, 4, 0, 0, False), (9, 2, 0, 0, False),
]


def plan_verify(rng: random.Random) -> dict:
    return {}


def build_verify(mw, plan: dict, rng: random.Random) -> list[Item]:
    items: list[Item] = []
    for p, q, r1, r2, scrambled in VERIFY_SPECS:
        word = mw.torus_plat(p, q)
        word = _insert(mw, rng, word, "R1_INSERT", r1)
        word = _insert(mw, rng, word, "R2_INSERT", r2)
        if scrambled:
            word = scramble(mw, rng, word)
        label = f"T({p},{q}){'*' if scrambled else ''} c{word.crossing_count}"
        items.append(VerifyItem(label, word, p, q))
    return items


# ---------------------------------------------------------------------------
# analyze


class AnalyzeItem(Item):
    def __init__(self, label, text, torus_p=None, summands=()):
        self.label = label
        self.text = text
        self.torus_p = torus_p
        self.summands = summands
        self._checked = None

    def run(self, mw):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mw.cli.main(["analyze", self.text])
        return code, buf.getvalue()

    def check(self, out) -> list[str]:
        code, stdout = out
        if out == self._checked:
            return []
        if code != 0:
            return [f"{self.label}: exit code {code}"]
        got = json.loads(stdout)
        scan = ref.gap_scan(ref.events_of(self.text))
        want = {
            "width": scan["width"], "trunk": scan["trunk"],
            "height": scan["height"], "bridge": scan["bridge"],
            "critical_count": scan["critical_count"],
            "otp_vector": list(scan["otp_vector"]),
            "proportion": {"num": scan["proportion"].numerator,
                           "den": scan["proportion"].denominator},
            "average_trunk": {"num": scan["average_trunk"].numerator,
                              "den": scan["average_trunk"].denominator},
            "rep_upper": scan["rep_upper"], "waist_upper": scan["waist_upper"],
            "gaps": [{"width": w, "class": c} for w, c in scan["gaps"]],
        }
        errors = [f"{self.label}: {k} = {got.get(k)!r}, reference {v!r}"
                  for k, v in want.items() if got.get(k) != v]
        thick = [g["width"] for g in got["gaps"] if g["class"] == "thick"]
        thin = [g["width"] for g in got["gaps"] if g["class"] == "thin"]
        if 2 * got["width"] != sum(w * w for w in thick) - sum(w * w for w in thin):
            errors.append(f"{self.label}: width != (sum thick^2 - sum thin^2)/2")
        p = self.torus_p
        if p and (got["width"], got["trunk"], got["height"], got["bridge"]) != (
                2 * p * p, 2 * p, 1, p):
            errors.append(f"{self.label}: torus plat report is not (2p^2, 2p, 1, p)")
        if self.summands:
            parts = [ref.gap_scan(ref.events_of(t)) for t in self.summands]
            m = len(parts)
            laws = (sum(s["width"] for s in parts) - 2 * (m - 1),
                    sum(s["bridge"] for s in parts) - (m - 1),
                    max(s["trunk"] for s in parts))
            if (got["width"], got["bridge"], got["trunk"]) != laws:
                errors.append(f"{self.label}: connected sum is not additive")
        if not errors:
            self._checked = out
        return errors


def _coprime_near(rng, p, q):
    q += rng.randrange(4)
    while math.gcd(p, q) != 1:
        q += 1
    return q


def _wide_walk(rng, steps, top):
    """A random +-2 walk from 2 back to 2 that stays within [2, top]."""
    widths = [2]
    for k in range(steps):
        remaining = steps - k - 1
        w = widths[-1]
        can_rise = w < top and w // 2 <= remaining
        rise = w == 2 or (can_rise and rng.random() < 0.6)
        widths.append(w + 2 if rise else w - 2)
    return widths


def plan_analyze(rng: random.Random) -> dict:
    torus = [(p, _coprime_near(rng, p, q)) for p, q in (
        (2, 199), (3, 98), (4, 66), (5, 49), (6, 39), (7, 33), (8, 28), (9, 25))]
    sums = [[random_knot_text(rng, 3, 6) for _ in range(30)] for _ in range(24)]
    walks = [_wide_walk(rng, 300, 60) for _ in range(8)]
    order = list(range(len(torus) + len(sums) + len(walks)))
    rng.shuffle(order)
    return {"torus": torus, "sums": sums, "walks": walks, "order": order}


def build_analyze(mw, plan: dict, rng: random.Random) -> list[Item]:
    items: list[Item] = []
    # Bottom tier: torus plats with about 200 crossings (about 4 ms each).
    for p, q in plan["torus"]:
        items.append(AnalyzeItem(f"T({p},{q})", str(mw.torus_plat(p, q)),
                                 torus_p=p))
    # Middle tier, which holds the median: connected sums of 30 random
    # knots (about 8 ms each).
    for texts in plan["sums"]:
        word = mw.parse(texts[0])
        for text in texts[1:]:
            word = mw.connected_sum(word, mw.parse(text))
        items.append(AnalyzeItem("sum of 30", str(word), summands=texts))
    # Top tier, which holds the 90th percentile: wide profile stand-ins
    # (about 13 ms each).
    for widths in plan["walks"]:
        items.append(AnalyzeItem("stand-in", str(mw.realize_profile(widths))))
    return [items[k] for k in plan["order"]]


WORKLOADS = {
    "search": (plan_search, build_search),
    "verify": (plan_verify, build_verify),
    "analyze": (plan_analyze, build_analyze),
}
