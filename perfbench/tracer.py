"""Spans around calls into morsewidth's public functions.

``Tracer.install`` replaces each traced function wherever a morsewidth
module holds it: ``search`` and ``cli`` import ``apply_move``,
``enumerate_moves`` and ``level_profile`` by name, so patching only the
defining module would miss their calls.  Construction of a ``MorseWord``
and ``Objective.key`` are wrapped on their classes.  Every call records a
span (name, start, end, parent) in memory; self time, call counts and
per-bucket bracket times are derived from the spans at the end.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a class member.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("textio.parse", "textio", "parse"),
    ("events.MorseWord", "events", "MorseWord.__init__"),
    ("invariants.level_profile", "invariants", "level_profile"),
    ("invariants.embedding_report", "invariants", "embedding_report"),
    ("moves.enumerate_moves", "moves", "enumerate_moves"),
    ("moves.apply_move", "moves", "apply_move"),
    ("moves.canonical_key", "moves", "canonical_key"),
    ("search.beam_search", "search", "beam_search"),
    ("search.exhaustive_min", "search", "exhaustive_min"),
    ("search.objective_key", "search", "Objective.key"),
    ("bracket.kauffman_bracket", "bracket", "kauffman_bracket"),
    ("bracket.writhe", "bracket", "writhe"),
    ("catalog.catalog", "catalog", "catalog"),
    ("catalog.torus_plat", "catalog", "torus_plat"),
    ("catalog.pad_with_fingers", "catalog", "pad_with_fingers"),
    ("catalog.realize_profile", "catalog", "realize_profile"),
    ("catalog.profile_from_extrema", "catalog", "profile_from_extrema"),
]

# Bracket calls are bucketed by the word's crossing count and trunk.
CROSSING_BUCKETS = {12: "c12", 14: "c14", 16: "c16"}
TRUNK_BUCKETS = [((4, 6), "trunk4-6"), ((8, 10), "trunk8-10"), ((14, 18), "trunk14-18")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self.stack = [-1]
        self.values: dict[int, int] = {}  # span -> moves emitted / nodes visited
        self.bracket_buckets: dict[str, list[int]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        start, end, parent, name_id, stack = (
            self.start, self.end, self.parent, self.name_id, self.stack)
        post = {
            "moves.enumerate_moves": self._count_emitted,
            "search.beam_search": self._count_visited,
            "search.exhaustive_min": self._count_visited,
            "bracket.kauffman_bracket": self._bucket_bracket,
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_emitted(self, idx, args, result):
        self.values[idx] = len(result)

    def _count_visited(self, idx, args, result):
        self.values[idx] = result.visited

    def _bucket_bracket(self, idx, args, result):
        word = args[0]
        bucket = CROSSING_BUCKETS.get(word.crossing_count)
        if bucket:
            self.bracket_buckets[bucket].append(idx)
        trunk = max(word.counts)
        for (lo, hi), label in TRUNK_BUCKETS:
            if lo <= trunk <= hi:
                self.bracket_buckets[label].append(idx)

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "morsewidth") -> None:
        """Wrap every target in every loaded module of ``package``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                self._set(cls, member, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- derived figures ---------------------------------------------------

    def mark(self) -> int:
        """Span index to pass to ``summary`` for spans recorded after now."""
        return len(self.start)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per name: calls, total ms and self ms over spans [first, last)."""
        last = len(self.start) if last is None else last
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(first, last):
            row = out.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_ms"] += dur * 1e3
            row["self_ms"] += (dur - child.get(i, 0.0)) * 1e3
        return out

    def bucket_ms_per_call(self, first: int = 0) -> dict[str, float]:
        out = {}
        for label, spans in self.bracket_buckets.items():
            spans = [i for i in spans if i >= first]
            if spans:
                total = sum(self.end[i] - self.start[i] for i in spans)
                out[label] = total * 1e3 / len(spans)
        return out

    def dump(self, path: str) -> None:
        """Write spans as gzipped TSV: name, start_us, end_us, parent."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n")
