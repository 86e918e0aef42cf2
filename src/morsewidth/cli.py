"""Command-line front end.

Sources accepted anywhere a word is expected:

* ``catalog:NAME``      a catalog entry, including torus_plat(p,q)
* ``profile:2,4,4,2``   crossingless word realizing that gap profile
* a file path           parsed as the text format
* anything else         parsed directly as the text format

JSON goes out as one compact line into a pipe or a file and indented on a
terminal.  Exit codes: 0 success, 1 validation failure, 2 syntax error, 3
budget exhausted.  A closed stdout (a broken pipe) ends the command quietly
with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Union

from .catalog import catalog, entries, realize_profile
from .bracket import _normalized, kauffman_bracket, writhe
from .errors import BudgetExceeded, ParseError, UnknownName
from .events import MorseWord, TangleWord, require_closed
from .invariants import (
    connected_sum,
    embedding_report,
    otp_compare,
    tangle_trunk,
)
from .search import Objective, ObjectiveKind, SearchConfig, beam_search
from .textio import parse, render_profile, serialize


def _load_closed(source: str) -> MorseWord:
    return require_closed(_load(source), "this command")


def _load(source: str) -> Union[MorseWord, TangleWord]:
    if source.startswith("catalog:"):
        return catalog(source[len("catalog:") :])
    if source.startswith("profile:"):
        raw = source[len("profile:") :]
        try:
            widths = [int(p) for p in raw.split(",") if p.strip() != ""]
        except ValueError:
            raise ValueError(f"profile needs comma-separated integers, got {raw!r}")
        return realize_profile(widths)
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:  # a directory, say, or no permission
            raise ValueError(str(exc)) from exc
        return parse(text)
    return parse(source)


def _emit(obj) -> None:
    # json's C encoder runs only without indent, so indent just for a person.
    print(json.dumps(obj, indent=2 if sys.stdout.isatty() else None))


def _word_json(report) -> dict:
    out = report.as_dict()
    out["gaps"] = [{"width": w, "class": c} for w, c in zip(report.widths, report._classes)]
    return out


def _cmd_analyze(args) -> int:
    word = _load(args.source)
    if isinstance(word, TangleWord):
        _emit(
            {
                "boundary_strands": word.boundary_strands,
                "trunk": tangle_trunk(word),
                "arc_count": word.arc_count,
            }
        )
    else:
        _emit(_word_json(embedding_report(word)))
    return 0


def _cmd_optimize(args) -> int:
    word = _load_closed(args.source)
    objective = Objective(ObjectiveKind(args.objective))
    config = SearchConfig(
        beam_width=args.beam,
        max_steps=args.steps,
        insertion_budget=args.insertions,
        random_seed=args.seed,
    )
    report = _word_json(embedding_report(word))  # refuses a link before any search
    result = beam_search(word, objective, config)
    _emit(
        {
            "input": {"word": serialize(word), "report": report},
            "best": {
                "word": serialize(result.best_word),
                "report": _word_json(result.best_report),
            },
            "trace": [str(m) for m in result.trace],
            "visited": result.visited,
        }
    )
    return 0


def _cmd_sum(args) -> int:
    a, b = _load_closed(args.left), _load_closed(args.right)
    word = connected_sum(a, b)
    _emit({"word": serialize(word), "report": _word_json(embedding_report(word))})
    return 0


def _cmd_compare(args) -> int:
    a, b = _load_closed(args.left), _load_closed(args.right)
    verdict = otp_compare(a, b)
    print({-1: "less", 0: "equal", 1: "greater"}[verdict])
    return 0


def _cmd_bracket(args) -> int:
    word = _load_closed(args.source)
    w = writhe(word)
    bracket = kauffman_bracket(word)
    _emit(
        {
            "crossings": word.crossing_count,
            "writhe": w,
            "bracket": str(bracket),
            "jones_normalized": str(_normalized(w, bracket)),
        }
    )
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        for name, desc in entries():
            print(f"{name:22} {desc}")
        return 0
    print(serialize(catalog(args.name)))
    return 0


def _cmd_render(args) -> int:
    word = _load_closed(args.source)
    sys.stdout.write(render_profile(word, fmt=args.format))
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsewidth",
        description="Width, trunk, and friends for Morse-word knot presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariant report for a word")
    p.add_argument("source")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="beam-search for a better position")
    p.add_argument("source")
    objectives = sorted(k.value for k in ObjectiveKind)
    p.add_argument("--objective", choices=objectives, default="width")
    p.add_argument("--beam", type=int, default=SearchConfig.beam_width)
    p.add_argument("--steps", type=int, default=SearchConfig.max_steps)
    p.add_argument("--seed", type=int, default=SearchConfig.random_seed)
    p.add_argument("--insertions", type=int, default=SearchConfig.insertion_budget)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sum", help="connected sum of two knot words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("compare", help="thick-vector order of two words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bracket", help="bracket polynomial and writhe")
    p.add_argument("source")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("catalog", help="list catalog entries or print one")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("render", help="draw the classified gap profile")
    p.add_argument("source")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left (`| head`): end quietly, as Python's signal docs
        # advise, with stdout on devnull so that the flush at exit cannot
        # fail again.  In process, stdout may have no descriptor.
        with contextlib.suppress(OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, UnknownName) as exc:  # bad words, moves, brackets, names, files
        message = exc.args[0] if exc.args else exc  # a KeyError's str quotes its message
        print(f"invalid input: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
