"""The move rule table: derived tables and checks that survive ``python -O``."""

import ast
from pathlib import Path

import pytest

import morsewidth.moves as moves_mod
from morsewidth.errors import InvalidMove
from morsewidth.events import MorseWord, cap, cross, cup
from morsewidth.moves import LENGTH_DELTA, WRITHE_CHANGING, Move, MoveKind, apply_move

TREFOIL = MorseWord([cup(1), cup(2), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1)])
SRC = Path(moves_mod.__file__).resolve().parent


def test_every_kind_has_one_rule():
    assert list(moves_mod._RULES) == list(MoveKind)
    assert set(LENGTH_DELTA) == set(MoveKind)
    assert WRITHE_CHANGING == {
        MoveKind.R1_ABSORB,
        MoveKind.R1_INSERT,
        MoveKind.CAP_ABSORB_CROSS,
    }


def test_rewrite_that_changes_component_count_is_refused(patch_rule):
    # A closed loop in place of a finger: a valid word with one more component.
    def loop(window, params):
        return (cup(params[0]), cap(params[0]))

    patch_rule(MoveKind.ZIGZAG_INSERT, rewrite=loop)
    with pytest.raises(InvalidMove, match="component count"):
        apply_move(TREFOIL, Move(MoveKind.ZIGZAG_INSERT, 2, (2, "right")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
