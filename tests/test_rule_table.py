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


# Each cancel and the insertion it undoes.
CANCELS = {
    MoveKind.ZIGZAG_CANCEL: MoveKind.ZIGZAG_INSERT,
    MoveKind.R1_ABSORB: MoveKind.R1_INSERT,
    MoveKind.CAP_ABSORB_CROSS: MoveKind.R1_INSERT,
    MoveKind.R2_CANCEL: MoveKind.R2_INSERT,
}


@pytest.mark.parametrize("cancel", CANCELS, ids=lambda kind: kind.value)
def test_a_cancel_mirrors_its_insertion(cancel):
    rule, insert = moves_mod._RULES[cancel], moves_mod._RULES[CANCELS[cancel]]
    assert rule.width == insert.width + insert.length_delta
    assert rule.length_delta == -insert.length_delta
    assert rule.writhe_changing == insert.writhe_changing


def kinds_at(window, n):
    return [kind for kind, _, _ in moves_mod._site(moves_mod._encode(window), n)]


def test_a_cancel_follows_a_patched_insertion(patch_rule):
    same, inverse = (cross(1, 1), cross(1, 1)), (cross(1, 1), cross(1, -1))
    assert MoveKind.R2_CANCEL in kinds_at(inverse, 2)

    def same_sign(window, params):
        i, s = params
        return (cross(i, s), cross(i, s))

    patch_rule(MoveKind.R2_INSERT, rewrite=same_sign)
    assert MoveKind.R2_CANCEL in kinds_at(same, 2)
    assert MoveKind.R2_CANCEL not in kinds_at(inverse, 2)


def test_a_cancel_lists_only_what_its_insertion_makes():
    # On no strands Cap(2) above Cup(1) is out of range: no finger makes it.
    assert MoveKind.ZIGZAG_CANCEL not in kinds_at((cup(1), cap(2)), 0)
    assert MoveKind.ZIGZAG_CANCEL in kinds_at((cup(1), cap(2)), 2)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
