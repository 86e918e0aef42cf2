"""Beam and exhaustive search over the move graph."""

import random

import pytest

import morsewidth.search as search_mod
from conftest import random_knot_word
from morsewidth.catalog import catalog, pad_with_fingers
from morsewidth.errors import BracketMismatch, BudgetExceeded
from morsewidth.events import MorseWord, cap, cross, cup
from morsewidth.invariants import critical_count, otp_vector, width
from morsewidth.search import (
    Objective,
    ObjectiveKind,
    SearchConfig,
    beam_search,
    classify_positions,
    exhaustive_min,
)

WIDTH = Objective(ObjectiveKind.GABAI_WIDTH)
TREFOIL = catalog("trefoil_plat")


class TestBeam:
    def test_padded_trefoil_reaches_minimum(self):
        result = beam_search(catalog("padded_trefoil"), WIDTH)
        assert result.best_report.width == 8
        assert result.best_report.otp_vector == (4,)
        assert result.trace  # at least the zig-zag cancel

    def test_trace_replays_exactly(self):
        from morsewidth.moves import apply_move

        start = catalog("padded_trefoil")
        result = beam_search(start, WIDTH)
        word = start
        for move in result.trace:
            word = apply_move(word, move)
        assert word == result.best_word

    def test_never_worse_than_input(self, rng):
        for _ in range(25):
            w = random_knot_word(rng, max_events=14, max_crossings=4)
            result = beam_search(w, WIDTH, SearchConfig(beam_width=4, max_steps=3))
            assert result.best_report.width <= width(w)

    def test_deterministic_per_seed(self):
        start = pad_with_fingers(TREFOIL, 2)
        runs = [beam_search(start, WIDTH, SearchConfig(random_seed=9)) for _ in range(2)]
        assert runs[0].best_word == runs[1].best_word
        assert runs[0].trace == runs[1].trace
        assert runs[0].visited == runs[1].visited

    def test_objective_kinds_all_run(self):
        start = catalog("padded_trefoil")
        cfg = SearchConfig(max_steps=4)
        for kind in ObjectiveKind:
            result = beam_search(start, Objective(kind), cfg)
            assert result.best_report is not None

    def test_otp_objective_breaks_ties_by_width(self):
        start = catalog("padded_trefoil")
        result = beam_search(start, Objective(ObjectiveKind.OTP_LEX))
        assert result.best_report.otp_vector == (4,)
        assert result.best_report.width == 8

    def test_node_cap_carries_best(self, monkeypatch):
        monkeypatch.setattr(search_mod, "_BEAM_NODE_CAP", 10)
        with pytest.raises(BudgetExceeded) as err:
            beam_search(catalog("padded_trefoil"), WIDTH)
        assert err.value.best is not None
        assert err.value.best.best_report.width <= 18

    def test_negative_beam_width_is_refused(self):
        with pytest.raises(ValueError, match="beam width"):
            SearchConfig(beam_width=-1)
        assert SearchConfig(beam_width=0).beam_width == 0
        assert SearchConfig() == SearchConfig(32, 64, 2, 0)

    @pytest.mark.parametrize("field", ["max_steps", "insertion_budget"])
    def test_negative_steps_or_budget_is_refused(self, field):
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            SearchConfig(**{field: -1})
        config = SearchConfig(**{field: 0})
        assert beam_search(TREFOIL, WIDTH, config).best_word == TREFOIL


class TestExhaustive:
    def test_finds_trefoil_from_padded(self):
        result = exhaustive_min(catalog("padded_trefoil"), WIDTH, radius=1)
        assert result.best_report.width == 8

    def test_radius_zero_is_identity(self):
        result = exhaustive_min(TREFOIL, WIDTH, radius=0)
        assert result.best_word == TREFOIL
        assert result.trace == ()

    def test_agrees_with_generous_beam(self, rng):
        for _ in range(12):
            w = random_knot_word(rng, max_events=10, max_crossings=3)
            ex = exhaustive_min(w, WIDTH, radius=2)
            bm = beam_search(
                w,
                WIDTH,
                SearchConfig(
                    beam_width=ex.visited + 1,
                    max_steps=2,
                    insertion_budget=0,
                    random_seed=0,
                ),
            )
            assert bm.objective_value == ex.objective_value

    def test_insertion_budget_expands_reach(self):
        # a lone kink needs R2/zig-zag room before it can vanish entirely
        w = MorseWord([cup(1), cup(2), cross(3, 1), cap(2), cap(1)])
        fixed = exhaustive_min(w, Objective(ObjectiveKind.CRITICAL_COUNT), radius=2)
        assert critical_count(fixed.best_word) <= critical_count(w)
        roomy = exhaustive_min(
            w, Objective(ObjectiveKind.CRITICAL_COUNT), radius=2, insertion_budget=2
        )
        assert roomy.visited > fixed.visited

    @pytest.mark.parametrize(
        "bounds", [{"radius": -3}, {"radius": 1, "insertion_budget": -1}]
    )
    def test_negative_radius_or_budget_is_refused(self, bounds):
        with pytest.raises(ValueError, match="must be 0 or more"):
            exhaustive_min(catalog("padded_trefoil"), WIDTH, **bounds)

    def test_node_cap_carries_best(self, monkeypatch):
        monkeypatch.setattr(search_mod, "_EXHAUSTIVE_NODE_CAP", 5)
        with pytest.raises(BudgetExceeded) as err:
            exhaustive_min(catalog("padded_trefoil"), WIDTH, radius=3)
        assert err.value.best is not None


class TestClassify:
    def test_venn_cells(self):
        tp = TREFOIL
        padded = catalog("padded_trefoil")
        classes = classify_positions([tp, padded])
        flat, fat = classes.positions
        assert flat.cell == "TP&MCP&OTP"
        assert flat.width_minimal and flat.critical_minimal and flat.otp_minimal
        assert fat.cell == "none"
        assert classes.min_width == 8
        assert classes.min_critical_count == 4
        assert classes.min_otp_vector == (4,)

    def test_otp_min_breaks_width_ties(self):
        a = pad_with_fingers(TREFOIL, 1)
        b = beam_search(a, WIDTH, SearchConfig(max_steps=0)).best_word  # a itself
        classes = classify_positions([a, TREFOIL])
        assert [p.otp_minimal for p in classes.positions] == [False, True]
        assert b == a

    def test_rejects_different_knots(self):
        with pytest.raises(BracketMismatch):
            classify_positions([TREFOIL, catalog("figure8_plat")])

    def test_rejects_links(self):
        from morsewidth.errors import ValidationError

        link = MorseWord([cup(1), cup(1), cap(1), cap(1)])
        with pytest.raises(ValidationError):
            classify_positions([link])

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            classify_positions([])

    def test_same_knot_through_moves_accepted(self, rng):
        from morsewidth.moves import apply_move, enumerate_moves

        w = random_knot_word(rng, max_events=12, max_crossings=4)
        moves = enumerate_moves(w)
        variants = [w] + [apply_move(w, m) for m in moves[:4]]
        classes = classify_positions(variants)
        assert len(classes.positions) == len(variants)
        assert any(p.width_minimal for p in classes.positions)
