"""The frontier loop shared by beam and exhaustive search: node caps and
selection edge cases."""

import pytest

import morsewidth.search as search_mod
from morsewidth.catalog import catalog
from morsewidth.errors import BudgetExceeded
from morsewidth.search import SearchConfig, beam_search, exhaustive_min

NO_ROOM = SearchConfig(insertion_budget=0)


def test_beam_node_cap_reports_best_of_partial_step(monkeypatch):
    monkeypatch.setattr(search_mod, "_BEAM_NODE_CAP", 3)
    with pytest.raises(BudgetExceeded, match="beam search node cap") as err:
        beam_search(catalog("padded_trefoil"), config=NO_ROOM)
    best = err.value.best
    assert (best.objective_value, best.visited) == ((8,), 4)
    assert [str(m) for m in best.trace] == ["ZigZagCancel@2"]


def test_exhaustive_node_cap_reports_best_so_far(monkeypatch):
    monkeypatch.setattr(search_mod, "_EXHAUSTIVE_NODE_CAP", 3)
    with pytest.raises(BudgetExceeded, match="exhaustive search node cap") as err:
        exhaustive_min(catalog("padded_trefoil"), radius=3)
    best = err.value.best
    assert (best.objective_value, best.visited) == ((8,), 4)
    assert [str(m) for m in best.trace] == ["ZigZagCancel@2"]


def test_zero_width_beam_still_reports_best_first_step():
    config = SearchConfig(beam_width=0, insertion_budget=0)
    result = beam_search(catalog("padded_trefoil"), config=config)
    assert (result.objective_value, result.visited) == ((8,), 4)
    assert [str(m) for m in result.trace] == ["ZigZagCancel@2"]
