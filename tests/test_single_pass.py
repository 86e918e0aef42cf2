"""A report builds its gap profile once; position classification builds
one profile per word; optimize builds one report per distinct word and
refuses a link before it searches; a report classifies its gaps once; the
bracket command computes the bracket once."""

import json

import pytest

import morsewidth.bracket as bracket_mod
import morsewidth.cli as cli_mod
import morsewidth.invariants as invariants_mod
import morsewidth.search as search_mod
from conftest import spy
from morsewidth.catalog import catalog


@pytest.fixture
def profiles(monkeypatch):
    return spy(monkeypatch, "level_profile", invariants_mod)


@pytest.fixture
def brackets(monkeypatch):
    return spy(monkeypatch, "kauffman_bracket", bracket_mod, cli_mod)


@pytest.mark.parametrize("name", ["unknot", "trefoil_plat", "cex4_gamma", "bt134"])
def test_embedding_report_builds_one_profile(profiles, name):
    word = catalog(name)
    report = invariants_mod.embedding_report(word)
    assert len(profiles) == 1
    assert report.gaps == invariants_mod.level_profile(word).gaps


def test_analyze_builds_one_profile(profiles, capsys):
    assert cli_mod.main(["analyze", "catalog:cex4_gamma"]) == 0
    assert len(profiles) == 1
    assert json.loads(capsys.readouterr().out)["gaps"]


STAND_INS = ["cex4_gamma", "cex4_gamma_prime", "bt134", "bt_mcp", "stack_101010"]


def test_classify_positions_builds_one_profile_per_word(monkeypatch):
    calls = spy(monkeypatch, "level_profile", invariants_mod, search_mod)
    words = [catalog(name) for name in STAND_INS]
    classes = search_mod.classify_positions(words)
    assert len(calls) == len(words)
    for position in classes.positions:
        assert position.report == invariants_mod.embedding_report(position.word)


def test_optimize_builds_one_report_per_word(monkeypatch, capsys):
    calls = spy(monkeypatch, "embedding_report", invariants_mod, search_mod, cli_mod)
    argv = ["optimize", "catalog:padded_trefoil", "--steps", "3"]
    assert cli_mod.main(argv) == 0
    assert len(calls) == 2  # the input word and the best word
    data = json.loads(capsys.readouterr().out)
    assert data["input"]["word"] != data["best"]["word"]


def test_bracket_command_computes_one_bracket(brackets, capsys):
    assert cli_mod.main(["bracket", "catalog:trefoil_plat"]) == 0
    assert len(brackets) == 1
    data = json.loads(capsys.readouterr().out)
    word = catalog("trefoil_plat")
    assert data["jones_normalized"] == str(bracket_mod.jones_normalized(word))


def test_embedding_report_classifies_gaps_once(monkeypatch):
    # The cached_property calls its func, patched here, on a miss.
    calls = spy(monkeypatch, "func", invariants_mod.LevelProfile._classes)
    report = invariants_mod.embedding_report(catalog("bt134"))
    assert report.as_dict() and report.gaps  # fields are computed when read
    assert len(calls) == 1


def test_optimize_refuses_a_link_before_searching(monkeypatch, capsys):
    calls = spy(monkeypatch, "beam_search", cli_mod)
    assert cli_mod.main(["optimize", "b1 b1 b3 x2+ x2+ d3 d1 d1", "--steps", "6"]) == 1
    assert calls == []
    assert "MultipleComponents" in capsys.readouterr().err
