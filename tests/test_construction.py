"""Word construction traces its events exactly once."""

import pytest

import morsewidth.events as events_mod
from morsewidth.errors import ValidationError
from morsewidth.events import MorseWord, TangleWord, cap, cross, cup, validate


@pytest.fixture
def simulations(monkeypatch):
    calls = []
    original = events_mod._simulate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(events_mod, "_simulate", counting)
    return calls


def test_morse_word_simulates_once(simulations):
    MorseWord([cup(1), cup(2), cross(3, -1), cross(3, -1), cross(3, -1), cap(2), cap(1)])
    assert len(simulations) == 1


def test_tangle_word_simulates_once(simulations):
    TangleWord(2, [cross(1, 1), cap(1)])
    assert len(simulations) == 1


def test_invalid_word_simulates_once(simulations):
    with pytest.raises(ValidationError):
        MorseWord([cup(1), cap(2)])
    assert len(simulations) == 1


def test_empty_word_is_not_simulated(simulations):
    with pytest.raises(ValidationError) as err:
        MorseWord([])
    assert [v.code for v in err.value.violations] == ["EmptyWord"]
    assert validate([])[0].code == "EmptyWord"
    assert simulations == []
