"""An objective key builds at most one gap profile."""

import pytest

import morsewidth.invariants as invariants_mod
import morsewidth.search as search_mod
from conftest import spy
from morsewidth.catalog import catalog
from morsewidth.events import EventKind
from morsewidth.search import Objective, ObjectiveKind


@pytest.fixture
def profiles(monkeypatch):
    return spy(monkeypatch, "level_profile", invariants_mod, search_mod)


def _otp(word):
    profile = invariants_mod.level_profile(word)
    return (profile.otp_vector, profile.width)


def _cups_and_caps(word):
    return (sum(e.kind is not EventKind.CROSS for e in word.events),)


NAMES = ["trefoil_plat", "cex4_gamma", "bt134"]


@pytest.mark.parametrize(
    "name, kind, expected",
    [pytest.param(n, ObjectiveKind.OTP_LEX, _otp, id=n) for n in NAMES]
    + [
        pytest.param(n, ObjectiveKind.CRITICAL_COUNT, _cups_and_caps, id=f"critical-{n}")
        for n in NAMES
    ],
)
def test_otp_key_builds_one_profile(profiles, name, kind, expected):
    word = catalog(name)
    key = Objective(kind).key(word)
    assert len(profiles) == 1
    assert key == expected(word)
