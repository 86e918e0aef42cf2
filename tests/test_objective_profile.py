"""An objective key builds at most one gap profile."""

import pytest

import morsewidth.invariants as invariants_mod
import morsewidth.search as search_mod
from morsewidth.catalog import catalog
from morsewidth.search import Objective, ObjectiveKind


@pytest.fixture
def profiles(monkeypatch):
    calls = []
    original = invariants_mod.level_profile

    def counting(word):
        calls.append(word)
        return original(word)

    for module in (invariants_mod, search_mod):
        monkeypatch.setattr(module, "level_profile", counting, raising=False)
    return calls


def _otp(word):
    profile = invariants_mod.level_profile(word)
    return (profile.otp_vector, profile.width)


def _cups_and_caps(word):
    return (sum(e.is_critical for e in word.events),)


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
