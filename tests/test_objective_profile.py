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


@pytest.mark.parametrize("name", ["trefoil_plat", "cex4_gamma", "bt134"])
def test_otp_key_builds_one_profile(profiles, name):
    word = catalog(name)
    key = Objective(ObjectiveKind.OTP_LEX).key(word)
    assert len(profiles) == 1
    profile = invariants_mod.level_profile(word)
    assert key == (profile.otp_vector, profile.width)


def test_critical_key_builds_no_profile(profiles):
    Objective(ObjectiveKind.CRITICAL_COUNT).key(catalog("cex4_gamma"))
    assert profiles == []
