"""The CLI builds its parser once per process and offers every search
objective."""

import argparse
import json
import os
import subprocess
import sys

import morsewidth
import morsewidth.cli as cli_mod
from morsewidth.catalog import catalog
from morsewidth.invariants import height, trunk, width


def test_two_calls_build_one_parser(monkeypatch, capsys):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "morsewidth":
            built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli_mod._build_parser.cache_clear()
    assert cli_mod.main(["analyze", "catalog:trefoil_plat"]) == 0
    assert cli_mod.main(["analyze", "catalog:figure8_plat"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_reused_parser_keeps_default_seed(capsys):
    argv = ["optimize", "catalog:padded_trefoil", "--steps", "3"]
    assert cli_mod.main(argv + ["--seed", "7"]) == 0
    capsys.readouterr()
    assert cli_mod.main(argv) == 0
    reused = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(morsewidth.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "morsewidth.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    ).stdout
    assert reused == fresh


def test_trunk_objective(capsys):
    argv = ["optimize", "catalog:padded_trefoil", "--objective", "trunk", "--steps", "4"]
    assert cli_mod.main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["best"]["report"]["trunk"] <= trunk(catalog("padded_trefoil"))


def test_height_objective(capsys):
    argv = ["optimize", "catalog:padded_trefoil", "--objective", "height", "--steps", "4"]
    assert cli_mod.main(argv) == 0
    report = json.loads(capsys.readouterr().out)["best"]["report"]
    start = catalog("padded_trefoil")
    assert (report["width"], report["height"]) <= (width(start), height(start))
