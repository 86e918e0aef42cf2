"""``tools/check_imports.py`` lists the imported names nothing reads."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_imports.py"
_spec = importlib.util.spec_from_file_location("check_imports", TOOL)
check_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_imports)


def test_lists_only_the_names_nothing_reads():
    source = """\
from __future__ import annotations
import os
import os.path
import json as j
from random import Random, choice
from typing import *
from .a import exported

__all__ = ["exported"]

def f() -> Random:
    return os.sep
"""
    assert check_imports.unused_imports(source) == [(4, "j"), (5, "choice")]
