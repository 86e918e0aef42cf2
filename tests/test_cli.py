"""Command-line interface: subcommands, sources, exit codes, JSON shape."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys

import pytest

import morsewidth
from morsewidth.cli import main

TREFOIL = "b1 b2 x3- x3- x3- d2 d1"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestAnalyze:
    def test_literal_word(self, capsys):
        code, out, _ = run(capsys, "analyze", TREFOIL)
        assert code == 0
        data = json.loads(out)
        assert data["width"] == 8
        assert data["trunk"] == 4
        assert data["bridge"] == 2
        assert data["otp_vector"] == [4]
        assert data["proportion"] == {"num": 1, "den": 1}
        assert {"width": 4, "class": "thick"} in data["gaps"]

    def test_report_key_order(self, capsys):
        _, out, _ = run(capsys, "analyze", "catalog:trefoil_plat")
        pairs = json.loads(out, object_pairs_hook=lambda kv: kv)
        keys = [k for k, _ in pairs]
        assert keys == [
            "width",
            "trunk",
            "height",
            "bridge",
            "critical_count",
            "otp_vector",
            "proportion",
            "average_trunk",
            "rep_upper",
            "waist_upper",
            "gaps",
        ]

    def test_catalog_source(self, capsys):
        code, out, _ = run(capsys, "analyze", "catalog:figure8_plat")
        assert code == 0
        assert json.loads(out)["width"] == 18

    def test_profile_source(self, capsys):
        code, out, _ = run(capsys, "analyze", "profile:2,4,6,4,2")
        assert code == 0
        assert json.loads(out)["width"] == 18

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "word.mw"
        path.write_text(TREFOIL + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["width"] == 8

    def test_tangle_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "catalog:rational_tangle")
        assert code == 0
        data = json.loads(out)
        assert data == {"boundary_strands": 4, "trunk": 4, "arc_count": 2}


class TestOptimize:
    def test_padded_trefoil_default(self, capsys):
        code, out, _ = run(capsys, "optimize", "catalog:padded_trefoil")
        assert code == 0
        data = json.loads(out)
        assert data["input"]["report"]["width"] == 18
        assert data["best"]["report"]["width"] == 8
        assert data["trace"] == ["ZigZagCancel@2"]
        assert data["visited"] > 0

    def test_objective_flag(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "catalog:padded_trefoil",
            "--objective", "otp", "--steps", "4",
        )
        assert code == 0
        assert json.loads(out)["best"]["report"]["otp_vector"] == [4]

    def test_tangle_refused(self, capsys):
        code, _, err = run(capsys, "optimize", "catalog:rational_tangle")
        assert code == 1
        assert "closed word" in err

    def test_negative_beam_refused(self, capsys):
        argv = ["optimize", "catalog:padded_trefoil", "--beam", "-1", "--steps", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "invalid input" in err and "beam width" in err

    @pytest.mark.parametrize("bound", [["--insertions", "-5"], ["--steps", "-2"]])
    def test_negative_steps_or_insertions_refused(self, capsys, bound):
        argv = ["optimize", "catalog:padded_trefoil", "--steps", "3", *bound]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "invalid input" in err and "must be 0 or more" in err


class TestSumCompareBracket:
    def test_sum(self, capsys):
        code, out, _ = run(capsys, "sum", "catalog:trefoil_plat", "catalog:trefoil_plat")
        assert code == 0
        data = json.loads(out)
        assert data["report"]["width"] == 14
        assert data["report"]["bridge"] == 3

    def test_compare(self, capsys):
        code, out, _ = run(
            capsys, "compare", "catalog:trefoil_plat", "catalog:padded_trefoil"
        )
        assert code == 0
        assert out.strip() == "less"

    def test_compare_equal(self, capsys):
        _, out, _ = run(capsys, "compare", TREFOIL, "catalog:trefoil_plat")
        assert out.strip() == "equal"

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "bracket", "catalog:trefoil_plat")
        assert code == 0
        data = json.loads(out)
        assert data["crossings"] == 3
        assert data["writhe"] == -3
        assert data["bracket"] == "A^7 - A^3 - A^-5"
        assert data["jones_normalized"] == "-A^16 + A^12 + A^4"


class TestCatalogRender:
    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "trefoil_plat" in out
        assert "torus_plat(p,q)" in out

    def test_catalog_print(self, capsys):
        code, out, _ = run(capsys, "catalog", "trefoil_plat")
        assert code == 0
        assert out.strip() == TREFOIL

    def test_render_ascii(self, capsys):
        code, out, _ = run(capsys, "render", TREFOIL)
        assert code == 0
        assert out == "thick   4 ####\n"

    def test_render_svg(self, capsys):
        code, out, _ = run(capsys, "render", TREFOIL, "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    @pytest.mark.parametrize("name", ["rational_tangle", "two_rational_sum"])
    def test_render_refuses_a_tangle(self, capsys, name, fmt):
        # A tangle's levels start at its boundary count, not at 0.
        code, out, err = run(capsys, "render", f"catalog:{name}", "--format", fmt)
        assert (code, out) == (1, "")
        assert "needs a closed word" in err


# Every command that prints JSON, on the inputs of the cases above.
JSON_COMMANDS = [
    ("analyze", TREFOIL),
    ("analyze", "catalog:rational_tangle"),
    ("optimize", "catalog:padded_trefoil"),
    ("sum", "catalog:trefoil_plat", "catalog:trefoil_plat"),
    ("bracket", "catalog:trefoil_plat"),
]


class TestLayout:
    """One compact line into a pipe or a file, indented on a terminal."""

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
    def test_one_line_off_a_terminal(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1
        assert out == json.dumps(json.loads(out)) + "\n"

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
    def test_indented_on_a_terminal(self, capsys, monkeypatch, argv):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        _, compact, _ = run(capsys, *argv)
        terminal = Terminal()
        monkeypatch.setattr(sys, "stdout", terminal)
        assert main(list(argv)) == 0
        assert terminal.getvalue() == json.dumps(json.loads(compact), indent=2) + "\n"

    @pytest.mark.skipif(not hasattr(os, "openpty"), reason="no pseudo-terminals here")
    def test_indented_on_a_real_terminal(self, capsys):
        argv = ["analyze", "catalog:trefoil_plat"]
        _, compact, _ = run(capsys, *argv)
        src = os.path.dirname(os.path.dirname(morsewidth.__file__))
        controller, terminal = os.openpty()
        chunks = []
        try:
            with subprocess.Popen(
                [sys.executable, "-m", "morsewidth.cli", *argv],
                stdout=terminal,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
            ) as child:
                os.close(terminal)
                with contextlib.suppress(OSError):  # EIO on Linux once the child is done
                    while chunk := os.read(controller, 4096):
                        chunks.append(chunk)
                err = child.stderr.read()
        finally:
            os.close(controller)
        assert (child.returncode, err) == (0, b"")
        # The terminal's line discipline turns each newline into CR LF.
        out = b"".join(chunks).replace(b"\r\n", b"\n").decode("utf-8")
        assert out == json.dumps(json.loads(compact), indent=2) + "\n"


class TestExitCodes:
    def test_syntax_error_is_2(self, capsys):
        code, _, err = run(capsys, "analyze", "b1 q9 d1")
        assert code == 2
        assert "syntax error" in err
        assert "line 1" in err

    def test_validation_error_is_1(self, capsys):
        code, _, err = run(capsys, "analyze", "b1 b1 d1")
        assert code == 1
        assert "invalid input" in err

    def test_unreadable_path_is_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("invalid input: ") and str(tmp_path) in err

    def test_broken_pipe_is_a_quiet_1(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):  # a reader that has gone, as after `| head`
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["analyze", "catalog:trefoil_plat"])
        assert (code, capsys.readouterr()) == (1, ("", ""))

    def test_unknown_catalog_is_1(self, capsys):
        code, _, err = run(capsys, "analyze", "catalog:nope")
        assert code == 1
        assert "no catalog entry" in err

    def test_bad_profile_is_1(self, capsys):
        code, _, err = run(capsys, "analyze", "profile:2,4,x")
        assert code == 1

    def test_budget_exceeded_is_3(self, capsys):
        word = " ".join(["b1", "b2"] + ["x3-"] * 19 + ["d2", "d1"])
        code, _, err = run(capsys, "bracket", word)
        assert code == 3
        assert "budget exceeded" in err

    def test_link_refused_by_bracket_command(self, capsys):
        code, _, err = run(capsys, "bracket", "b1 b1 d1 d1")
        assert code == 1
