import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplumb.cli import main
from braidplumb.fatgraph import build_surface
from braidplumb.plumbing import (
    ChainCertificate,
    torus_braid,
    trefoil_decomposition_from_json,
    validate_chain_certificate,
    validate_trefoil_decomposition,
)
from braidplumb.svg import render_svg
import braidplumb.curves as cv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDispatch:
    def test_analyze_unknot(self, capsys):
        code, out = run(capsys, "analyze", "1 2")
        data = json.loads(out)
        assert code == 0
        assert data["genus"] == 0
        assert data["alexander"]["burau"] == {"0": 1}

    def test_analyze_agreement_field(self, capsys):
        code, out = run(capsys, "analyze", "1 2 3 1 2 3 1 2 3")
        data = json.loads(out)
        assert code == 0 and data["alexander"]["agree"]
        assert data["alexander"]["torus_formula"] is not None

    def test_decompose_trefoil(self, capsys):
        code, out = run(capsys, "decompose", "1 1 1")
        data = json.loads(out)
        assert code == 0
        assert data["ribbon_twists"] == 1 and len(data["steps"]) == 1
        assert validate_trefoil_decomposition(trefoil_decomposition_from_json(data))

    def test_torus_38(self, capsys):
        code, out = run(capsys, "torus", "3", "8")
        data = json.loads(out)
        assert code == 0
        assert data["detector_n"] == 8
        assert data["hironaka_max_plumbing"] == 8
        assert data["verdict"] == "exact"

    def test_chain_round_trip(self, capsys):
        code, out = run(capsys, "chain", "1 1 1 1 1")
        data = json.loads(out)
        assert code == 0
        cert = ChainCertificate.from_json(data)
        assert validate_chain_certificate(cert)

    def test_bound_word(self, capsys):
        code, out = run(capsys, "bound", "1 1 1")
        data = json.loads(out)
        assert code == 0
        assert data["n_max"] == 3 and data["plumbing_bound"] == 2
        assert data["delta_dense"] == [1, -1, 1]

    def test_orbit(self, capsys):
        code, out = run(capsys, "orbit", "1 2 3 1 2 3 1 2 3", "--power", "2")
        data = json.loads(out)
        assert code == 0
        assert [entry["power"] for entry in data["orbit"]] == [0, 1, 2]
        assert data["orbit"][1]["support"] == [1, 4]
        assert all(entry["embedded"] for entry in data["orbit"])

    def test_domain_error_exit_code(self, capsys):
        code, out = run(capsys, "analyze", "0 1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidGenerator"

    def test_not_a_knot_exit_code(self, capsys):
        code, out = run(capsys, "decompose", "1 2 1 2 1 2")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "NotAKnot"

    def test_determinism(self, capsys):
        _, first = run(capsys, "torus", "3", "5")
        _, second = run(capsys, "torus", "3", "5")
        assert first == second

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out = run(capsys, "analyze", "1 1 1", "--json", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)

    def test_batch_mode(self, capsys, tmp_path):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n1 2 1 2\n0 9\n")
        out_dir = tmp_path / "results"
        code, out = run(
            capsys,
            "analyze",
            "--batch",
            str(batch),
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        assert json.loads(out) == {"inputs": 3, "out_dir": str(out_dir)}
        first = json.loads((out_dir / "00000.json").read_text())
        assert first["genus"] == 1
        third = json.loads((out_dir / "00002.json").read_text())
        assert third["error"]["code"] == "InvalidGenerator"
        assert not list(out_dir.glob("*.tmp"))

    def test_word_and_batch_conflict(self, capsys, tmp_path):
        batch = tmp_path / "w.txt"
        batch.write_text("1 1\n")
        code, out = run(capsys, "analyze", "1 1", "--batch", str(batch))
        assert code == 2
        code, out = run(capsys, "analyze")
        assert code == 2


class TestParameterContracts:
    def test_torus_bad_parameters_exit_2(self, capsys):
        code, out = run(capsys, "torus", "0", "5")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidParameter"

    def test_chain_max_n_zero_exit_2(self, capsys):
        code, out = run(capsys, "chain", "1 1 1 1 1", "--max-n", "0")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidParameter"

    def test_bound_negative_torus_exit_2(self, capsys):
        code, out = run(capsys, "bound", "--torus", "-3", "5")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidParameter"

    def test_bound_torus_errors_come_from_the_formula(self, capsys):
        # Invalid parameters are reported before the coprimality check.
        for p, q, code_name in (("0", "5", "InvalidParameter"), ("4", "6", "NotCoprime")):
            code, out = run(capsys, "bound", "--torus", p, q)
            assert code == 2
            assert json.loads(out)["error"]["code"] == code_name

    def test_unreadable_batch_file_exit_2(self, capsys, tmp_path):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"1 1 1\n\xff\xfe\n")
        out_dir = tmp_path / "d"
        for batch in (tmp_path / "missing.txt", binary, tmp_path):
            code, out = run(
                capsys, "decompose", "--batch", str(batch), "--out-dir", str(out_dir)
            )
            assert code == 2
            assert json.loads(out)["error"]["code"] == "DomainError"
            assert not out_dir.exists()

    def test_malformed_command_line_exit_2_with_json(self, capsys):
        # argparse used to print its usage to stderr and leave stdout empty.
        for argv in (
            [],
            ["frobnicate"],
            ["torus", "0", "x"],
            ["chain", "1 1 1", "--max-n", "x"],
            ["analyze", "-x"],
            ["orbit", "1 1 1", "--power"],
        ):
            code, out = run(capsys, *argv)
            assert code == 2
            error = json.loads(out)["error"]
            assert error["code"] == "DomainError"
            assert error["message"].startswith("braidplumb")

    def test_orbit_negative_power_exit_2(self, capsys):
        code, out = run(capsys, "orbit", "1 1 1", "--power", "-1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidParameter"


class TestDefaultSeed:
    def test_first_column_without_rectangle(self, capsys):
        code, out = run(capsys, "chain", "4 3 1 2 2")
        assert code == 0
        assert json.loads(out)["seed"] == {"column": 2, "top": 3, "bottom": 4}
        code, out = run(capsys, "orbit", "3 1 3 2")
        assert code == 0
        assert json.loads(out)["seed"] == {"column": 3, "top": 0, "bottom": 2}

    def test_no_rectangle_exit_2(self, capsys):
        code, out = run(capsys, "chain", "1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "TrivialLink"

    @pytest.mark.parametrize(
        "argv", [("chain", "1 2", "--seed", "0"), ("orbit", "1 2 3", "--seed", "1")]
    )
    def test_explicit_seed_without_rectangle_exit_2(self, capsys, argv):
        # The same error as without --seed, not a seed index out of range.
        code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "TrivialLink"

    def test_empty_one_strand_word_is_the_unknot(self, capsys):
        # Its surface is a disk: one boundary circle, so no exit 3 from the
        # boundary check, and no rectangle to seed a chain from.
        code, out = run(capsys, "analyze", " ", "--strands", "1")
        assert code == 0
        data = json.loads(out)
        assert (data["components"], data["genus"]) == (1, 0)
        assert data["alexander"]["monodromy"] == data["alexander"]["burau"] == {"0": 1}
        code, out = run(capsys, "chain", " ", "--strands", "1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "TrivialLink"

    def test_first_column_seed_unchanged(self, capsys):
        _, default = run(capsys, "chain", "1 2 1 2 1 2 1")
        _, explicit = run(capsys, "chain", "1 2 1 2 1 2 1", "--seed", "0")
        assert default == explicit


class TestSvg:
    def test_byte_identical(self):
        s = build_surface(torus_braid(4, 3))
        r = cv.curve_from_rectangle(s, s.top_left_rectangle())
        a = render_svg(s, [r])
        b = render_svg(s, [r])
        assert a == b
        assert a.startswith("<svg ") or a.startswith("<svg\n") or a.startswith("<svg")

    def test_bare_diagram_counts(self):
        s = build_surface(torus_braid(4, 3))
        svg = render_svg(s, [])
        assert svg.count("<line") == 4 + 9  # strands + crossings
        assert "<rect x=" not in svg

    def test_highlight_outlines_staircase(self):
        s = build_surface(torus_braid(4, 3))
        r = cv.curve_from_rectangle(s, s.top_left_rectangle())
        orbit1 = cv.apply_monodromy(s, r, 1)
        svg = render_svg(s, [r, orbit1])
        assert svg.count('stroke="#c62828"') == 1
        assert svg.count('stroke="#1565c0"') == 1

    def test_cli_svg_file(self, capsys, tmp_path):
        path = tmp_path / "pic.svg"
        code = main(["orbit", "1 2 3 1 2 3 1 2 3", "--power", "2", "--svg", str(path)])
        capsys.readouterr()
        assert code == 0
        content = path.read_text()
        assert content.startswith("<svg") and content.rstrip().endswith("</svg>")

    def test_staircase_orbit_highlights(self, capsys, tmp_path):
        # six-strand example whose monodromy drags the top curve into
        # staircases across several columns
        word = "4 4 3 2 1 5 5 3 4 2 2 5 3 4 1 1 2 2 3"
        path = tmp_path / "stairs.svg"
        code = main(["orbit", word, "--power", "1", "--svg", str(path)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        image_support = data["orbit"][1]["support"]
        assert 0 not in image_support  # avoids the top band entirely
        assert len(path.read_text().split("<rect x=")) > 2


class TestModuleEntryPoint:
    def _run_module(self, *argv):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        return subprocess.run(
            [sys.executable, "-m", "braidplumb", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
        )

    def test_analyze_exits_0(self):
        proc = self._run_module("analyze", "1 1 1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["word"]

    def test_domain_error_exits_2_with_json(self):
        proc = self._run_module("analyze", "0 1")
        assert proc.returncode == 2, proc.stderr
        assert "error" in json.loads(proc.stdout)


class TestOutputFailures:
    def _single_error(self, out):
        data = json.loads(out)  # one object, no payload before it
        assert set(data) == {"error"}
        return data["error"]

    def test_unwritable_json_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out = run(capsys, "analyze", "1 1 1", "--json", str(path))
        assert code == 2
        assert self._single_error(out)["code"] == "DomainError"
        assert not path.exists()

    def test_svg_path_is_a_directory_exit_2(self, capsys, tmp_path):
        for argv in (
            ("analyze", "1 1 1"),
            ("chain", "1 1 1 1"),
            ("orbit", "1 1 1"),
            ("torus", "3", "4"),
        ):
            code, out = run(capsys, *argv, "--svg", str(tmp_path))
            assert code == 2
            assert self._single_error(out)["code"] == "DomainError"

    def test_out_dir_is_a_file_exit_2(self, capsys, tmp_path):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n")
        code, out = run(capsys, "chain", "--batch", str(batch), "--out-dir", str(batch))
        assert code == 2
        assert self._single_error(out)["code"] == "DomainError"

    def _run_into_closed_pipe(self, *argv):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write the child makes meets a closed pipe
        try:
            return subprocess.run(
                [sys.executable, "-m", "braidplumb", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                cwd=root,
            )
        finally:
            os.close(write_end)

    def test_closed_stdout_keeps_the_exit_code(self):
        word = " ".join(map(str, torus_braid(6, 13).letters))
        for argv, expect in ((("decompose", word), 0), (("analyze", "0 1"), 2)):
            proc = self._run_into_closed_pipe(*argv)
            assert proc.returncode == expect
            assert proc.stderr == ""


# Tokens that are not plain generator indices.
BAD_TOKENS = ("0", "-1", "a", "1.5", "+2", "-x", "--")


def _rarely(draw):
    """True about one draw in five."""
    return draw(st.integers(min_value=0, max_value=4)) == 0


@st.composite
def words(draw):
    """A word of generators 1..4, now and then with one malformed token."""
    tokens = draw(st.lists(st.integers(min_value=1, max_value=4).map(str), min_size=1, max_size=9))
    if _rarely(draw):
        at = draw(st.integers(min_value=0, max_value=len(tokens)))
        tokens.insert(at, draw(st.sampled_from(BAD_TOKENS)))
    return " ".join(tokens)


@st.composite
def option_values(draw, lo, hi):
    if _rarely(draw):
        return draw(st.sampled_from(["x", ""]))
    return str(draw(st.integers(min_value=lo, max_value=hi)))


# Path placeholders, replaced in each example by paths in a fresh temporary
# directory: a writable file (holding one word), a directory, and a file
# whose parent directory does not exist.
PATHS = ("<file>", "<dir>", "<missing>")

# Tails that make a selftest command line malformed wherever they end it, so
# no criterion runs.
BAD_SELFTEST_TAILS = (["--json"], ["--quick=1"], ["--no-such-option"], ["extra"])


@st.composite
def command_lines(draw):
    """argv for every subcommand, with file options drawn from PATHS;
    selftest only with a malformed command line."""
    cmd = draw(
        st.sampled_from(["analyze", "decompose", "chain", "bound", "torus", "orbit", "selftest"])
    )
    argv = [cmd]
    path = st.sampled_from(PATHS)
    if cmd == "selftest":
        if _rarely(draw):
            argv.append("--quick")
        if _rarely(draw):
            argv += ["--json", draw(path)]
        return argv + draw(st.sampled_from(BAD_SELFTEST_TAILS))
    if cmd == "torus":
        argv += [draw(option_values(-1, 6)), draw(option_values(-1, 6))]
    else:
        batch = cmd in ("analyze", "decompose", "chain") and _rarely(draw)
        if batch:
            argv += ["--batch", draw(path)]
            if not _rarely(draw):
                argv += ["--out-dir", draw(path)]
        # A word besides --batch is a malformed line: draw it rarely there.
        with_word = _rarely(draw) if batch else not _rarely(draw)
        if with_word:
            argv.append(draw(words()))
    options = {"--strands": (-1, 6)} if cmd != "torus" else {}
    if cmd in ("chain", "orbit"):
        options["--seed"] = (-1, 8)
    if cmd == "chain":
        options["--max-n"] = (-1, 4)
    if cmd == "orbit":
        options["--power"] = (-1, 3)
    for flag, (lo, hi) in options.items():
        if _rarely(draw):
            argv += [flag, draw(option_values(lo, hi))]
    if cmd == "bound" and _rarely(draw):
        argv += ["--torus", draw(option_values(-1, 6)), draw(option_values(-1, 6))]
    if _rarely(draw):
        argv += ["--json", draw(path)]
    if cmd in ("analyze", "chain", "torus", "orbit") and _rarely(draw):
        argv += ["--svg", draw(path)]
    return argv


class TestEveryCommandLine:
    @settings(max_examples=200, deadline=None)
    @given(command_lines())
    def test_exit_code_and_json(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = dict(
                zip(PATHS, (os.path.join(tmp, "words.txt"), tmp, os.path.join(tmp, "no", "out")))
            )
            Path(paths["<file>"]).write_text("1 1 1\n", encoding="utf-8")
            argv = [paths.get(arg, arg) for arg in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # an argparse exit bypasses the JSON contract
                    code = exc.code
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        json.loads(out.getvalue())
        assert "Traceback" not in err.getvalue()
        if argv[0] == "selftest":
            assert code == 2  # refused before any criterion runs
