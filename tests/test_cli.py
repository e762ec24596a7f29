import collections
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slanth
from slanth import (
    COMPOSITIONAL_KINDS,
    SLANT_H_TOEPLITZ,
    SLANT_HANKEL,
    SLANT_TOEPLITZ,
    CheckReport,
    IndexWindow,
    LaurentSymbol,
    WindowError,
    WindowedMatrix,
    build_family,
    check_pattern,
    dump_matrix,
    dump_symbol_file,
    extract_symbol,
    load_matrix,
    load_symbol_file,
    parse_expr,
    parse_symbol,
    verify,
    windowed,
)
from slanth.cli import main
from slanth.verify import perturbed

GENERIC_INLINE = "-1:2, 0:3, 1:5, 2:7"
DATA = Path(__file__).parent / "data"
HUGE = "99999999999999999999"  # past int64


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "slanth", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def section_file(tmp_path):
    path = tmp_path / "section.mat"
    result = run_cli(
        "build",
        "--family", "slant-h-toeplitz",
        "--symbol", f"phi={GENERIC_INLINE}",
        "--rows", "0:8",
        "--cols", "0:33",
        "--out", str(path),
    )
    assert result.returncode == 0, result.stderr
    return path


class TestBuild:
    def test_family_dump_matches_library(self, section_file):
        want = build_family(
            SLANT_H_TOEPLITZ, parse_symbol(GENERIC_INLINE), IndexWindow(0, 8), IndexWindow(0, 33)
        )
        assert section_file.read_text() == dump_matrix(want)

    def test_expression_build(self, tmp_path):
        path = tmp_path / "expr.mat"
        result = run_cli(
            "build",
            "--expr", "W . P . M(phi) . K",
            "--symbol", f"phi={GENERIC_INLINE}",
            "--window", "0:9",
            "--out", str(path),
        )
        assert result.returncode == 0, result.stderr
        matrix = load_matrix(path.read_text())
        assert matrix.cols == IndexWindow(0, 9)

    def test_deterministic_output(self, tmp_path):
        args = (
            "build",
            "--family", "slant-h-adjoint",
            "--symbol", f"phi={GENERIC_INLINE}",
            "--rows", "0:6",
            "--cols", "0:6",
        )
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_pinned_oracle_dump(self):
        result = run_cli("build", "--expr", "W . P . M(phi) . K", "--symbol", f"phi={GENERIC_INLINE}", "--window", "0:33")
        assert result.returncode == 0
        assert result.stdout == (DATA / "build_oracle.mat").read_text()
        assert run_cli("check", "slant-h", "--matrix", str(DATA / "build_oracle.mat")).returncode == 0

    def test_pinned_adjoint_dump(self):
        # the closed form conjugates its coefficient table, so every zero is 0.0:0.0, as its oracle writes it
        argv = ("--family", "slant-h-adjoint", "--symbol", f"phi={GENERIC_INLINE}", "--rows", "0:8", "--cols", "0:33")
        result = run_cli("build", *argv)
        assert result.returncode == 0
        assert result.stdout == (DATA / "build_adjoint.mat").read_text()
        assert ":-0.0" not in result.stdout

    def test_pinned_extension_dump(self):
        # A(m, .) is built by its oracle, S(-m) . P . S(m) . W . M(phi) . K
        result = run_cli("build", "--expr", "A(2,phi)", "--symbol", f"phi={GENERIC_INLINE}", "--window", "0:33")
        assert result.returncode == 0
        assert result.stdout == (DATA / "build_extension.mat").read_text()

    def test_dump_roundtrips_bit_exactly(self, section_file):
        text = section_file.read_text()
        assert dump_matrix(load_matrix(text)) == text

    def test_symbol_file_input(self, tmp_path):
        symfile = tmp_path / "phi.sym"
        symfile.write_text("#fmt 1\n-1 2.0 0.0\n0 3.0 0.0\n1 5.0 0.0\n2 7.0 0.0\n")
        result = run_cli(
            "build",
            "--family", "toeplitz",
            "--symbol", f"phi={symfile}",
            "--rows", "0:4",
            "--cols", "0:4",
        )
        assert result.returncode == 0
        assert load_matrix(result.stdout).entry(1, 0) == 5

    def test_usage_error_exit_code(self):
        assert run_cli("build", "--family", "toeplitz").returncode == 2
        assert run_cli("build", "--family", "bogus").returncode == 2

    def test_overflowing_expression_is_not_dumped(self, tmp_path):
        # 10 * 1e308 is inf, which a matrix file cannot hold
        path = tmp_path / "f.mat"
        result = run_cli(
            "build", "--expr", "10 V(phi)", "--symbol", "phi=0:1e308", "--window", "0:8", "--out", str(path)
        )
        assert result.returncode == 2
        assert result.stderr == "error: entry (0, 0) is not finite and cannot be dumped\n"
        assert not path.exists()

    def test_window_error_exit_code(self):
        result = run_cli("build", "--expr", "J", "--window=-2:3")
        assert result.returncode == 3

    def test_non_finite_scale_factor_exit_code(self):
        result = run_cli("build", "--expr", "1e400 W", "--window", "0:3")
        assert result.returncode == 2
        assert result.stderr == "error: col 1: scale factor '1e400' is not finite\n"

    @pytest.mark.parametrize("rows, cols", [("0:1", "5:4"), ("0:1", "-3:-4"), ("-3:-4", "0:2")])
    def test_empty_window_round_trips(self, tmp_path, rows, cols):
        path = tmp_path / "f.mat"
        build = run_cli("build", "--family", "toeplitz", "--symbol", "p=0:1", f"--rows={rows}", f"--cols={cols}",
                        "--out", str(path))
        assert build.returncode == 0
        for predicate in ("slant-h", "slant-toeplitz", "slant-hankel"):
            check = run_cli("check", predicate, "--matrix", str(path))
            assert check.returncode == 0
            assert check.stdout == "#fmt 1\nPASS max_residual=0.0 vacuous=1\n"

    def test_repeated_symbol_name_exit_code(self):
        result = run_cli(
            "build", "--expr", "V(p)", "--symbol", "p=0:1", "--symbol", "p=1:1", "--window", "0:4"
        )
        assert result.returncode == 2
        assert "more than once" in result.stderr

    def test_oversized_window_exit_code(self):
        # a 131 TiB request: the allocation fails before any memory is touched
        result = run_cli(
            "build", "--family", "toeplitz", "--symbol", "p=0:1",
            "--rows", "0:3000000", "--cols", "0:3000000",
        )
        assert result.returncode == 3
        assert result.stderr.startswith("window error: ")
        assert result.stderr.count("\n") == 1


class TestCheck:
    def test_clean_section_passes(self, section_file):
        result = run_cli("check", "slant-h", "--matrix", str(section_file))
        assert result.returncode == 0
        assert result.stdout.splitlines()[1].startswith("PASS max_residual=")

    def test_perturbed_section_fails_with_witness(self, tmp_path, section_file):
        matrix = load_matrix(section_file.read_text())
        bad_path = tmp_path / "bad.mat"
        bad_path.write_text(dump_matrix(perturbed(matrix, 0, 0)))
        result = run_cli("check", "slant-h", "--matrix", str(bad_path))
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[1].startswith("FAIL max_residual=")
        assert len(lines) >= 3 and "lhs=" in lines[2]

    def test_pinned_failure_report(self):
        # tests/data/build_oracle.mat with entry (1, 7) changed from 0.0:0.0 to 0.5:-0.25
        pinned = (DATA / "perturbed_oracle.mat").read_text().splitlines()
        clean = (DATA / "build_oracle.mat").read_text().splitlines()
        assert [k for k, (a, b) in enumerate(zip(pinned, clean)) if a != b] == [4]
        result = run_cli("check", "slant-h", "--matrix", str(DATA / "perturbed_oracle.mat"))
        assert result.returncode == 1
        assert result.stdout == (DATA / "check_perturbed.txt").read_text()

    def test_pinned_extension_failure_report(self):
        # the extension rebuilt from the perturbed file's readback differs from the file at (1, 7)
        result = run_cli("check", "extension", "--m", "1", "--matrix", str(DATA / "perturbed_oracle.mat"))
        assert result.returncode == 1
        assert result.stdout == (DATA / "check_extension_perturbed.txt").read_text()
        assert result.stderr == ""

    def test_overflowing_expression_fails_closed(self):
        # 10 * 1e308 is inf, and inf - inf residuals are NaN
        result = run_cli(
            "check", "slant-h", "--expr", "10 V(phi)", "--symbol", "phi=0:1e308", "--window", "0:33"
        )
        assert result.returncode == 1
        assert result.stdout.splitlines()[1] == "FAIL max_residual=nan"
        assert result.stderr == ""

    def test_overflowing_difference_fails_closed(self):
        # inf - inf is NaN in the difference itself
        result = run_cli(
            "check", "slant-h", "--expr", "10 V(phi) - 10 V(phi)", "--symbol", "phi=0:1e308", "--window", "0:33"
        )
        assert result.returncode == 1
        assert result.stdout.splitlines()[1] == "FAIL max_residual=nan"
        assert result.stderr == ""

    def test_extension_fails_closed_on_unreadable_symbol(self):
        # column 0 holds inf, so no symbol can be read back to continue the section
        result = run_cli(
            "check", "extension", "--expr", "10 V(phi)", "--symbol", "phi=0:1e308", "--window", "0:33"
        )
        assert result.returncode == 1
        assert result.stdout == "#fmt 1\nFAIL max_residual=nan\n"
        assert result.stderr == ""

    @pytest.mark.parametrize("kind", COMPOSITIONAL_KINDS, ids=lambda kind: kind.name)
    def test_each_family_section_passes_its_own_check(self, tmp_path, kind):
        path = tmp_path / "section.mat"
        build = ["build", "--family", kind.name, "--symbol", f"phi={GENERIC_INLINE}", "--rows", "0:8",
                 "--cols", "0:33", "--out", str(path)]
        assert cli(build) == (0, "", "")
        code, out, err = cli(["check", kind.name, "--matrix", str(path)])
        assert (code, out.splitlines()[1], err) == (0, "PASS max_residual=0.0", "")
        # the last entry whose degree the windows hold twice
        i, j = np.indices((9, 34))
        degrees = kind.degree(i, j).ravel()
        count = collections.Counter(degrees.tolist())
        p = max(p for p, d in enumerate(degrees.tolist()) if count[d] > 1)
        path.write_text(dump_matrix(perturbed(load_matrix(path.read_text()), *divmod(p, 34))))
        code, out, err = cli(["check", kind.name, "--matrix", str(path)])
        assert (code, err) == (1, "") and out.splitlines()[1].startswith("FAIL max_residual=1.0")

    def test_slant_h_toeplitz_check_is_slant_h(self):
        path = str(DATA / "perturbed_oracle.mat")
        result = cli(["check", "slant-h-toeplitz", "--matrix", path])
        assert result == cli(["check", "slant-h", "--matrix", path]) and result[0] == 1

    def test_non_finite_matrix_file_exit_code(self, tmp_path, section_file):
        bad_path = tmp_path / "nan.mat"
        bad_path.write_text(section_file.read_text().replace("3.0:0.0", "nan:0.0", 1))
        assert run_cli("check", "slant-h", "--matrix", str(bad_path)).returncode == 2

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.0:0.0 1:2:3", "data line 1: entry 2: malformed matrix entry '1:2:3'"),
            ("0.0:0.0 1.0", "data line 1: entry 2: malformed matrix entry '1.0'"),
            ("0.0:0.0 :", "data line 1: entry 2: malformed matrix entry ':'"),
            ("a:b 0.0:0.0", "data line 1: entry 1: malformed matrix entry 'a:b'"),
            ("0.0:0.0", "data line 1: expected 2 entries, found 1"),
            ("0.0:0.0 0.0:0.0\n0.0:0.0 0.0:0.0", "expected 1 data lines, found 2"),
            ("nan:0 0.0:0.0", "data line 1: entry 1 is not finite"),
            # colon counts that cancel out across the line
            ("1:2:3 4", "data line 1: entry 1: malformed matrix entry '1:2:3'"),
            ("1 2:3:4", "data line 1: entry 1: malformed matrix entry '1'"),
            # a cell split by whitespace, whose colon tokens would line up
            ("1.0 :2.0 3:4", "data line 1: expected 2 entries, found 3"),
            ("cols 0 0\n1.0 : 2.0", "data line 1: expected 1 entries, found 3"),
        ],
    )
    def test_malformed_matrix_file_messages(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.mat"
        cols = "" if body.startswith("cols ") else "cols 0 1\n"  # a body may bring its own column window
        path.write_text(f"#fmt 1\nrows 0 0\n{cols}{body}\n")
        for command in (["check", "slant-h"], ["extract"]):
            assert main([*command, "--matrix", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_characterization_predicate(self, tmp_path):
        path = tmp_path / "wide.mat"
        assert run_cli(
            "build",
            "--family", "slant-h-toeplitz",
            "--symbol", f"phi={GENERIC_INLINE}",
            "--rows", "0:9",
            "--cols", "0:39",
            "--out", str(path),
        ).returncode == 0
        # each identity reads every instance the columns 0..39 hold: (a) up to j = (39-4)//2 = 17
        result = run_cli("check", "characterization", "--matrix", str(path))
        assert result.returncode == 0

    def test_characterization_reads_every_instance(self, section_file, capsys):
        # entry (5,20) of the 9 x 34 section, 3.0:0.0 -> 4.0:0.0, as `awk 'NR==9{$21="4.0:0.0"}1'` writes it: its
        # degree 0 is held 9 times, and (a), which read only columns up to 2*((33-7)//4)+4 = 16, passed it (exit 0)
        lines = section_file.read_text().splitlines(keepends=True)
        cells = lines[8].split()
        assert cells[20] == "3.0:0.0"
        cells[20] = "4.0:0.0"
        lines[8] = " ".join(cells) + "\n"
        section_file.write_text("".join(lines))
        for predicate in ("slant-h", "characterization"):
            assert main(["check", predicate, "--matrix", str(section_file)]) == 1
        assert "A.Cz2=U*.A.Cz2.U2 (5,10) lhs=4.0:0.0 rhs=3.0:0.0\n" in capsys.readouterr().out

    def test_identity_domain_is_not_an_option(self, section_file):
        result = run_cli("check", "characterization", "--matrix", str(section_file), "--cols", "0:8")
        assert result.returncode == 2 and "unrecognized arguments: --cols" in result.stderr

    def test_expression_input(self):
        result = run_cli(
            "check", "slant-toeplitz",
            "--expr", "B(phi)",
            "--symbol", f"phi={GENERIC_INLINE}",
            "--window", "0:16",
        )
        assert result.returncode == 0

    def test_parse_error_exit_code(self):
        result = run_cli(
            "check", "slant-h",
            "--expr", "Bogus(phi",
            "--symbol", f"phi={GENERIC_INLINE}",
            "--window", "0:8",
        )
        assert result.returncode == 2

    def test_empty_section_passes_vacuously(self, capsys):
        # the zero symbol's V has no rows; slant-h exited 3 on empty windows where the step checks passed
        assert main(["check", "slant-h", "--expr", "V(phi)", "--symbol", "phi=0:0", "--window", "0:5"]) == 0
        assert capsys.readouterr().out == "#fmt 1\nPASS max_residual=0.0 vacuous=1\n"

    def test_columns_past_0_are_checked(self, tmp_path, capsys):
        # slant-h exited 3 on columns not starting at 0, and extract too: it reads the degrees -16..33 held there
        path = tmp_path / "cols.mat"
        assert main(["build", "--family", "slant-h-toeplitz", "--symbol", f"phi={GENERIC_INLINE}",
                     "--rows", "0:8", "--cols", "3:33", "--out", str(path)]) == 0
        assert main(["check", "slant-h", "--matrix", str(path)]) == 0
        capsys.readouterr()
        assert main(["extract", "--matrix", str(path)]) == 0
        assert load_symbol_file(capsys.readouterr().out) == parse_symbol(GENERIC_INLINE)
        path.write_text(dump_matrix(perturbed(load_matrix(path.read_text()), 1, 3)))
        assert main(["check", "slant-h", "--matrix", str(path)]) == 1

    @pytest.mark.parametrize("predicate", ["slant-h", "slant-toeplitz", "slant-hankel"])
    def test_degrees_past_int64_are_window_errors(self, tmp_path, capsys, predicate):
        # rows from 2**62 give degrees near 2**63, past int64, which each check once read and exited 0 or 1
        path = tmp_path / "far.mat"
        path.write_text(f"#fmt 1\nrows {2**62} {2**62 + 1}\ncols 0 2\n" + "0.0:0.0 0.0:0.0 1.0:0.0\n" * 2)
        assert main(["check", predicate, "--matrix", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("window error: ") and captured.err.count("\n") == 1

    def test_insufficient_window_exit_code(self, tmp_path, capsys):
        # the characterization needs columns 0..C with C >= 7, as (b) reads column 7
        path = tmp_path / "narrow.mat"
        assert main(["build", "--family", "slant-h-toeplitz", "--symbol", f"phi={GENERIC_INLINE}",
                     "--rows", "0:8", "--cols", "0:5", "--out", str(path)]) == 0
        assert main(["check", "characterization", "--matrix", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("window error: ") and captured.err.count("\n") == 1


class TestExtract:
    def test_roundtrip(self, tmp_path, section_file):
        out = tmp_path / "phi.sym"
        result = run_cli("extract", "--matrix", str(section_file), "--out", str(out))
        assert result.returncode == 0
        assert load_symbol_file(out.read_text()) == parse_symbol(GENERIC_INLINE)

    def test_rejects_non_slant_h_input(self, tmp_path, section_file):
        matrix = load_matrix(section_file.read_text())
        bad_path = tmp_path / "bad.mat"
        bad_path.write_text(dump_matrix(perturbed(matrix, 0, 0)))
        result = run_cli("extract", "--matrix", str(bad_path))
        assert result.returncode == 1

    def test_usage_error_exit_code(self, section_file):
        assert run_cli("extract", "--matrix", str(section_file), "--symbol", "phi=0:1").returncode == 2


class TestNorm:
    def test_monomial(self):
        result = run_cli("norm", "--symbol", "phi=3:1", "--rows", "0:16", "--cols", "0:65")
        assert result.returncode == 0
        assert "# section_norm=" in result.stdout
        assert "PASS" in result.stdout

    def test_huge_coefficients(self):
        # squares of these entries overflow unless the section is scaled first
        result = run_cli("norm", "--symbol", "phi=0:1e200, 3:1e200", "--rows", "0:8", "--cols", "0:33")
        assert result.returncode == 0
        section = float(result.stdout.splitlines()[1].removeprefix("# section_norm="))
        assert abs(section - 2**0.5 * 1e200) <= 1e-12 * section
        assert result.stderr == ""

    def test_overflowing_sup_norm(self):
        # |phi| reaches 2e308 on the grid, past the largest float; the section norm does not
        result = run_cli("norm", "--symbol", "phi=0:1e308, 1:1e308", "--rows", "0:8", "--cols", "0:33")
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == "# section_norm=1.4142135623730951e+308"
        assert result.stderr == ""

    def test_norm_past_float_range(self):
        # the section norm exceeds the largest float: inf, and the margin inf - inf is NaN, so it fails
        result = run_cli("norm", "--symbol", "phi=0:1.5e308+1.5e308i, 1:1e308", "--rows", "0:8", "--cols", "0:33")
        assert result.returncode == 1
        assert result.stdout.splitlines()[1] == "# section_norm=inf"
        assert result.stdout.splitlines()[3].startswith("FAIL max_residual=nan ")
        assert result.stderr == ""

    def test_render_shape(self):
        result = run_cli("norm", "--symbol", "phi=3:1", "--rows", "0:8", "--cols", "0:33")
        assert result.returncode == 0
        assert result.stdout.splitlines()[3].startswith("PASS max_residual=")

    def test_pinned_output(self):
        result = run_cli("norm", "--symbol", f"phi={GENERIC_INLINE}")
        assert result.returncode == 0
        assert result.stdout == (DATA / "norm_generic.txt").read_text()

    @pytest.mark.parametrize("grid", [HUGE, str(2**20 + 1), "0"])
    def test_grid_out_of_range_is_a_usage_error(self, capsys, grid):
        # only sizes refused before any grid is allocated
        assert main(["norm", "--symbol", "phi=0:1", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid size {grid} is not between 1 and 1048576\n"

    def test_negative_tol_fails(self):
        result = run_cli("norm", "--symbol", f"phi={GENERIC_INLINE}", "--tol", "-5")
        assert result.returncode == 1
        pinned = (DATA / "norm_generic.txt").read_text().splitlines()
        want = pinned[3].replace("PASS ", "FAIL ", 1).replace("tol=1e-09", "tol=-5.0")
        assert result.stdout.splitlines() == [*pinned[:3], want]


def _returning(value):
    """A patch that replaces a function with one returning `value`."""
    return lambda _: lambda *args, **kwargs: value


def _shifting(selects, i, j):
    """A patch of a builder that adds 1.0 at (i, j) to each section of a kind `selects` accepts."""
    def patch(build):
        def shifted(kind, phi, rows, cols):
            section = build(kind, phi, rows, cols)
            return perturbed(section, i, j) if selects(kind) else section
        return shifted
    return patch


def _altering(text, alter):
    """A patch of eval_expr that passes the section of the expression `text` through `alter`."""
    node = parse_expr(text)
    def patch(evaluate):
        def altered(expr, window, symbols):
            section = evaluate(expr, window, symbols)
            return alter(section) if expr == node else section
        return altered
    return patch


def _shifted_at(i, j):
    """Adds 1.0 at (i, j) to a section whose rows hold i."""
    return lambda m: perturbed(m, i, j) if i in m.rows else m


def _zeroed(m):
    """The section with every entry 0."""
    return WindowedMatrix(m.rows, m.cols, 0 * m.data)


class TestVerify:
    def test_single_suite(self):
        result = run_cli("verify", "golden")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS golden")

    def test_unknown_suite(self):
        assert run_cli("verify", "bogus").returncode == 2

    @pytest.mark.parametrize("names", [["bogus"], ["golden", "bogus"]])
    def test_all_with_an_unknown_name_is_the_usage_error(self, names):
        # --all dropped the names it was given: it ran the ten suites and exited 0; no suite runs now
        known = ", ".join(name for name, _ in verify.CHECKS)
        assert cli(["verify", "--all", *names]) == (2, "", f"error: unknown check 'bogus'; known: {known}\n")

    def test_all(self):
        result = run_cli("verify", "--all")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 10
        assert all(line.startswith("PASS ") for line in lines)
        assert result.stdout == (DATA / "verify_all.txt").read_text()

    def test_exit_code_tracks_failures(self, monkeypatch):
        # the exit code is 0 iff every selected suite passes
        import io

        from slanth import verify as verify_mod

        broken = list(verify_mod.CHECKS)
        broken[1] = ("golden", lambda: (False, "forced"))
        monkeypatch.setattr(verify_mod, "CHECKS", broken)
        out = io.StringIO()
        assert verify_mod.run(out=out) == 1
        assert "FAIL golden forced" in out.getvalue()

    def test_output_is_deterministic(self):
        first = run_cli("verify", "golden", "roundtrip")
        second = run_cli("verify", "golden", "roundtrip")
        assert first.stdout == second.stdout and first.returncode == second.returncode == 0

    @pytest.mark.parametrize(
        "suite, name, patch, message",
        [
            ("golden", "build_family", _shifting(lambda kind: kind.depth == 1, 2, 3), "mismatch at kind=extension (2,3)"),
            ("roundtrip", "extract_symbol", _returning(LaurentSymbol({})),
             "roundtrip failed for LaurentSymbol({0: (1+0j)})"),
            ("predicates", "check_characterization", _returning(CheckReport(False, 1.0, ())),
             "clean section rejected for LaurentSymbol({})"),
            ("predicates", "perturbed", lambda _: lambda m, i, j: m, "pattern check missed perturbation at (0, 0)"),
            ("predicates", "check_characterization", _returning(CheckReport(True, 0.0, ())),
             "identity check missed perturbation at (0, 0)"),
            # the zero symbol's differences hold no rows, so the first symbol shifted is 1
            ("interleaving", "eval_expr", _altering("V(phi) . W* - B(phi)", _shifted_at(2, 4)),
             "even column 8 mismatch for LaurentSymbol({0: (1+0j)})"),
            ("interleaving", "eval_expr", _altering("V(phi) . U . W* - L(phi)", _shifted_at(3, 5)),
             "odd column 11 mismatch for LaurentSymbol({0: (1+0j)})"),
            ("coisometry", "coefficient_l2", _returning(1.5), "residual 0.5 for 1"),
            ("negatives", "eval_expr", _altering("V*(phi) . V(phi) - V(phi) . V*(phi)", _zeroed),
             "no hyponormality violation for 1"),
            ("negatives", "eval_expr", _altering("V(phi) - V*(phi)", _zeroed), "no self-adjointness violation for 1"),
            ("negatives", "check_slant_h_matrix", _returning(CheckReport(True, 0.0, ())),
             "slant-toeplitz section passed the slant-h pattern for 1"),
            ("negatives", "frobenius_of_section", _returning(2.0), "frobenius growth stalled for 1: [2.0, 2.0, 2.0]"),
            ("negatives", "column_norm_floor", _returning(0.0), "column norms decayed for 1"),
            ("perp", "build_family", _shifting(lambda kind: kind.name == "slant-hankel", 0, 0),
             "z^-1 failed check_slant_h_matrix"),
            ("norm-bound", "norm_bound_check", _returning((1.5, 1.0)), "norm bound violated for 0: 0.5"),
            ("extension", "check_extension_conditions", _returning(CheckReport(False, 1.0, ())),
             "identities failed at depth 0"),
            ("extension", "build_family", _shifting(lambda kind: kind.depth == 3, 1, 2), "depth-dependent entry at (1,2)"),
        ],
    )
    def test_fail_lines(self, monkeypatch, suite, name, patch, message):
        # each suite, with one name it reads broken so that its claim fails, reports its first failure
        monkeypatch.setattr(verify, name, patch(getattr(verify, name)))
        assert dict(verify.CHECKS)[suite]() == (False, message)

    @pytest.mark.parametrize("rows, i, j", [(IndexWindow(0, 2), -1, 0), (IndexWindow(5, 7), 4, 2),
                                            (IndexWindow(0, 2), 3, 0), (IndexWindow(0, 2), 0, 3)])
    def test_perturbed_refuses_an_entry_outside_the_windows(self, rows, i, j):
        # below the rows the index wrapped round to row 2, or 7; above them numpy raised a bare IndexError
        m = WindowedMatrix(rows, IndexWindow(0, 2), np.zeros((3, 3)))
        with pytest.raises(WindowError) as refused:
            perturbed(m, i, j)
        assert str(refused.value) == f"entry ({i}, {j}) outside windows {rows} x 0:2"


# Every command as a real process, whose exit skips the interpreter's finalization
SAME_AS_IN_PROCESS = [
    ["build", "--family", "slant-h-toeplitz", "--symbol", f"phi={GENERIC_INLINE}", "--rows", "0:8", "--cols", "0:33"],
    ["build", "--expr", "W . P . M(phi) . K", "--symbol", f"phi={GENERIC_INLINE}", "--window", "0:33"],
    ["check", "slant-h", "--matrix", str(DATA / "build_oracle.mat")],
    ["check", "slant-h", "--matrix", str(DATA / "perturbed_oracle.mat")],
    ["extract", "--matrix", str(DATA / "build_oracle.mat")],
    ["norm", "--symbol", f"phi={GENERIC_INLINE}"],
    ["verify", "golden"],
    ["build", "--expr", "P", "--window", f"0:{HUGE}"],
    ["verify", "golden", "bogus"],  # a line on stdout, then a usage error
]


class TestExit:
    @pytest.mark.parametrize("argv", SAME_AS_IN_PROCESS)
    def test_process_prints_what_main_prints(self, capsys, argv):
        # stdout block-buffered, as it is without PYTHONUNBUFFERED: what is left in the buffer must be written
        result = run_cli(*argv, env={name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"})
        code = main(argv)
        captured = capsys.readouterr()
        assert (result.stdout, result.stderr, result.returncode) == (captured.out, captured.err, code)

    def test_profiler_still_reports(self):
        # with a profiler attached the process takes the normal exit, whose hooks print the stats
        result = subprocess.run([sys.executable, "-m", "cProfile", "-m", "slanth", "verify", "golden"],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("PASS golden ")
        assert " function calls " in result.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--all"],
            ["check", "slant-h", "--matrix", str(DATA / "build_oracle.mat")],
            ["build", "--family", "toeplitz", "--symbol", "phi=0:1", "--rows", "0:2", "--cols", "0:2"],
        ],
    )
    def test_closed_stdout_is_an_output_error(self, capsys, tmp_path, argv):
        # with file descriptor 1 closed sys.stdout is None: this raised AttributeError, a traceback and exit 1
        result = run_cli(*argv, preexec_fn=lambda: os.close(1))
        assert (result.returncode, result.stderr) == (2, "error: stdout is closed\n")
        if argv[0] != "verify":  # verify has no --out
            out = tmp_path / "out.txt"
            result = run_cli(*argv, "--out", str(out), preexec_fn=lambda: os.close(1))
            assert (result.returncode, result.stderr) == (0, "")
            assert main(argv) == 0
            assert out.read_text() == capsys.readouterr().out

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout_is_an_output_error(self, unbuffered):
        # buffered, the write failed only at finalization's flush: exit 120 and two "Exception ignored" lines
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "slanth", "verify", "golden"], stdout=full,
                                    stderr=subprocess.PIPE, text=True, env=env)
        assert (result.returncode, result.stderr) == (2, "error: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "start, code, err",
        [
            # a tracer takes the normal exit, whose finalization flushed the failed bytes again: exit 120 and two lines
            ("sys.settrace(lambda *event: None)", 2, "error: [Errno 28] No space left on device\n"),
            # a window error after some output: the failed flush of that output replaced it with exit 2
            ("cli._cmd_build = partial_then_window_error", 3, "window error: too wide\n"),
        ],
        ids=["tracer", "window-error"],
    )
    def test_failed_flush_leaves_one_line_and_the_first_code(self, start, code, err):
        script = (
            "import sys\nfrom slanth import cli\nfrom slanth.windowed import WindowError\n"
            "def partial_then_window_error(args):\n    sys.stdout.write('partial\\n')\n    raise WindowError('too wide')\n"
            f"{start}\ncli.run()\n"
        )
        argv = ["build", "--family", "toeplitz", "--symbol", "phi=0:1", "--rows", "0:2", "--cols", "0:2"]
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-c", script, *argv], stdout=full, stderr=subprocess.PIPE,
                                    text=True, env=env)
        assert (result.returncode, result.stderr) == (code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--expr", f"S({HUGE})", "--window", "0:3"],
        ["build", "--expr", f"Mz({HUGE})", "--window", "0:3"],
        ["build", "--expr", f"Cz({HUGE})", "--window", "0:3"],
        ["build", "--family", "toeplitz", "--symbol", f"phi={HUGE}:1", "--rows", "0:3", "--cols", "0:3"],
        ["check", "slant-h", "--expr", "V(phi)", "--symbol", f"phi={HUGE}:1", "--window", "0:3"],
        ["norm", "--symbol", f"phi={HUGE}:1"],
    ],
)
def test_integer_past_int64_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--expr", "A(-1,phi)", "--symbol", "phi=0:1", "--window", "0:3"],
        ["build", "--family", "extension", "--m", "-1", "--symbol", "phi=0:1", "--rows", "0:3", "--cols", "0:3"],
        ["check", "extension", "--m", "-1", "--matrix", str(DATA / "build_extension.mat")],
    ],
)
def test_negative_extension_depth_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: extension depth must be >= 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # each once read the first of the two and left the other unread, exit 0
        (["build", "--family", "toeplitz", "--expr", "P", "--symbol", "phi=0:1", "--rows", "0:3", "--cols", "0:3",
          "--window", "0:3"], "argument --expr: not allowed with argument --family"),
        (["check", "slant-h", "--matrix", str(DATA / "build_oracle.mat"), "--expr", "P", "--window", "0:3"],
         "argument --expr: not allowed with argument --matrix"),
    ],
)
def test_two_inputs_are_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: slanth ") and captured.err.endswith(f": error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--symbol", "phi=0:1"], "error: supply --family NAME or --expr TEXT\n"),
        (["check", "slant-h"], "error: supply --matrix FILE or --expr TEXT\n"),
        (["build", "--family", "toeplitz", "--symbol", "phi=0:1", "--rows", "3", "--cols", "0:3"],
         "error: window '3' must be lo:hi\n"),
        (["build", "--expr", "W"], "error: --expr requires --window lo:hi\n"),
        (["check", "slant-h", "--expr", "V(phi)", "--symbol", "phi=0:1"], "error: --expr requires --window lo:hi\n"),
    ],
)
def test_no_input_is_an_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize(
    "symbols, line, message",
    [
        (["0:1"], "", "--symbol expects name=<file|inline>, got '0:1'"),
        (["phi=0:1", "psi=0:1"], "", "--family requires exactly one --symbol"),
        (["phi=1:2,,3:4"], "", "empty term in symbol text"),
        (["phi={file}"], "x 1 0", "line 2: degree 'x' is not an integer"),
        (["phi={file}"], "0 a 0", "line 2: malformed coefficient"),
    ],
)
def test_malformed_symbol_is_a_usage_error(capsys, tmp_path, symbols, line, message):
    path = tmp_path / "phi.sym"
    path.write_text(f"#fmt 1\n{line}\n")  # a symbol file whose line 2 is `line`
    argv = ["build", "--family", "toeplitz", "--rows", "0:3", "--cols", "0:3"]
    for symbol in symbols:
        argv += ["--symbol", symbol.format(file=path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--family", "toeplitz", "--symbol", "phi=0:1", "--rows", "0:3", "--cols", f"0:{HUGE}"],
        ["build", "--family", "toeplitz", "--symbol", "phi=0:1", "--rows", f"0:{HUGE}", "--cols", "0:3"],
        ["build", "--expr", "P", "--window", f"0:{HUGE}"],
        ["check", "slant-h", "--expr", "V(phi)", "--symbol", "phi=0:1", "--window", f"0:{HUGE}"],
        # bounds past int64, and 2**63 - 1 indices, for which numpy's arange is empty
        ["build", "--expr", "P", "--window", f"{HUGE}:{HUGE}"],
        ["build", "--family", "toeplitz", "--symbol", "phi=0:1", "--rows", "0:3", "--cols", f"0:{2**63 - 2}"],
        # indices that int64 arithmetic would wrap: each printed a wrong section and exited 0
        ["build", "--expr", "M(phi)", "--window", f"{2**62}:{2**62 + 1}", "--symbol", f"phi={2**62}:1"],
        ["build", "--expr", f"S({2**62})", "--window", f"{2**62}:{2**62 + 1}"],
        ["build", "--expr", "Cz(4)", "--window", f"{2**62}:{2**62 + 1}"],
        ["build", "--family", "slant-toeplitz", "--rows", f"{2**62}:{2**62}", "--cols", "0:1", "--symbol",
         f"phi={-(2**63)}:1"],
        # symbols too wide for the oracle's section, which the closed form builds on small windows
        # (test_sparse_symbol_builds_on_a_small_window), and norm's sections past int64
        ["build", "--expr", "T(phi)", "--window", "0:2", "--symbol", f"phi=0:1, {2**59}:1"],
        ["norm", "--rows", f"{2**62}:{2**62}", "--cols", "0:2", "--symbol", f"phi=0:1, {2**59}:1"],
        ["build", "--expr", "T(phi)", "--window", "0:2", "--symbol", f"phi={-(2**62)}:1, {2**62}:1"],
        ["norm", "--rows", "0:2", "--cols", f"0:{2**63 - 2}", "--symbol", f"phi={-(2**62)}:1, {2**62}:1"],
        ["check", "slant-h", "--expr", "V(phi)", "--window", "0:2", "--symbol", f"phi={-(2**62)}:1, {2**62}:1"],
        # a section of 2**63 + 1 rows: exited 2 with numpy's words
        ["build", "--expr", "M(phi)", "--window", "0:0", "--symbol", f"phi={-(2**62)}:1, {2**62}:1"],
        # the difference embeds both sides in the hull of their rows, 2**62 + 1 of them: exited 2 with numpy's words
        ["build", "--expr", "M(phi) - M(psi)", "--window", "0:0", "--symbol", "phi=0:1", "--symbol", f"psi={2**62}:1"],
    ],
)
def test_window_past_numpy_size_limit_is_a_window_error(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("window error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("far", [2**40, 2**59])
def test_sparse_symbol_builds_on_a_small_window(capsys, far):
    # the gather looks the window's degrees up among the symbol's, with no table over its support: this exited 3
    assert main(["build", "--family", "toeplitz", "--rows", "0:2", "--cols", "0:2", "--symbol", f"phi=0:1, {far}:1"]) == 0
    captured = capsys.readouterr()
    assert np.array_equal(load_matrix(captured.out).data, np.eye(3)) and captured.err == ""
    assert main(["norm", "--rows", "0:2", "--cols", "0:2", "--symbol", f"phi={-far}:1, 0:1, {far}:1"]) == 0
    captured = capsys.readouterr()
    # z**far on the grid is z**(far mod grid) = 1: the sup norm is 3, not a power drifted off the circle
    assert captured.out.splitlines()[1:3] == ["# section_norm=1.0", "# sup_norm=3.0"] and captured.err == ""


def test_deep_nesting_is_a_usage_error(capsys):
    assert main(["build", "--expr", "(" * 1000 + "P" + ")" * 1000, "--window", "0:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: col 201: parentheses nested deeper than 200\n"


def test_cli_import_leaves_scipy_out():
    code = "import sys, slanth.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_package_reexports_each_module_all():
    modules = [slanth.analysis, slanth.expr, slanth.families, slanth.structure, slanth.symbol, slanth.windowed]
    assert slanth.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(slanth, name) is getattr(module, name), name
    own = {name for name, value in vars(slanth.cli).items() if getattr(value, "__module__", None) == "slanth.cli"}
    assert {"main", "run"} <= own
    assert not set(slanth.__all__) & (set(verify.__all__) | own)


@pytest.mark.parametrize("atoms", [500, 5000])
def test_long_chains_evaluate(capsys, atoms):
    # one loop per chain or difference, so no length reaches the recursion limit
    assert main(["build", "--expr", "P", "--window", "0:9"]) == 0
    single = capsys.readouterr().out
    assert main(["build", "--expr", " . ".join(["P"] * atoms), "--window", "0:9"]) == 0
    captured = capsys.readouterr()
    assert captured.out == single and captured.err == ""
    # P - P - ... - P is ((P - P) - P) ... = -(n - 2) P
    assert main(["build", "--expr", " - ".join(["P"] * atoms), "--window", "0:9"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    section = load_matrix(captured.out)
    assert section.rows == section.cols == IndexWindow(0, 9)
    assert np.array_equal(section.data, -(atoms - 2) * np.eye(10))


# The CLI grammar, for the property that no input yields a traceback. An
# integer is small or at least 2**40 in size; a window holds at most 256
# indices or at least 2**40. Sizes in between would be allocated for real, and
# a few of them exhaust the machine; past 2**40 the allocation fails before
# any memory is touched. Degrees, powers and depths go past int64.


def mostly(common, rare):
    """`common` seven times in eight, else `rare`."""
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else common)


SMALL = st.integers(-8, 8)
FAR = st.sampled_from([2**40, 2**62, 2**63 - 1, 2**63, 10**20]).flatmap(lambda n: st.sampled_from([n, -n]))
ints = mostly(SMALL, FAR)
window_texts = mostly(
    st.builds(lambda lo, size: f"{lo}:{lo + size}", st.integers(-4, 40), st.integers(0, 64)),
    st.one_of(
        st.builds(lambda lo, size: f"{lo}:{lo + size}", st.one_of(st.integers(-300, 300), FAR), st.integers(-2, 255)),
        st.builds(lambda lo, size: f"{lo}:{lo + size}", SMALL, st.sampled_from([2**40, 2**62, 2**63, 10**20])),
        st.sampled_from(["3", "a:b", ":", "1:2:3", "", "0x1:4", " 0 : 3 "]),
    ),
)
coefficients = mostly(
    st.sampled_from(["1", "-2.5", "3+4i", "-i", "0", "7"]),
    st.sampled_from(["1e308", "5e-324", "nan", "inf", "1e400", "2+", "x", ""]),
)
symbol_texts = mostly(
    st.lists(st.tuples(ints, coefficients), min_size=1, max_size=4, unique_by=lambda term: term[0]).map(
        lambda terms: ", ".join(f"{n}:{c}" for n, c in terms)
    ),
    st.text(min_size=1, max_size=12),
)
# an atom that keeps a window's size within its symbol's span, and one that
# multiplies it; an expression holds at most one of the latter
TAME = ["P", "W", "U*", "U", "K", "J", "S(1)", "Mz(-1)", "M(phi)", "T(phi)", "H(phi)", "B(phi)", "L(phi)",
        "Sh(phi)", "V(phi)", "A(1,phi)", "2.5 V(phi)", "1e308 P", "0 W"]
GROWING = ["K*", "W*", "V*(phi)", "Cz(2)", "Cz(8)"]
tame_atoms = mostly(
    st.sampled_from(TAME),
    st.one_of(
        st.sampled_from(["V(psi)", "Q", "W(2)", "1e400 W", "Cz(0)", "A(-1,phi)"]),
        st.builds(lambda name, n: f"{name}({n})", st.sampled_from(["S", "Mz", "Cz", "A"]), FAR),
    ),
)


@st.composite
def expressions(draw):
    length = {8: 500, 9: 5000}.get(draw(st.integers(0, 9)))
    if length:  # few long chains, of atoms that cost little
        atom = draw(st.sampled_from(["P", "U*", "W", "S(1)"]))
        text = draw(st.sampled_from([" . ", " - "])).join([atom] * length)
    else:
        atoms = draw(st.lists(tame_atoms, min_size=1, max_size=6))
        if draw(st.booleans()):
            atoms.insert(draw(st.integers(0, len(atoms))), draw(st.sampled_from(GROWING)))
        text = atoms[0]
        for atom in atoms[1:]:
            if draw(st.integers(0, 4)) == 0:
                text = f"({text})"
            text += draw(mostly(st.sampled_from([" . ", " - "]), st.sampled_from([".", "-", " "]))) + atom
    depth = draw(mostly(st.just(0), st.sampled_from([1, 3, 199, 200, 201, 250])))
    text = "(" * depth + text + ")" * depth
    if draw(st.integers(0, 9)) == 0:  # a character dropped or put in
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["", "(", ")", ",", "@", "\u00e9", "\x00"])) + text[at + 1 :]
    return text


matrix_cells = st.sampled_from(["0.0:0.0", "1.0:-2.0", "0.0:-0.0", "nan:0", "inf:1", "1e999:0", "1:2:3", "x", ":",
                                "1.0", "\uff11:2", "5e-324:0"])


@st.composite
def matrix_texts(draw):
    """A dumped slant-h section, as it is, with a cell, line or header changed, or free text."""
    rows = IndexWindow(0, draw(st.integers(-1, 8)))
    cols = IndexWindow(0, draw(st.integers(-1, 40)))
    lines = dump_matrix(build_family(SLANT_H_TOEPLITZ, parse_symbol(GENERIC_INLINE), rows, cols)).splitlines()
    change = draw(mostly(st.just("none"), st.sampled_from(["cell", "line", "header", "text"])))
    if change == "cell" and len(lines) > 3:
        r = draw(st.integers(3, len(lines) - 1))
        cells = lines[r].split()
        if cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(matrix_cells)
        lines[r] = draw(st.sampled_from([" ", "\t", "  "])).join(cells)
    elif change == "line":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif change == "header":
        tag = draw(st.sampled_from(["rows", "cols", "x"]))
        lines[draw(st.integers(1, 2))] = f"{tag} " + " ".join(draw(window_texts).split(":"))
    elif change == "text":
        return draw(st.text(max_size=40))
    return "\n".join(lines) + "\n"


@st.composite
def argvs(draw, tmp):
    """argv drawn from every command and predicate, with the files it names written under tmp."""

    def symbol_args():
        args = []
        names = draw(mostly(st.just(["phi"]), st.sampled_from([[], ["phi", "psi"], ["phi", "phi"], [""], ["psi"]])))
        for name in names:
            value = draw(mostly(symbol_texts, st.sampled_from(["FILE", str(tmp)])))
            if value == "FILE":
                value = str(tmp / "phi.sym")
                body = draw(st.one_of(st.just("#fmt 1\n-1 2.0 0.0\n0 3.0 0.0\n"), st.text(max_size=30)))
                (tmp / "phi.sym").write_text(body, encoding="utf-8", errors="surrogatepass")
            args += ["--symbol", f"{name}={value}"]
        return args

    def matrix_path():
        path = tmp / "section.mat"
        path.write_text(draw(matrix_texts()), encoding="utf-8", errors="surrogatepass")
        return draw(mostly(st.just(str(path)), st.sampled_from([str(tmp / "missing.mat"), str(tmp)])))

    def often(option, value):  # nine times in ten; the = form, as a value may start with -
        return [f"{option}={value}"] if draw(st.integers(0, 9)) else []

    def maybe(option, value):
        return [f"{option}={value}"] if draw(st.booleans()) else []

    command = draw(mostly(st.sampled_from(["build-family", "build-expr", "check", "check", "extract", "norm"]),
                          st.sampled_from(["verify", "junk"])))
    if command == "build-family":
        family = draw(mostly(st.sampled_from(["toeplitz", "hankel", "slant-toeplitz", "slant-hankel", "h-toeplitz",
                                              "slant-h-toeplitz", "slant-h-adjoint", "extension"]), st.just("bogus")))
        argv = ["build", "--family", family, *symbol_args(), *often("--rows", draw(window_texts)),
                *often("--cols", draw(window_texts)), *maybe("--m", str(draw(ints)))]
    elif command == "build-expr":
        argv = ["build", "--expr", draw(expressions()), *often("--window", draw(window_texts)), *symbol_args()]
    elif command == "check":
        predicate = draw(mostly(st.sampled_from(["slant-h", *(kind.name for kind in COMPOSITIONAL_KINDS),
                                                 "characterization", "extension"]), st.just("bogus")))
        source = (["--matrix", matrix_path()] if draw(st.booleans())
                  else ["--expr", draw(expressions()), *often("--window", draw(window_texts))])
        argv = ["check", predicate, *source, *symbol_args(), *maybe("--m", str(draw(ints))),
                *maybe("--tol", draw(st.sampled_from(["0", "-1", "nan", "inf", "x"])))]
    elif command == "extract":
        argv = ["extract", "--matrix", matrix_path(), *maybe("--tol", "0")]
    elif command == "norm":
        argv = ["norm", *symbol_args(), *maybe("--rows", draw(window_texts)), *maybe("--cols", draw(window_texts)),
                *maybe("--grid", str(draw(ints)))]
    elif command == "verify":
        names = ["oracle", "golden", "roundtrip", "predicates", "interleaving", "coisometry", "negatives", "perp",
                 "norm-bound", "extension", "bogus", "--all"]
        argv = ["verify", *draw(st.lists(st.sampled_from(names), max_size=2))]
    else:
        words = ["build", "check", "--rows", "0:3", "--bogus", "--help", "-x", "", "\u00e9"]
        argv = draw(st.lists(st.sampled_from(words), max_size=4))
    return argv + draw(mostly(st.just([]), st.sampled_from([["--out", str(tmp / "out.txt")], ["--out", str(tmp)]])))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_no_input_yields_a_traceback(data):
    with tempfile.TemporaryDirectory() as name:
        argv = data.draw(argvs(Path(name)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors, and --help
                code = exc.code
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, stderr)
    assert "Traceback" not in stderr, argv
    if code in (2, 3):
        lines = stderr.splitlines(keepends=True) or [""]
        argparse_error = lines[0].startswith("usage: ") and ": error: " in lines[-1]
        assert len(lines) == 1 and lines[0].endswith("\n") or argparse_error, (argv, stderr)


def cli(argv):
    """(exit code, stdout, stderr) of main(argv), in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def loader_error(text):
    """The stderr line of a file that load_matrix rejects."""
    with pytest.raises(ValueError) as error:
        load_matrix(text)
    return f"error: {error.value}\n"


class TestFileBytes:
    """Matrix files are read as bytes; CRLF files and files that are not UTF-8 read as they did as text."""

    @pytest.mark.parametrize("argv", [["check", "slant-h"], ["check", "characterization"], ["extract"]])
    def test_invalid_utf8_is_the_decode_error(self, tmp_path, argv):
        data = (DATA / "build_oracle.mat").read_bytes()
        at = data.index(b"0.0:0.0") + 4
        path = tmp_path / "bad.mat"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        message = f"error: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
        assert cli([*argv, "--matrix", str(path)]) == (2, "", message)

    def test_crlf_check_matches_the_pinned_report(self, tmp_path):
        path = tmp_path / "crlf.mat"
        path.write_bytes((DATA / "perturbed_oracle.mat").read_bytes().replace(b"\n", b"\r\n"))
        assert cli(["check", "slant-h", "--matrix", str(path)]) == (1, (DATA / "check_perturbed.txt").read_text(), "")

    @pytest.mark.parametrize("argv", [["check", "slant-h"], ["check", "characterization"], ["extract"]])
    def test_crlf_reads_as_lf(self, tmp_path, argv):
        lf, crlf = tmp_path / "lf.mat", tmp_path / "crlf.mat"
        lf.write_bytes((DATA / "build_oracle.mat").read_bytes())
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert cli([*argv, "--matrix", str(crlf)]) == cli([*argv, "--matrix", str(lf)])

    def test_far_columns(self, tmp_path):
        # row 0 on columns 2**40 and 2**40 + 1 holds degrees -2**39 and 2**39 + 1: the anchor table of `check`
        # and `extract` spanned both, 8 TiB; a size probe first, so that a larger table is never made
        from slanth.structure import _slots

        window = ["--rows", "0:0", "--cols", "1099511627776:1099511627777"]
        assert len(_slots(SLANT_H_TOEPLITZ, IndexWindow(0, 0), IndexWindow(2**40, 2**40 + 1))[0]) == 2
        path = tmp_path / "far.mat"
        assert cli(["build", "--family", "slant-h-toeplitz", "--symbol", "phi=0:1", *window, "--out", str(path)])[0] == 0
        assert cli(["check", "slant-h", "--matrix", str(path)]) == (0, "#fmt 1\nPASS max_residual=0.0 vacuous=1\n", "")
        assert cli(["extract", "--matrix", str(path)]) == (0, dump_symbol_file(LaurentSymbol({})), "")

    @pytest.mark.parametrize("headers", ["rows 0 -1\ncols 0 1000000000\n", "rows 0 1000000000\ncols 0 -1\n"])
    @pytest.mark.parametrize("argv, out", [(["check", "slant-h"], "#fmt 1\nPASS max_residual=0.0 vacuous=1\n"),
                                           (["check", "toeplitz"], "#fmt 1\nPASS max_residual=0.0 vacuous=1\n"),
                                           (["extract"], "#fmt 1\n")])
    def test_a_file_with_no_cells_is_vacuous_on_any_window(self, tmp_path, headers, argv, out):
        # 30 bytes, no data line: the scan built a 10**9-index array of the wide window, 7.45 GiB, and exited 3
        path = tmp_path / "empty.mat"
        path.write_text(headers)
        assert cli([*argv, "--matrix", str(path)]) == (0, out, "")

    @pytest.mark.parametrize("hi", ["9999999999999999999", HUGE])
    @pytest.mark.parametrize("argv", [["check", "slant-h"], ["check", "toeplitz"], ["check", "characterization"],
                                      ["check", "extension"], ["extract"]])
    def test_a_row_too_wide_for_int64_bytes_is_a_window_error(self, tmp_path, argv, hi):
        # the one row of this file was sized by numpy, which exited 2 with its own words
        path = tmp_path / "wide.mat"
        path.write_text(f"#fmt 1\nrows 0 0\ncols 0 {hi}\n0.0:0.0\n")
        code, out, err = cli([*argv, "--matrix", str(path)])
        assert (code, out) == (3, "") and err.startswith("window error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["build_oracle.mat", "perturbed_oracle.mat"])
    @pytest.mark.parametrize("argv", [["check", "slant-h"], ["check", "characterization"], ["extract"]])
    def test_a_byte_order_mark_reads_as_no_mark(self, tmp_path, argv, name):
        plain, marked = tmp_path / "plain.mat", tmp_path / "marked.mat"
        plain.write_bytes((DATA / name).read_bytes())
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert cli([*argv, "--matrix", str(marked)]) == cli([*argv, "--matrix", str(plain)])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        assert cli([*argv, "--matrix", str(marked)]) == cli([*argv, "--matrix", str(plain)])

    def test_a_marked_copy_matches_the_pinned_report(self, tmp_path):
        path = tmp_path / "marked.mat"
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / "perturbed_oracle.mat").read_bytes())
        assert cli(["check", "slant-h", "--matrix", str(path)]) == (1, (DATA / "check_perturbed.txt").read_text(), "")

    def test_a_symbol_file_with_a_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "phi.sym", tmp_path / "marked.sym"
        plain.write_text(dump_symbol_file(parse_symbol(GENERIC_INLINE)))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        argv = ["build", "--family", "slant-h-toeplitz", "--rows", "0:8", "--cols", "0:33", "--symbol"]
        expected = cli([*argv, f"phi={plain}"])
        assert expected[0] == 0 and cli([*argv, f"phi={marked}"]) == expected

    @pytest.mark.parametrize("argv", [["characterization"], ["extension"], ["extension", "--m", "-1"]])
    @pytest.mark.parametrize("cell, message", [("1:2:3", "data line 2: entry 2: malformed matrix entry '1:2:3'"),
                                               ("nan:0.0", "data line 2: entry 2 is not finite")])
    def test_a_bad_cell_comes_before_the_identity_windows(self, tmp_path, argv, cell, message):
        # columns 0..3 are too few for the identities, and depth -1 is refused: the file's cells are read first
        path = tmp_path / "narrow.mat"
        path.write_text(f"#fmt 1\nrows 0 1\ncols 0 3\n{' '.join(['0.0:0.0'] * 4)}\n0.0:0.0 {cell} 0.0:0.0 0.0:0.0\n")
        assert cli(["check", *argv, "--matrix", str(path)]) == (2, "", f"error: {message}\n")


small_parts = st.integers(-2, 2).map(float)
section_symbols = st.dictionaries(st.integers(-8, 10), st.builds(complex, small_parts, small_parts), max_size=6)


@st.composite
def sections(draw):
    """A slant-h section, the same with one entry changed, or random entries, on rows 0.. and columns from 0 to 3."""
    rows = IndexWindow(0, draw(st.integers(0, 9)))
    lo = draw(st.integers(0, 3))
    cols = IndexWindow(lo, lo + draw(st.integers(0, 40)))
    kind = draw(st.sampled_from(["clean", "perturbed", "random"]))
    if kind == "random":
        cells = st.sampled_from([0j, 1 + 0j, -2j, complex(0.0, -0.0), 3.5 - 1j])
        values = draw(st.lists(cells, min_size=rows.size * cols.size, max_size=rows.size * cols.size))
        return WindowedMatrix(rows, cols, np.array(values, dtype=complex).reshape(rows.size, cols.size))
    m = build_family(SLANT_H_TOEPLITZ, LaurentSymbol(draw(section_symbols)), rows, cols)
    if kind == "perturbed":
        m = perturbed(m, draw(st.integers(rows.lo, rows.hi)), draw(st.integers(cols.lo, cols.hi)),
                      draw(st.sampled_from([1.0, 1j, -0.5])))
    return m


class TestStreamedFiles:
    """`check` of a pattern and `extract` scan a file's rows as they are read: they report what the dense
    check_pattern and extract_symbol report on the section the file holds."""

    @settings(deadline=None, max_examples=60)
    @given(sections(), st.sampled_from([1, 7, 1 << 15]), st.sampled_from(["\n", "\r\n"]))
    def test_streamed_check_and_readback_match_the_dense_ones(self, m, block, newline):
        with tempfile.TemporaryDirectory() as name, mock.patch.object(windowed, "_BLOCK", block):
            path = Path(name) / "section.mat"
            path.write_bytes(dump_matrix(m).replace("\n", newline).encode())
            for predicate, kind in (("slant-h", SLANT_H_TOEPLITZ), ("slant-toeplitz", SLANT_TOEPLITZ),
                                    ("slant-hankel", SLANT_HANKEL)):
                report = check_pattern(kind, m)
                assert cli(["check", predicate, "--matrix", str(path)]) == (1 - report.passed,
                                                                            "#fmt 1\n" + report.render(), "")
            report = check_pattern(SLANT_H_TOEPLITZ, m)
            readback = dump_symbol_file(extract_symbol(m)) if report.passed else "#fmt 1\n" + report.render()
            assert cli(["extract", "--matrix", str(path)]) == (1 - report.passed, readback, "")

    @settings(deadline=None, max_examples=40)
    @given(st.data(), st.sampled_from(["1:2:3", "x", "1.0", "nan:0.0", "1.0:inf"]), st.sampled_from([1, 7, 1 << 15]))
    def test_a_bad_cell_after_a_violation_is_the_loader_error(self, data, cell, block):
        # entry (1, 4) shares degree 0 with (0, 0): the first rows fail the pattern, then the file is found bad,
        # malformed on its last line or non-finite (reported once every line has parsed); nothing is printed
        rows, cols = IndexWindow(0, data.draw(st.integers(2, 9))), IndexWindow(0, data.draw(st.integers(4, 40)))
        m = perturbed(build_family(SLANT_H_TOEPLITZ, parse_symbol(GENERIC_INLINE), rows, cols), 1, 4)
        lines = dump_matrix(m).splitlines()
        last = lines[-1].split(" ")
        last[data.draw(st.integers(0, cols.hi))] = cell
        text = "\n".join([*lines[:-1], " ".join(last)]) + "\n"
        with tempfile.TemporaryDirectory() as name, mock.patch.object(windowed, "_BLOCK", block):
            path = Path(name) / "section.mat"
            path.write_text(text)
            for argv in (["check", "slant-h"], ["check", "slant-toeplitz"], ["extract"]):
                assert cli([*argv, "--matrix", str(path)]) == (2, "", loader_error(text))

    @pytest.mark.parametrize(
        "argv, cell, expected",
        [
            (["check", "slant-h"], None, (3, "", "window error: slant-h-toeplitz has no rows below 0, got -1:6\n")),
            (["check", "slant-h"], "1:2:3", (2, "", "error: data line 7: entry 2: malformed matrix entry '1:2:3'\n")),
            (["check", "slant-h"], "nan:0.0", (2, "", "error: data line 7: entry 2 is not finite\n")),
            (["extract"], "1:2:3", (2, "", "error: data line 7: entry 2: malformed matrix entry '1:2:3'\n")),
        ],
    )
    def test_a_bad_cell_after_a_refused_window_is_the_loader_error(self, tmp_path, argv, cell, expected):
        # rows -1..6 are past the slant-h windows; with a row a block, the window is refused after the first
        # block, and the blocks after it are read before the window error is raised
        lines = [["0.0:0.0"] * 4 for _ in range(8)]
        if cell:
            lines[6][1] = cell
        path = tmp_path / "section.mat"
        path.write_text("#fmt 1\nrows -1 6\ncols 0 3\n" + "".join(" ".join(line) + "\n" for line in lines))
        with mock.patch.object(windowed, "_BLOCK", 4):
            assert cli([*argv, "--matrix", str(path)]) == expected
