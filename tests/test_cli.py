import subprocess
import sys
from pathlib import Path

import pytest

from slanth import (
    SLANT_H_TOEPLITZ,
    IndexWindow,
    build_family,
    dump_matrix,
    load_matrix,
    load_symbol_file,
    parse_symbol,
)
from slanth.cli import main
from slanth.verify import perturbed

GENERIC_INLINE = "-1:2, 0:3, 1:5, 2:7"
DATA = Path(__file__).parent / "data"


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
        for predicate in ("slant-toeplitz", "slant-hankel"):
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

    def test_non_finite_matrix_file_exit_code(self, tmp_path, section_file):
        bad_path = tmp_path / "nan.mat"
        bad_path.write_text(section_file.read_text().replace("3.0:0.0", "nan:0.0", 1))
        assert run_cli("check", "slant-h", "--matrix", str(bad_path)).returncode == 2

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.0:0.0 1:2:3", "could not convert string to float: '2:3'"),
            ("0.0:0.0 1.0", "malformed matrix entry '1.0'"),
            ("0.0:0.0 :", "could not convert string to float: ''"),
            ("a:b 0.0:0.0", "could not convert string to float: 'a'"),
            ("0.0:0.0", "data line 1: expected 2 entries, found 1"),
            ("0.0:0.0 0.0:0.0\n0.0:0.0 0.0:0.0", "expected 1 data lines, found 2"),
            ("nan:0 0.0:0.0", "data line 1: entry 1 is not finite"),
            # colon counts that cancel out across the line
            ("1:2:3 4", "could not convert string to float: '2:3'"),
            ("1 2:3:4", "malformed matrix entry '1'"),
        ],
    )
    def test_malformed_matrix_file_messages(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.mat"
        path.write_text(f"#fmt 1\nrows 0 0\ncols 0 1\n{body}\n")
        assert main(["check", "slant-h", "--matrix", str(path)]) == 2
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
        result = run_cli("check", "characterization", "--matrix", str(path), "--cols", "0:8")
        assert result.returncode == 0

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

    def test_insufficient_window_exit_code(self, section_file):
        result = run_cli("check", "characterization", "--matrix", str(section_file), "--cols", "0:20")
        assert result.returncode == 3


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
        # the Gram matrix of these entries overflows; the singular values do not
        result = run_cli("norm", "--symbol", "phi=0:1e200, 3:1e200", "--rows", "0:8", "--cols", "0:33")
        assert result.returncode == 0
        section = float(result.stdout.splitlines()[1].removeprefix("# section_norm="))
        assert abs(section - 2**0.5 * 1e200) <= 1e-12 * section
        assert result.stderr == ""


class TestVerify:
    def test_single_suite(self):
        result = run_cli("verify", "golden")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS golden")

    def test_unknown_suite(self):
        assert run_cli("verify", "bogus").returncode == 2

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


def test_cli_import_leaves_scipy_out():
    code = "import sys, slanth.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
