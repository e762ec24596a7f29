"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with -s or on failure) and
asserts the criterion at its pinned tolerance. Criteria 1-10 run the shared
verification suites; criterion 11 exercises the installed CLI.
"""

import subprocess
import sys

import pytest

from slanth import dump_matrix, load_matrix
from slanth.verify import CHECKS, perturbed

_SUITES = dict(CHECKS)


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion} {detail}")
    assert ok, f"{criterion}: {detail}"


def _run_suite(criterion: str, name: str):
    ok, detail = _SUITES[name]()
    _report(criterion, ok, detail)


def test_criterion_01_oracle_equivalence():
    # closed forms == compositional builder bit for bit, 8 symbols x 10 kinds
    _run_suite("criterion-01-oracle", "oracle")


def test_criterion_02_golden_blocks():
    # leading 5x7, 7x7, and 8x7 blocks match the displayed degree grids
    _run_suite("criterion-02-golden", "golden")


def test_criterion_03_roundtrip_injectivity():
    # extract(build(phi)) == phi exactly for supports within [-16, 16]
    _run_suite("criterion-03-roundtrip", "roundtrip")


def test_criterion_04_predicate_characterization_agreement():
    # both checkers accept clean sections (<= 1e-12) and witness perturbations
    _run_suite("criterion-04-predicates", "predicates")


def test_criterion_05_column_interleaving():
    # even/odd columns equal the slant-toeplitz/slant-hankel columns exactly
    _run_suite("criterion-05-interleaving", "interleaving")


def test_criterion_06_coisometry_family():
    # coisometry defect, coefficient sum, partial isometry residual <= 1e-12
    _run_suite("criterion-06-coisometry", "coisometry")


def test_criterion_07_nonzero_symbols_produce_violations():
    # hyponormality, self-adjointness, pattern exclusion, frobenius growth
    _run_suite("criterion-07-negatives", "negatives")


def test_criterion_08_slant_hankel_membership():
    # the zero section L(z^-1) passes the slant-h pattern; L(z^-1+z^2) fails it with a witness
    _run_suite("criterion-08-perp", "perp")


def test_criterion_09_norm_bound():
    # section spectral norm <= grid sup norm + 1e-6 on rows 0:32, cols 0:129
    _run_suite("criterion-09-norm-bound", "norm-bound")


def test_criterion_10_extension_conditions():
    # identities at depths 1 and 2 (<= 1e-12); entries depth-independent
    _run_suite("criterion-10-extension", "extension")


class TestCriterion11CliConformance:
    GENERIC = "-1:2, 0:3, 1:5, 2:7"

    @staticmethod
    def _cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "slanth", *args], capture_output=True, text=True
        )

    @pytest.fixture
    def section_file(self, tmp_path):
        path = tmp_path / "section.mat"
        result = self._cli(
            "build",
            "--family", "slant-h-toeplitz",
            "--symbol", f"phi={self.GENERIC}",
            "--rows", "0:8",
            "--cols", "0:33",
            "--out", str(path),
        )
        assert result.returncode == 0, result.stderr
        return path

    def test_verify_all_exits_zero(self):
        result = self._cli("verify", "--all")
        _report("criterion-11-verify-all", result.returncode == 0, f"rc={result.returncode}")

    def test_perturbed_check_exits_one_with_witness(self, tmp_path, section_file):
        matrix = load_matrix(section_file.read_text())
        bad = tmp_path / "bad.mat"
        bad.write_text(dump_matrix(perturbed(matrix, 0, 0)))
        result = self._cli("check", "slant-h", "--matrix", str(bad))
        witnesses = [line for line in result.stdout.splitlines() if "lhs=" in line]
        ok = result.returncode == 1 and len(witnesses) >= 1
        _report("criterion-11-check-witness", ok, f"rc={result.returncode} witnesses={len(witnesses)}")

    def test_dump_roundtrips_bit_exactly(self, section_file):
        text = section_file.read_text()
        ok = dump_matrix(load_matrix(text)) == text
        clean = self._cli("check", "slant-h", "--matrix", str(section_file))
        _report("criterion-11-roundtrip", ok and clean.returncode == 0, "bit-exact")
