import numpy as np
import pytest

from conftest import random_symbol
from slanth import (
    CORPUS,
    SLANT_HANKEL,
    SLANT_H_TOEPLITZ,
    SLANT_TOEPLITZ,
    ZERO,
    IndexWindow,
    LaurentSymbol,
    WindowError,
    build_family,
    check_characterization,
    check_extension_conditions,
    check_slant_h_matrix,
    check_slant_hankel_matrix,
    check_slant_toeplitz_matrix,
    compose,
    extract_symbol,
    parse_symbol,
)
from slanth.verify import perturbed
from slanth.windowed import build_elementary, compose_z, mult_z

GENERIC = parse_symbol("-1:2, 0:3, 1:5, 2:7")


def v_section(phi, row_hi=8, col_hi=33):
    return build_family(SLANT_H_TOEPLITZ, phi, IndexWindow(0, row_hi), IndexWindow(0, col_hi))


class TestSlantHPredicate:
    def test_own_sections_pass_exactly(self):
        for _, phi in CORPUS:
            report = check_slant_h_matrix(v_section(phi))
            assert report.passed and report.max_residual == 0.0
            assert not report.witnesses

    def test_zero_matrix_passes(self):
        report = check_slant_h_matrix(
            build_family(SLANT_H_TOEPLITZ, ZERO, IndexWindow(0, 8), IndexWindow(0, 33))
        )
        assert report.passed

    def test_slant_toeplitz_of_constant_fails_with_first_anchor_witness(self):
        section = build_family(SLANT_TOEPLITZ, parse_symbol("0:1"), IndexWindow(0, 8), IndexWindow(0, 33))
        report = check_slant_h_matrix(section)
        assert not report.passed
        first = report.witnesses[0]
        assert first.relation == "a[k,0]=a[k+j,4j]"
        assert first.indices == (0, 0, 1, 4)
        assert first.lhs == 1 and first.rhs == 0

    def test_window_preconditions(self):
        good = v_section(GENERIC)
        with pytest.raises(WindowError):
            check_slant_h_matrix(
                build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 4), IndexWindow(1, 9))
            )
        assert check_slant_h_matrix(good).passed

    def test_witness_cap_and_determinism(self):
        noisy = build_family(SLANT_TOEPLITZ, GENERIC, IndexWindow(0, 8), IndexWindow(0, 33))
        report = check_slant_h_matrix(noisy)
        again = check_slant_h_matrix(noisy)
        assert report.witnesses == again.witnesses
        assert len(report.witnesses) <= 16

    def test_vacuous_windows_flagged(self):
        tiny = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 0), IndexWindow(0, 1))
        report = check_slant_h_matrix(tiny)
        assert report.passed and report.vacuous
        assert "vacuous" in report.render().splitlines()[0]


class TestStepPredicates:
    def test_families_satisfy_their_own_steps(self):
        for _, phi in CORPUS:
            b = build_family(SLANT_TOEPLITZ, phi, IndexWindow(0, 8), IndexWindow(0, 16))
            l = build_family(SLANT_HANKEL, phi, IndexWindow(0, 8), IndexWindow(0, 16))
            assert check_slant_toeplitz_matrix(b).passed
            assert check_slant_hankel_matrix(l).passed

    def test_even_column_compression_is_slant_toeplitz(self):
        # composing with Cz(2) keeps even columns; the result must be a
        # slant-toeplitz section equal to the closed form
        v = v_section(GENERIC, row_hi=9, col_hi=33)
        squeeze = build_elementary(compose_z(2), IndexWindow(0, 16))
        even = compose(v, squeeze)
        assert check_slant_toeplitz_matrix(even).passed
        b = build_family(SLANT_TOEPLITZ, GENERIC, even.rows, even.cols)
        assert np.array_equal(even.data, b.data)

    def test_odd_column_compression_is_slant_hankel(self):
        v = v_section(GENERIC, row_hi=9, col_hi=33)
        odd = compose(v, compose(build_elementary(mult_z(1), IndexWindow(0, 32)),
                                 build_elementary(compose_z(2), IndexWindow(0, 16))))
        assert check_slant_hankel_matrix(odd).passed
        l = build_family(SLANT_HANKEL, GENERIC, odd.rows, odd.cols)
        assert np.array_equal(odd.data, l.data)

    def test_perturbation_caught(self):
        b = build_family(SLANT_TOEPLITZ, GENERIC, IndexWindow(0, 8), IndexWindow(0, 16))
        report = check_slant_toeplitz_matrix(perturbed(b, 3, 4))
        assert not report.passed and report.witnesses


class TestExtractSymbol:
    def test_roundtrip_for_corpus(self):
        for _, phi in CORPUS:
            assert extract_symbol(v_section(phi)) == phi

    def test_roundtrip_wide_support(self):
        wide = LaurentSymbol({n: complex(1, n) for n in range(-16, 17)})
        assert extract_symbol(v_section(wide)) == wide

    def test_zero_matrix_gives_zero_symbol(self):
        assert extract_symbol(v_section(ZERO)) == ZERO

    def test_window_preconditions(self):
        with pytest.raises(WindowError):
            extract_symbol(build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(1, 5), IndexWindow(0, 9)))

    def test_partial_recovery_trims_to_window(self):
        # columns up to 9 only reach degrees down to -4, so the -9 term is lost
        narrow = build_family(SLANT_H_TOEPLITZ, parse_symbol("-9:4, 0:1"), IndexWindow(0, 8), IndexWindow(0, 9))
        assert extract_symbol(narrow) == parse_symbol("0:1")


class TestCharacterization:
    def test_sections_pass(self, rng):
        dom = IndexWindow(0, 6)
        symbols = [phi for _, phi in CORPUS] + [random_symbol(rng, span=6) for _ in range(3)]
        for phi in symbols:
            section = build_family(SLANT_H_TOEPLITZ, phi, IndexWindow(0, 9), IndexWindow(0, 31))
            report = check_characterization(section, dom)
            assert report.passed and report.max_residual <= 1e-12

    def test_agreement_with_pattern_predicate(self, rng):
        # both checks accept clean sections and both reject perturbed ones
        dom = IndexWindow(0, 6)
        for spot in ((0, 0), (1, 4), (0, 4)):
            section = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 9), IndexWindow(0, 31))
            bad = perturbed(section, *spot)
            pattern = check_slant_h_matrix(bad)
            identity = check_characterization(bad, dom)
            assert not pattern.passed and pattern.witnesses
            assert not identity.passed and identity.witnesses

    def test_zero_matrix_passes(self):
        section = build_family(SLANT_H_TOEPLITZ, ZERO, IndexWindow(0, 9), IndexWindow(0, 31))
        assert check_characterization(section, IndexWindow(0, 6)).passed

    def test_rejects_insufficient_windows(self):
        section = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 9), IndexWindow(0, 20))
        with pytest.raises(WindowError):
            check_characterization(section, IndexWindow(0, 6))


class TestNonFinite:
    # a NaN residual compares False against every bound, so it must be caught explicitly
    def test_nan_entry_fails_pattern_predicate(self):
        bad = perturbed(v_section(GENERIC), 1, 4, float("nan"))
        report = check_slant_h_matrix(bad)
        assert not report.passed and report.witnesses
        assert report.witnesses[0].indices == (0, 0, 1, 4)
        assert report.render().startswith("FAIL max_residual=nan\n")

    def test_nan_entry_fails_characterization(self):
        bad = perturbed(v_section(GENERIC), 1, 4, float("nan"))
        report = check_characterization(bad, IndexWindow(0, 6))
        assert not report.passed and report.witnesses

    def test_infinite_entry_fails(self):
        bad = perturbed(v_section(GENERIC), 1, 4, float("inf"))
        report = check_slant_h_matrix(bad)
        assert not report.passed and report.witnesses


class TestExtensionConditions:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_pass_for_generic_symbol(self, depth):
        a = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 16), IndexWindow(0, 67))
        report = check_extension_conditions(a, depth)
        assert report.passed and report.max_residual <= 1e-12

    def test_depth_agreement_catches_tampering(self):
        a = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 16), IndexWindow(0, 67))
        report = check_extension_conditions(perturbed(a, 2, 5), 1)
        assert not report.passed
        assert any(w.relation == "Am[i,j]=A[i,j]" for w in report.witnesses)

    def test_rejects_narrow_matrices(self):
        a = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 16), IndexWindow(0, 5))
        with pytest.raises(WindowError):
            check_extension_conditions(a, 1)


class TestReportFormat:
    def test_pass_line(self):
        report = check_slant_h_matrix(v_section(GENERIC))
        text = report.render()
        assert text.startswith("PASS max_residual=0.0")

    def test_fail_lines_carry_witnesses(self):
        bad = perturbed(v_section(GENERIC), 0, 0)
        text = check_slant_h_matrix(bad).render()
        lines = text.strip().splitlines()
        assert lines[0].startswith("FAIL max_residual=")
        assert len(lines) > 1
        assert "lhs=" in lines[1] and "rhs=" in lines[1]
