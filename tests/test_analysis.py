import math

import numpy as np
import pytest

from slanth import (
    CORPUS,
    SLANT_H_TOEPLITZ,
    ZERO,
    IndexWindow,
    LaurentSymbol,
    build_family,
    coefficient_l2,
    coisometry_defect,
    column_norm_floor,
    frobenius_of_section,
    hyponormal_defect,
    isometry_sum_check,
    min_hyponormal_defect,
    monomial,
    norm_bound_check,
    parse_symbol,
    partial_isometry_identity,
    section_norm,
    self_adjoint_distance,
    slant_hankel_perp_check,
)

SQRT_HALF_PAIR = dict(CORPUS)["(1+z)/sqrt2"]
GENERIC = dict(CORPUS)["2z^-1+3+5z+7z^2"]
NONZERO = [(label, phi) for label, phi in CORPUS if not phi.is_zero]


class TestCoisometry:
    @pytest.mark.parametrize("power", range(7))
    def test_inner_monomials(self, power):
        assert coisometry_defect(monomial(power), 16).value <= 1e-12

    def test_sqrt_half_pair(self):
        summary = coisometry_defect(SQRT_HALF_PAIR, 16)
        assert summary.value <= 1e-12
        assert summary.verdict == "pass"

    def test_constant_two_scales_by_four(self):
        # (V V*) e_n = 4 e_n, so the defect is exactly 3 at every n
        summary = coisometry_defect(parse_symbol("0:2"), 8)
        assert abs(summary.value - 3.0) < 1e-12
        assert summary.verdict == "fail"

    def test_zero_symbol(self):
        assert abs(coisometry_defect(ZERO, 4).value - 1.0) < 1e-15


class TestIsometrySum:
    def test_examples(self):
        assert isometry_sum_check(SQRT_HALF_PAIR).value <= 1e-12
        assert isometry_sum_check(monomial(3)).value == 0.0
        assert isometry_sum_check(parse_symbol("0:2")).value == 3.0
        assert isometry_sum_check(ZERO).verdict == "info"


class TestPartialIsometry:
    def test_inner_monomial_is_exact(self):
        assert partial_isometry_identity(monomial(2), IndexWindow(0, 12)).value == 0.0

    def test_sqrt_half_pair(self):
        assert partial_isometry_identity(SQRT_HALF_PAIR, IndexWindow(0, 12)).value <= 1e-12

    def test_constant_two_violates(self):
        assert partial_isometry_identity(parse_symbol("0:2"), IndexWindow(0, 12)).value > 1.0


class TestHilbertSchmidt:
    def test_zero(self):
        assert frobenius_of_section(ZERO, IndexWindow(0, 7), IndexWindow(0, 32)) == 0.0

    def test_constant_counts_rows(self):
        for n in (8, 16):
            got = frobenius_of_section(parse_symbol("0:1"), IndexWindow(0, n - 1), IndexWindow(0, 4 * n))
            assert got == float(n)

    def test_monotone_divergence(self):
        phi = parse_symbol("-1:2, 0:3")
        sums = [frobenius_of_section(phi, IndexWindow(0, 64), IndexWindow(0, 2 * m + 1)) for m in (8, 16, 32)]
        assert sums[0] < sums[1] < sums[2]
        assert sums[2] - sums[1] > 1.0


class TestHyponormal:
    def test_zero(self):
        assert hyponormal_defect(ZERO, 0) == 0.0

    def test_anti_analytic_monomial(self):
        assert hyponormal_defect(monomial(-1), 0) == -1.0

    def test_sqrt_half_pair(self):
        assert abs(hyponormal_defect(SQRT_HALF_PAIR, 0) - (-0.5)) < 1e-12

    def test_every_nonzero_corpus_symbol_violates(self):
        for label, phi in NONZERO:
            assert min_hyponormal_defect(phi) < -1e-12, label


class TestSelfAdjoint:
    def test_zero(self):
        win = IndexWindow(0, 16)
        assert self_adjoint_distance(ZERO, win, win) == 0.0

    def test_constant_one(self):
        win = IndexWindow(0, 16)
        assert self_adjoint_distance(parse_symbol("0:1"), win, win) >= 1.0

    def test_nonzero_corpus(self):
        win = IndexWindow(0, 16)
        for label, phi in NONZERO:
            assert self_adjoint_distance(phi, win, win) > 1e-6, label

    def test_requires_square_windows(self):
        with pytest.raises(Exception):
            self_adjoint_distance(GENERIC, IndexWindow(0, 4), IndexWindow(0, 5))


class TestSectionNorm:
    def test_against_svd(self):
        # independent oracle: dense SVD of the same sections, on the CLI's default window too
        rng = np.random.default_rng(7)
        spans = [LaurentSymbol(dict(zip(range(-3, 4), rng.normal(size=7) + 1j * rng.normal(size=7))))
                 for _ in range(5)]
        extremes = [parse_symbol(text) for text in ("0:1e200, 3:1e200", "0:1e-200, 3:1e-200", "0:1e-300, 1:1e-300")]
        symbols = [phi for _, phi in NONZERO] + spans + extremes
        for rows, cols in [(IndexWindow(0, 20), IndexWindow(0, 81)), (IndexWindow(0, 32), IndexWindow(0, 129))]:
            for phi in symbols:
                section = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
                exact = float(np.linalg.svd(section.data, compute_uv=False)[0])
                assert abs(section_norm(section) - exact) <= 1e-12 * exact, phi

    def test_empty_section(self):
        section = build_family(SLANT_H_TOEPLITZ, ZERO, IndexWindow(0, -1), IndexWindow(0, 5))
        assert section_norm(section) == 0.0


class TestNormBound:
    def test_corpus(self):
        rows, cols = IndexWindow(0, 32), IndexWindow(0, 129)
        for label, phi in CORPUS:
            summary = norm_bound_check(phi, rows, cols)
            assert summary.value <= 1e-9, label
            assert summary.verdict == "pass"

    def test_render_shape(self):
        summary = norm_bound_check(monomial(3), IndexWindow(0, 8), IndexWindow(0, 33))
        line = summary.render().splitlines()[0]
        assert line.startswith("PASS max_residual=")


class TestSlantHankelPerp:
    def test_member_passes(self):
        report = slant_hankel_perp_check(parse_symbol("-1:1, 2:1"), 16)
        assert report.passed

    def test_zero_passes(self):
        assert slant_hankel_perp_check(ZERO, 16).passed

    def test_cubed_monomial_fails_step_and_membership(self):
        report = slant_hankel_perp_check(monomial(3), 16)
        assert not report.passed
        relations = {w.relation for w in report.witnesses}
        assert "a[2j+4]=a[2j+3]" in relations
        assert "a[n]=0(n=1|n>=3)" in relations
        step = [w for w in report.witnesses if w.relation == "a[2j+4]=a[2j+3]"][0]
        assert step.indices == (0,) and step.lhs == 0 and step.rhs == 1


class TestColumnNormFloor:
    def test_nonzero_corpus_never_decays(self):
        for label, phi in NONZERO:
            largest = max(abs(a) for _, a in phi.items())
            assert column_norm_floor(phi) >= largest - 1e-12, label

    def test_zero(self):
        assert column_norm_floor(ZERO) == 0.0


class TestCorpus:
    def test_contents(self):
        labels = [label for label, _ in CORPUS]
        assert len(labels) == 8 and len(set(labels)) == 8
        assert dict(CORPUS)["0"].is_zero
        assert abs(coefficient_l2(SQRT_HALF_PAIR) - 1.0) < 1e-12
        assert SQRT_HALF_PAIR.coeff(0) == math.sqrt(0.5)
