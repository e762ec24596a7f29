import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slanth import (
    COMPOSITIONAL_KINDS,
    CORPUS,
    ONE,
    P,
    SLANT_H_ADJOINT,
    SLANT_H_TOEPLITZ,
    WSTAR,
    ZERO,
    W,
    IndexWindow,
    LaurentSymbol,
    WindowError,
    WindowedMatrix,
    build_compositional,
    build_elementary,
    build_family,
    coefficient_l2,
    column_norm_floor,
    compose,
    conj_reflect,
    eval_expr,
    extension,
    frobenius_of_section,
    monomial,
    norm_bound_check,
    parse_expr,
    parse_symbol,
    section_norm,
    sup_norm,
    symbol_product,
    symbol_sub,
    verify,
)
from slanth.windowed import Elementary, compose_chain

SQRT_HALF_PAIR = dict(CORPUS)["(1+z)/sqrt2"]
GENERIC = dict(CORPUS)["2z^-1+3+5z+7z^2"]
NONZERO = [(label, phi) for label, phi in CORPUS if not phi.is_zero]


# signed zeros included, so the bit comparison covers -0.0 parts too
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-3, 3))
symbols = st.dictionaries(st.integers(-8, 12), st.builds(complex, parts, parts), max_size=8).map(LaurentSymbol)

# magnitudes far apart, down to the least subnormal: squares of these overflow or vanish unscaled
wide_parts = st.one_of(parts, st.sampled_from([1e200, -1e-200, 1e300, -1e300, 1e-300, 5e-324, -5e-324]))
wide_cells = st.builds(complex, wide_parts, wide_parts)
wide_symbols = st.dictionaries(st.integers(-8, 12), wide_cells, max_size=8).map(LaurentSymbol)


@st.composite
def family_sections(draw):
    """Closed-form sections of every family, extension rows below 0 included, up to 12x40."""
    kind = draw(st.one_of(st.sampled_from(COMPOSITIONAL_KINDS), st.integers(1, 3).map(extension)))
    row_lo = draw(st.integers(-kind.depth, 4))
    col_lo = draw(st.integers(0, 6))
    rows = IndexWindow(row_lo, row_lo + draw(st.integers(-1, 11)))
    cols = IndexWindow(col_lo, col_lo + draw(st.integers(-1, 39)))
    return build_family(kind, draw(st.one_of(symbols, wide_symbols)), rows, cols)


@st.composite
def raw_sections(draw):
    """Arbitrary finite sections up to 6x6, empty, tall and wide ones among them."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = draw(st.lists(wide_cells, min_size=r * c, max_size=r * c))
    return WindowedMatrix(IndexWindow(0, r - 1), IndexWindow(0, c - 1), np.array(cells, dtype=complex).reshape(r, c))


def coisometry_defect(phi, n_max):
    """The coisometry suite's defect: the largest column norm of V V* - P on columns 0..n_max."""
    residual = eval_expr(parse_expr("V(phi) . V*(phi) - P"), IndexWindow(0, n_max), {"phi": phi}).data
    return max(float(np.linalg.norm(column)) for column in residual.T)


def partial_isometry_residual(phi, cols):
    """The coisometry suite's largest |entry| of (W T_rho W*) V on `cols`, rho = 1 - phi conj(phi), V as its chain."""
    symbols = {"phi": phi, "rho": symbol_sub(ONE, symbol_product(phi, conj_reflect(phi)))}
    whole = eval_expr(parse_expr("W . P . M(rho) . W* . W . P . M(phi) . K"), cols, symbols)
    return float(np.max(np.abs(whole.data), initial=0.0))


def library_coisometry_residuals(phi):
    """The coisometry suite's three residuals as the library built them before the suite evaluated expressions:
    the product of the V and V* oracles against the identity, the coefficient sum, and the stage list of
    (W T_rho W*) V."""
    cols = IndexWindow(0, 16)
    prod = compose_chain([partial(build_compositional, k, phi) for k in (SLANT_H_TOEPLITZ, SLANT_H_ADJOINT)], cols)
    rows = prod.rows.hull(cols)
    defect = prod.embed(rows, cols).data - np.eye(rows.size, cols.size, rows.lo)
    rho = symbol_sub(ONE, symbol_product(phi, conj_reflect(phi)))
    whole = compose_chain([W, P, Elementary("M", 0, rho), WSTAR, *SLANT_H_TOEPLITZ.chain(phi)], IndexWindow(0, 12))
    return (
        max(float(np.linalg.norm(column)) for column in defect.T),
        abs(coefficient_l2(phi) - 1.0),
        float(np.max(np.abs(whole.data))) if whole.data.size else 0.0,
    )


def reference_coisometry_defect(phi, n_max):
    """Two oracles, their product, and a loop over the columns."""
    cols = IndexWindow(0, n_max)
    vstar = build_compositional(SLANT_H_ADJOINT, phi, cols)
    v = build_compositional(SLANT_H_TOEPLITZ, phi, vstar.rows)
    prod = compose(v, vstar)
    worst = 0.0
    for n in cols.indices():
        column = np.array(prod.data[:, n - cols.lo])
        if n in prod.rows:
            column[n - prod.rows.lo] -= 1.0
            defect = float(np.linalg.norm(column))
        else:
            defect = math.sqrt(float(np.sum(np.abs(column) ** 2)) + 1.0)
        worst = max(worst, defect)
    return worst


def hyponormal_defect(phi):
    """The negatives suite's min over k in {0, 1} of entry (k, k) of V*V - VV*, which is ||V e_k||^2 - ||V* e_k||^2."""
    gap = eval_expr(parse_expr("V*(phi) . V(phi) - V(phi) . V*(phi)"), IndexWindow(0, 1), {"phi": phi})
    return min(gap.entry(k, k).real if k in gap.rows else 0.0 for k in (0, 1))


def self_adjoint_distance(phi, cols):
    """The negatives suite's largest |entry| of V - V* on `cols`."""
    return float(np.max(np.abs(eval_expr(parse_expr("V(phi) - V*(phi)"), cols, {"phi": phi}).data), initial=0.0))


def library_hyponormal_defect(phi):
    """The hyponormality measure as the library took it before the suite evaluated expressions: the squared column
    norms of the V and V* oracles on columns 0:1."""
    cols = IndexWindow(0, 1)
    v, vstar = (np.sum(np.abs(build_compositional(k, phi, cols).data) ** 2, axis=0)
                for k in (SLANT_H_TOEPLITZ, SLANT_H_ADJOINT))
    return float(min(v - vstar))


def library_self_adjoint_distance(phi, window):
    """The self-adjointness measure as the library took it: the largest |V - V*| on the square window x window."""
    v = build_family(SLANT_H_TOEPLITZ, phi, window, window)
    vstar = build_family(SLANT_H_ADJOINT, phi, window, window)
    if v.data.size == 0:
        return 0.0
    return float(np.max(np.abs(v.data - vstar.data)))


def scalar_entry(kind, phi, i, j):
    """The closed-form entry at (i, j), one coefficient read in Python ints."""
    value = phi.coeff(kind.degree(i, j))
    return (value.conjugate() if kind.conj else value) + 0j


def reference_hyponormal_defect(phi, k):
    """||V e_k||^2 - ||V* e_k||^2 by the hand-derived row bounds and scalar entry loops that the library's measure
    replaced by its oracles."""
    sup = phi.support
    if sup is None:
        return 0.0
    n_min, n_max = sup
    reach = max(abs(n_min), abs(n_max))
    r_v = k + reach + 2
    v_norm2 = sum(abs(scalar_entry(SLANT_H_TOEPLITZ, phi, i, k)) ** 2 for i in range(r_v + 1))
    r_s = max(0, 2 * (2 * k - n_min), 2 * (n_max - 2 * k) - 1)
    s_norm2 = sum(abs(scalar_entry(SLANT_H_ADJOINT, phi, i, k)) ** 2 for i in range(r_s + 1))
    return float(v_norm2 - s_norm2)


def reference_column_norm_floor(phi):
    """The parity sums over the support that column_norm_floor replaced by the B and L oracles."""
    sup = phi.support
    if sup is None:
        return 0.0
    n_min, _ = sup
    pair_lo = max(0, (-n_min + 1) // 2) if n_min < 0 else 0
    worst = math.inf
    for m in range(pair_lo, max(31, pair_lo) + 1):
        best = 0.0
        for n in (2 * m, 2 * m + 1):
            b_norm2 = sum(abs(a) ** 2 for k, a in phi.items() if (k - n) % 2 == 0 and k >= -n)
            l_norm2 = sum(abs(a) ** 2 for k, a in phi.items() if (k - n - 1) % 2 == 0 and k >= n + 1)
            best = max(best, b_norm2, l_norm2)
        worst = min(worst, best)
    return math.sqrt(worst)


# the span the reference formulas were written for: degrees -30..50, up to 40 terms
column_parts = st.floats(-10, 10)
column_symbols = st.dictionaries(
    st.integers(-30, 50), st.builds(complex, column_parts, column_parts), max_size=40
).map(LaurentSymbol)


class TestCoisometry:
    @pytest.mark.parametrize("power", range(7))
    def test_inner_monomials(self, power):
        assert coisometry_defect(monomial(power), 16) <= 1e-12

    def test_sqrt_half_pair(self):
        assert coisometry_defect(SQRT_HALF_PAIR, 16) <= 1e-12

    def test_constant_two_scales_by_four(self):
        # (V V*) e_n = 4 e_n, so the defect is exactly 3 at every n
        assert abs(coisometry_defect(parse_symbol("0:2"), 8) - 3.0) < 1e-12

    def test_zero_symbol(self):
        assert abs(coisometry_defect(ZERO, 4) - 1.0) < 1e-15

    @settings(deadline=None, max_examples=60)
    @given(symbols, st.integers(0, 24))
    def test_matches_column_loop_bit_for_bit(self, phi, n_max):
        assert coisometry_defect(phi, n_max) == reference_coisometry_defect(phi, n_max)


class TestCoisometrySuite:
    def test_residuals_are_the_library_residuals_bit_for_bit(self):
        worst = 0.0
        for label in ("1", "z", "z^3", "(1+z)/sqrt2"):
            phi = dict(CORPUS)[label]
            got = (coisometry_defect(phi, 16), abs(coefficient_l2(phi) - 1.0),
                   partial_isometry_residual(phi, IndexWindow(0, 12)))
            # uint64 views: zero signs and last bits count
            assert np.array(got).view(np.uint64).tolist() == np.array(
                library_coisometry_residuals(phi)).view(np.uint64).tolist(), label
            worst = max(worst, *got)
        # the coefficient sum of (1+z)/sqrt2 is the largest; its defect reaches it, its partial residual does not
        assert worst == abs(coefficient_l2(SQRT_HALF_PAIR) - 1.0) == 2.220446049250313e-16
        assert coisometry_defect(SQRT_HALF_PAIR, 16) == worst
        assert partial_isometry_residual(SQRT_HALF_PAIR, IndexWindow(0, 12)) == 1.5700924586837752e-16
        assert verify.check_coisometry() == (True, f"max_residual={worst!r}")


class TestIsometrySum:
    def test_examples(self):
        # the coisometry suite's coefficient residual |sum |a_n|^2 - 1|
        assert abs(coefficient_l2(SQRT_HALF_PAIR) - 1.0) <= 1e-12
        assert abs(coefficient_l2(monomial(3)) - 1.0) == 0.0
        assert abs(coefficient_l2(parse_symbol("0:2")) - 1.0) == 3.0
        assert abs(coefficient_l2(ZERO) - 1.0) == 1.0


class TestPartialIsometry:
    def test_inner_monomial_is_exact(self):
        assert partial_isometry_residual(monomial(2), IndexWindow(0, 12)) == 0.0

    def test_sqrt_half_pair(self):
        assert partial_isometry_residual(SQRT_HALF_PAIR, IndexWindow(0, 12)) <= 1e-12

    def test_constant_two_violates(self):
        assert partial_isometry_residual(parse_symbol("0:2"), IndexWindow(0, 12)) > 1.0


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
        assert hyponormal_defect(ZERO) == 0.0

    def test_anti_analytic_monomial(self):
        assert hyponormal_defect(monomial(-1)) == -1.0

    def test_sqrt_half_pair(self):
        assert abs(hyponormal_defect(SQRT_HALF_PAIR) - (-0.5)) < 1e-12

    def test_every_nonzero_corpus_symbol_violates(self):
        for label, phi in NONZERO:
            assert hyponormal_defect(phi) < -1e-12, label

    @settings(deadline=None, max_examples=150)
    @given(column_symbols)
    def test_matches_reference_bounds(self, phi):
        # both column norms are at most sum |a_n|^2, which scales the rounding
        scale = coefficient_l2(phi)
        want = min(reference_hyponormal_defect(phi, 0), reference_hyponormal_defect(phi, 1))
        assert abs(hyponormal_defect(phi) - want) <= 1e-14 * scale

    def test_degrees_past_int64_reach_are_a_window_error(self):
        # a window of the products spans 2**63 indices, past any int64 index array; the hand-derived bound had
        # 2**62 + 2 rows to walk
        with pytest.raises(WindowError):
            hyponormal_defect(LaurentSymbol({-(2**62): 1, 2**62: 1}))


class TestSelfAdjoint:
    def test_zero(self):
        win = IndexWindow(0, 16)
        assert self_adjoint_distance(ZERO, win) == 0.0

    def test_constant_one(self):
        win = IndexWindow(0, 16)
        assert self_adjoint_distance(parse_symbol("0:1"), win) >= 1.0

    def test_nonzero_corpus(self):
        win = IndexWindow(0, 16)
        for label, phi in NONZERO:
            assert self_adjoint_distance(phi, win) > 1e-6, label

    def test_empty_windows(self):
        empty = IndexWindow.empty()
        assert self_adjoint_distance(GENERIC, empty) == 0.0


class TestNegativesSuite:
    def test_measures_are_the_library_measures_bit_for_bit(self):
        got, want = [], []
        for _, phi in NONZERO:
            # V - V* holds every nonzero row of columns 0:16, the library's 17x17 square among them
            got += [hyponormal_defect(phi), self_adjoint_distance(phi, IndexWindow(0, 16))]
            want += [library_hyponormal_defect(phi), library_self_adjoint_distance(phi, IndexWindow(0, 16))]
        # uint64 views: zero signs and last bits count
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        assert got[8:10] == [-0.5000000000000001, 0.7071067811865476]  # (1+z)/sqrt2
        assert verify.check_negatives() == (True, f"symbols={len(NONZERO)}")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: partial_isometry_residual(GENERIC, IndexWindow(-1, 3)), WindowError,
         "K requires an analytic domain (lo >= 0), got -1:3"),
        (lambda: build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 3), IndexWindow(0, 3)).restrict(
            IndexWindow(0, 4), IndexWindow(0, 3)), WindowError, "not contained in"),
        (lambda: build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 3), IndexWindow(0, 3)).embed(
            IndexWindow(0, 2), IndexWindow(0, 3)), WindowError, "does not contain"),
        (lambda: build_elementary(Elementary("X"), IndexWindow(0, 3)), ValueError, "unknown elementary kind 'X'"),
        (lambda: compose_chain([], IndexWindow(0, 3)), ValueError, "empty chain"),
    ],
)
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


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

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(family_sections(), raw_sections()))
    def test_matches_svd_property(self, section):
        got = section_norm(section)
        exact = float(np.linalg.svd(section.data, compute_uv=False)[0]) if section.data.size else 0.0
        assert not math.isnan(got)
        assert abs(got - exact) <= 1e-12 * exact

    def test_generic_reference_digits(self):
        # 40-digit mpmath value of the section norm behind tests/data/norm_generic.txt
        section = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 32), IndexWindow(0, 129))
        got = section_norm(section)
        assert abs(got - 12.195644096899268613) <= 2 * math.ulp(got)


class TestNormBound:
    def test_corpus(self):
        rows, cols = IndexWindow(0, 32), IndexWindow(0, 129)
        for label, phi in CORPUS:
            section, sup = norm_bound_check(phi, rows, cols)
            assert section - sup <= 1e-9, label
            assert section == section_norm(build_family(SLANT_H_TOEPLITZ, phi, rows, cols)), label
            assert sup == sup_norm(phi), label


class TestColumnNormFloor:
    def test_nonzero_corpus_never_decays(self):
        for label, phi in NONZERO:
            largest = max(abs(a) for _, a in phi.items())
            assert column_norm_floor(phi) >= largest - 1e-12, label

    def test_zero(self):
        assert column_norm_floor(ZERO) == 0.0

    @settings(deadline=None, max_examples=150)
    @given(column_symbols)
    def test_matches_reference_parity_sums(self, phi):
        want = reference_column_norm_floor(phi)
        assert abs(column_norm_floor(phi) - want) <= 1e-14 * want

    @pytest.mark.parametrize("k", [-200, -70, -64, -63, -62, 0, 70])
    def test_monomial(self, k):
        # a lowest degree of -64 or below once left no block to take the floor over
        assert column_norm_floor(LaurentSymbol({k: 1})) == 1.0


class TestCorpus:
    def test_contents(self):
        labels = [label for label, _ in CORPUS]
        assert len(labels) == 8 and len(set(labels)) == 8
        assert dict(CORPUS)["0"].is_zero
        assert abs(coefficient_l2(SQRT_HALF_PAIR) - 1.0) < 1e-12
        assert SQRT_HALF_PAIR.coeff(0) == math.sqrt(0.5)
