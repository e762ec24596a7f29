import numpy as np
import pytest

from conftest import gaussian_symbol, random_symbol
from slanth import (
    CORPUS,
    SLANT_HANKEL,
    SLANT_H_ADJOINT,
    SLANT_H_TOEPLITZ,
    SLANT_TOEPLITZ,
    TOEPLITZ,
    ZERO,
    IndexWindow,
    LaurentSymbol,
    WindowError,
    adjoint,
    build_compositional,
    build_family,
    conj_reflect,
    eval_expr,
    extension,
    parse_expr,
    parse_symbol,
    symbol_add,
    symbol_product,
    symbol_scale,
)
from slanth.families import COMPOSITIONAL_KINDS

GENERIC = parse_symbol("-1:2, 0:3, 1:5, 2:7")


def bits(section):
    """The section's entries as uint64 words: zero signs and last bits count."""
    return section.data.view(np.uint64).tolist()


class TestEntry:
    def test_generic_values(self):
        # frozen from the compositional oracle
        v = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 1), IndexWindow(0, 3))
        assert v.entry(0, 0) == 3
        assert v.entry(1, 0) == 7
        assert v.entry(0, 2) == 2
        assert v.entry(1, 2) == 5
        assert v.entry(0, 3) == 7
        vstar = build_family(SLANT_H_ADJOINT, GENERIC, IndexWindow(0, 1), IndexWindow(0, 1))
        assert vstar.entry(0, 0) == 3
        assert vstar.entry(1, 0) == 5
        assert vstar.entry(0, 1) == 7

    def test_row_and_column_guards(self):
        with pytest.raises(WindowError):
            build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(-1, -1), IndexWindow(0, 0))
        with pytest.raises(WindowError):
            build_family(TOEPLITZ, GENERIC, IndexWindow(0, 0), IndexWindow(-1, -1))
        with pytest.raises(WindowError):
            build_family(extension(2), GENERIC, IndexWindow(-3, -3), IndexWindow(0, 0))
        lowest = build_family(extension(2), GENERIC, IndexWindow(-2, -2), IndexWindow(0, 0))
        assert lowest.entry(-2, 0) == GENERIC.coeff(-4)

    def test_extension_zero_is_base_family(self):
        assert extension(0) == SLANT_H_TOEPLITZ


class TestBuildFamily:
    def test_zero_symbol_gives_zero_matrix(self):
        for kind in COMPOSITIONAL_KINDS:
            sec = build_family(kind, ZERO, IndexWindow(0, 5), IndexWindow(0, 9))
            assert not np.any(sec.data)

    def test_constant_symbol_puts_units_on_every_fourth_column(self):
        n = 6
        sec = build_family(SLANT_H_TOEPLITZ, parse_symbol("0:1"), IndexWindow(0, n), IndexWindow(0, 4 * n))
        for i in range(n + 1):
            row = sec.data[i]
            assert row[4 * i] == 1
            assert np.count_nonzero(row) == 1

    def test_window_guards(self):
        with pytest.raises(WindowError):
            build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(-1, 3), IndexWindow(0, 3))
        with pytest.raises(WindowError):
            build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 3), IndexWindow(-1, 3))


class TestOracleEquivalence:
    @pytest.mark.parametrize("hi", [8, 16, 33])
    def test_corpus_against_compositional(self, hi):
        cols = IndexWindow(0, hi)
        for _, phi in CORPUS:
            for kind in COMPOSITIONAL_KINDS:
                oracle = build_compositional(kind, phi, cols)
                rows = oracle.rows.hull(IndexWindow(0, 4))
                primary = build_family(kind, phi, rows, cols)
                assert bits(primary) == bits(oracle.embed(rows, cols)), (kind.name, phi)

    def test_random_symbols_against_compositional(self, rng):
        cols = IndexWindow(0, 16)
        for _ in range(6):
            phi = random_symbol(rng, span=8)
            for kind in COMPOSITIONAL_KINDS:
                oracle = build_compositional(kind, phi, cols)
                rows = oracle.rows.hull(IndexWindow(0, 4))
                primary = build_family(kind, phi, rows, cols)
                assert bits(primary) == bits(oracle.embed(rows, cols)), kind.name

    def test_toeplitz_of_one_is_identity(self):
        sec = build_compositional(TOEPLITZ, parse_symbol("0:1"), IndexWindow(0, 5))
        assert np.array_equal(sec.data, np.eye(6))

    def test_compositional_guards(self):
        # extension has its oracle too: rows from -1 on
        sec = build_compositional(extension(1), GENERIC, IndexWindow(0, 5))
        assert sec.rows.lo == -1
        assert sec.entry(-1, 0) == GENERIC.coeff(-2)
        with pytest.raises(WindowError):
            build_compositional(TOEPLITZ, GENERIC, IndexWindow(-1, 5))


class TestStructuralIdentities:
    def test_column_interleaving(self):
        rows = IndexWindow(0, 12)
        for _, phi in CORPUS:
            v = build_family(SLANT_H_TOEPLITZ, phi, rows, IndexWindow(0, 25))
            b = build_family(SLANT_TOEPLITZ, phi, rows, IndexWindow(0, 12))
            l = build_family(SLANT_HANKEL, phi, rows, IndexWindow(0, 12))
            for n in range(13):
                assert np.array_equal(v.data[:, 2 * n], b.data[:, n])
                if 2 * n + 1 <= 25:
                    assert np.array_equal(v.data[:, 2 * n + 1], l.data[:, n])

    def test_adjoint_consistency(self, rng):
        rows, cols = IndexWindow(0, 9), IndexWindow(0, 14)
        for _ in range(5):
            phi = random_symbol(rng)
            v = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
            vstar = build_family(SLANT_H_ADJOINT, phi, cols, rows)
            assert np.max(np.abs(adjoint(v).data - vstar.data)) == 0.0

    def test_linearity(self, rng):
        # the adjoint family conjugates coefficients, so it is only
        # real-linear in the symbol; the others are complex-linear
        rows, cols = IndexWindow(0, 8), IndexWindow(0, 15)
        for kind in COMPOSITIONAL_KINDS:
            if kind == SLANT_H_ADJOINT:
                alpha, beta = 0.7, -1.1
            else:
                alpha, beta = complex(0.7, -0.2), complex(-1.1, 0.4)
            left, right = random_symbol(rng), random_symbol(rng)
            mixed = symbol_add(symbol_scale(alpha, left), symbol_scale(beta, right))
            got = build_family(kind, mixed, rows, cols).data
            want = alpha * build_family(kind, left, rows, cols).data + beta * build_family(
                kind, right, rows, cols
            ).data
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_adjoint_norm_split(self):
        # ||V* e_k||^2 = ||B* e_k||^2 + ||L* e_k||^2, columns read as section rows
        cols = IndexWindow(0, 96)
        for _, phi in CORPUS:
            rows = IndexWindow(0, 16)
            v = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
            b = build_family(SLANT_TOEPLITZ, phi, rows, cols)
            l = build_family(SLANT_HANKEL, phi, rows, cols)
            for k in range(17):
                v_star = np.sum(np.abs(v.data[k, :]) ** 2)
                split = np.sum(np.abs(b.data[k, :]) ** 2) + np.sum(np.abs(l.data[k, :]) ** 2)
                assert abs(v_star - split) <= 1e-12


def squared(phi):
    """phi(z^2)."""
    return LaurentSymbol({2 * n: a for n, a in phi.items()})


def decimated(f):
    """W(f): f's even-degree coefficients, their degrees halved."""
    return LaurentSymbol({n // 2: a for n, a in f.items() if n % 2 == 0})


class TestOperatorIdentities:
    """Identities of the oracle's products with the closed form of a mapped symbol, on columns 0..30; Gaussian-integer
    coefficients make every sum exact, so each side is compared value for value."""

    COLS = IndexWindow(0, 30)

    def sides(self, text, symbols, kind, chi):
        """The product `text` and `kind`'s section of chi, on the product's rows joined with 0..30."""
        product = eval_expr(parse_expr(text), self.COLS, symbols)
        rows = product.rows.hull(IndexWindow(0, 30))
        return product.embed(rows, self.COLS).data, build_family(kind, chi, rows, self.COLS).data

    def test_slant_h_times_its_adjoint_is_toeplitz(self, rng):
        # V_phi V_phi* = T_{W(|phi|^2)}, |phi|^2 = phi * conj(phi) on the circle
        for _ in range(30):
            phi = gaussian_symbol(rng, range(-6, 9))
            gram = decimated(symbol_product(phi, conj_reflect(phi)))
            got, want = self.sides("V(phi) . V*(phi)", {"phi": phi}, TOEPLITZ, gram)
            assert np.array_equal(got, want), phi

    def test_co_analytic_toeplitz_times_slant_h_is_slant_h(self, rng):
        # T_psi V_phi = V_{psi(z^2) phi} for psi of degrees <= 0, and not for analytic psi
        for degrees, holds, count in ((range(-6, 1), True, 60), (range(1, 7), False, 30)):
            for _ in range(count):
                psi, phi = gaussian_symbol(rng, degrees), gaussian_symbol(rng, range(-6, 9))
                chi = symbol_product(squared(psi), phi)
                got, want = self.sides("T(psi) . V(phi)", {"psi": psi, "phi": phi}, SLANT_H_TOEPLITZ, chi)
                assert np.array_equal(got, want) == holds, (psi, phi)
