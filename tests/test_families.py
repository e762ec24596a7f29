import numpy as np
import pytest

from conftest import random_symbol
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
    entry,
    extension,
    oracle_deviation,
    parse_symbol,
    symbol_add,
    symbol_scale,
)
from slanth.families import COMPOSITIONAL_KINDS

GENERIC = parse_symbol("-1:2, 0:3, 1:5, 2:7")


class TestEntry:
    def test_leading_row_pattern(self):
        # row 0 of the slant-h section walks a_0, a_1, a_-1, a_2, a_-2, ...
        probe = LaurentSymbol({n: complex(n, 1) for n in range(-8, 9)})
        degrees = [0, 1, -1, 2, -2, 3, -3]
        got = [entry(SLANT_H_TOEPLITZ, probe, 0, j) for j in range(7)]
        assert got == [probe.coeff(d) for d in degrees]

    def test_depth_one_top_row_pattern(self):
        probe = LaurentSymbol({n: complex(n, 1) for n in range(-8, 9)})
        degrees = [-2, -1, -3, 0, -4, 1, -5]
        got = [entry(extension(1), probe, -1, j) for j in range(7)]
        assert got == [probe.coeff(d) for d in degrees]

    def test_generic_values(self):
        # frozen from the compositional oracle (cross-checked below)
        assert entry(SLANT_H_TOEPLITZ, GENERIC, 0, 0) == 3
        assert entry(SLANT_H_TOEPLITZ, GENERIC, 1, 0) == 7
        assert entry(SLANT_H_TOEPLITZ, GENERIC, 0, 2) == 2
        assert entry(SLANT_H_TOEPLITZ, GENERIC, 1, 2) == 5
        assert entry(SLANT_H_TOEPLITZ, GENERIC, 0, 3) == 7
        assert entry(SLANT_H_ADJOINT, GENERIC, 0, 0) == 3
        assert entry(SLANT_H_ADJOINT, GENERIC, 1, 0) == 5
        assert entry(SLANT_H_ADJOINT, GENERIC, 0, 1) == 7

    def test_adjoint_entries_match_oracle(self):
        oracle = build_compositional(SLANT_H_ADJOINT, GENERIC, IndexWindow(0, 4))
        for (i, j) in [(0, 0), (1, 0), (0, 1), (2, 0), (3, 0)]:
            assert entry(SLANT_H_ADJOINT, GENERIC, i, j) == oracle.entry(i, j)

    def test_row_and_column_guards(self):
        with pytest.raises(WindowError):
            entry(SLANT_H_TOEPLITZ, GENERIC, -1, 0)
        with pytest.raises(WindowError):
            entry(TOEPLITZ, GENERIC, 0, -1)
        with pytest.raises(WindowError):
            entry(extension(2), GENERIC, -3, 0)
        assert entry(extension(2), GENERIC, -2, 0) == GENERIC.coeff(-4)

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
                assert oracle_deviation(primary, oracle) <= 1e-13, (kind.name, phi)

    def test_random_symbols_against_compositional(self, rng):
        cols = IndexWindow(0, 16)
        for _ in range(6):
            phi = random_symbol(rng, span=8)
            for kind in COMPOSITIONAL_KINDS:
                oracle = build_compositional(kind, phi, cols)
                rows = oracle.rows.hull(IndexWindow(0, 4))
                primary = build_family(kind, phi, rows, cols)
                assert oracle_deviation(primary, oracle) <= 1e-13

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

    def test_depth_independence(self):
        for i in range(-3, 7):
            for j in range(0, 15):
                values = {
                    entry(extension(depth), GENERIC, i, j) for depth in range(4) if i >= -depth
                }
                assert len(values) <= 1
