import math

import numpy as np
import pytest

from conftest import eval_on_grid, random_symbol
from slanth import (
    ZERO,
    LaurentSymbol,
    SymbolParseError,
    coefficient_l2,
    conj_reflect,
    dump_symbol_file,
    load_symbol_file,
    monomial,
    parse_symbol,
    sup_norm,
    symbol_add,
    symbol_product,
    symbol_scale,
)

ISQ2 = math.sqrt(0.5)


class TestParse:
    def test_constant(self):
        phi = parse_symbol("0:1")
        assert phi.coeff(0) == 1
        assert phi.support == (0, 0)

    def test_readback(self):
        phi = parse_symbol("-1:2, 0:3, 1:5, 2:7")
        assert phi.support == (-1, 2)
        assert [phi.coeff(n) for n in range(-1, 3)] == [2, 3, 5, 7]
        assert hash(phi) == hash(parse_symbol("2:7, 1:5, -1:2, 0:3"))

    def test_sqrt_half_pair(self):
        phi = parse_symbol("0:0.7071067811865476, 1:0.7071067811865476")
        assert phi.coeff(0) == ISQ2
        assert phi.coeff(1) == ISQ2

    def test_complex_coefficients(self):
        assert parse_symbol("1: i").coeff(1) == 1j
        assert parse_symbol("0:2+3i").coeff(0) == 2 + 3j
        assert parse_symbol("2:-i").coeff(2) == -1j
        assert parse_symbol("3:1e-3").coeff(3) == 1e-3

    def test_zero_coefficient_trims(self):
        assert parse_symbol("0:0").is_zero

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "1", "x:1", "1.5:2", "1:2:3", "0:1, 0:2", "0:abc", "0:,1:2", "0:nan", "0:1+nani"],
    )
    def test_rejects(self, text):
        with pytest.raises(SymbolParseError):
            parse_symbol(text)

    def test_non_integer_degree_in_constructor(self):
        with pytest.raises(SymbolParseError):
            LaurentSymbol({1.5: 1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(1, float("-inf"))])
    def test_non_finite_coefficient_in_constructor(self, value):
        with pytest.raises(SymbolParseError):
            LaurentSymbol({0: value})


class TestConjReflect:
    def test_zero(self):
        assert conj_reflect(ZERO) == ZERO

    def test_real_coefficients(self):
        assert conj_reflect(parse_symbol("0:3, 1:5")) == parse_symbol("-1:5, 0:3")

    def test_imaginary_unit(self):
        assert conj_reflect(parse_symbol("1:i")) == parse_symbol("-1:-i")

    def test_involution(self, rng):
        for _ in range(20):
            phi = random_symbol(rng)
            assert conj_reflect(conj_reflect(phi)) == phi


class TestProduct:
    def test_zero_annihilates(self, rng):
        assert symbol_product(random_symbol(rng), ZERO) == ZERO

    def test_hand_convolution(self):
        left = parse_symbol("0:1, 1:1")
        right = parse_symbol("-1:1, 0:1")
        assert symbol_product(left, right) == parse_symbol("-1:1, 0:2, 1:1")

    def test_sqrt_half_pair_square_modulus(self):
        phi = parse_symbol(f"0:{ISQ2!r}, 1:{ISQ2!r}")
        prod = symbol_product(phi, conj_reflect(phi))
        assert abs(prod.coeff(-1) - 0.5) < 1e-15
        assert abs(prod.coeff(0) - 1.0) < 1e-15
        assert abs(prod.coeff(1) - 0.5) < 1e-15
        assert prod.support == (-1, 1)

    def test_pointwise_oracle(self, rng):
        # product evaluated on the circle must equal the pointwise product
        grid = 128
        for _ in range(10):
            left, right = random_symbol(rng), random_symbol(rng)
            got = eval_on_grid(symbol_product(left, right), grid)
            want = eval_on_grid(left, grid) * eval_on_grid(right, grid)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_commutative(self, rng):
        left, right = random_symbol(rng), random_symbol(rng)
        prod = symbol_product(left, right)
        flipped = symbol_product(right, left)
        for n in range(-15, 16):
            assert abs(prod.coeff(n) - flipped.coeff(n)) < 1e-13

    def test_bilinear(self, rng):
        a, b, c = random_symbol(rng), random_symbol(rng), random_symbol(rng)
        alpha = complex(0.3, -1.2)
        lhs = symbol_product(symbol_add(symbol_scale(alpha, a), b), c)
        rhs = symbol_add(symbol_scale(alpha, symbol_product(a, c)), symbol_product(b, c))
        for n in range(-15, 16):
            assert abs(lhs.coeff(n) - rhs.coeff(n)) < 1e-12

    def test_degree_zero_of_square_modulus_is_l2(self, rng):
        for _ in range(10):
            phi = random_symbol(rng)
            prod = symbol_product(phi, conj_reflect(phi))
            assert abs(prod.coeff(0) - coefficient_l2(phi)) < 1e-12
            assert abs(prod.coeff(0).imag) < 1e-12


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(ZERO, 16) == 0.0

    def test_constant(self):
        assert sup_norm(parse_symbol("0:1"), 64) == 1.0

    def test_sqrt_half_pair(self):
        phi = parse_symbol(f"0:{ISQ2!r}, 1:{ISQ2!r}")
        assert abs(sup_norm(phi, 4096) - math.sqrt(2)) < 1e-9

    def test_nondecreasing_in_grid_refinement(self, rng):
        for _ in range(5):
            phi = random_symbol(rng)
            values = [sup_norm(phi, g) for g in (64, 128, 256, 512)]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sup_norm(ZERO, 0)


class TestCoefficientL2:
    def test_zero(self):
        assert coefficient_l2(ZERO) == 0.0

    def test_sqrt_half_pair(self):
        phi = parse_symbol(f"0:{ISQ2!r}, 1:{ISQ2!r}")
        assert abs(coefficient_l2(phi) - 1.0) < 1e-12

    def test_primes(self):
        assert coefficient_l2(parse_symbol("-1:2, 0:3, 1:5, 2:7")) == 87.0


class TestFileFormat:
    def test_roundtrip(self, rng):
        phi = random_symbol(rng)
        assert load_symbol_file(dump_symbol_file(phi)) == phi

    def test_comments_and_order(self):
        text = "# a comment\n2 7.0 0.0\n-1 2.0 0.0\n"
        assert load_symbol_file(text) == parse_symbol("-1:2, 2:7")

    def test_rejects_duplicates(self):
        with pytest.raises(SymbolParseError):
            load_symbol_file("0 1.0 0.0\n0 2.0 0.0\n")

    @pytest.mark.parametrize("text", ["2 7.0 0.0\n-1 2.0 0.0\n", "# a comment\n2 7.0 0.0\n-1 2.0 0.0\n"])
    def test_a_leading_byte_order_mark_is_dropped(self, text):
        # only the first: a mark inside a line is still read as part of it
        assert load_symbol_file("\ufeff" + text) == load_symbol_file(text) == parse_symbol("-1:2, 2:7")
        with pytest.raises(SymbolParseError, match=r"^line 1: degree '\\ufeff2' is not an integer$"):
            load_symbol_file("\ufeff\ufeff" + text.removeprefix("# a comment\n"))

    def test_rejects_short_lines(self):
        with pytest.raises(SymbolParseError):
            load_symbol_file("0 1.0\n")

    @pytest.mark.parametrize("line", ["0 nan 0.0", "0 1.0 inf", "0 -inf 0.0"])
    def test_rejects_non_finite(self, line):
        with pytest.raises(SymbolParseError):
            load_symbol_file(f"#fmt 1\n{line}\n")
