import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symbol
from slanth import (
    ZERO,
    IndexWindow,
    WindowError,
    adjoint,
    apply,
    build_elementary,
    compose,
    dump_matrix,
    load_matrix,
    parse_symbol,
    unit_vector,
)
from slanth.windowed import (
    J,
    K,
    KSTAR,
    P,
    U,
    USTAR,
    W,
    WSTAR,
    WindowedMatrix,
    bilateral_shift,
    compose_z,
    mult,
    mult_z,
)


class TestIndexWindow:
    def test_empty_is_canonical(self):
        assert IndexWindow(3, 1) == IndexWindow.empty()
        assert IndexWindow(3, 1).is_empty
        assert IndexWindow.empty().size == 0

    def test_covers_and_intersect(self):
        outer, inner = IndexWindow(-2, 5), IndexWindow(0, 3)
        assert outer.covers(inner) and not inner.covers(outer)
        assert outer.covers(IndexWindow.empty())
        assert outer.intersect(IndexWindow(4, 9)) == IndexWindow(4, 5)
        assert outer.intersect(IndexWindow(6, 9)).is_empty

    def test_hull_and_shift(self):
        assert IndexWindow(0, 2).hull(IndexWindow(5, 6)) == IndexWindow(0, 6)
        assert IndexWindow.empty().hull(IndexWindow(1, 2)) == IndexWindow(1, 2)
        assert IndexWindow(1, 2).shift(-3) == IndexWindow(-2, -1)


class TestBuildElementary:
    def test_decimation_columns(self):
        sec = build_elementary(W, IndexWindow(0, 4))
        assert sec.rows == IndexWindow(0, 2)
        assert sec.entry(0, 0) == 1 and sec.entry(1, 2) == 1 and sec.entry(2, 4) == 1
        for j in (1, 3):
            assert np.all(sec.data[:, j] == 0)

    def test_split_map_columns(self):
        sec = build_elementary(K, IndexWindow(0, 3))
        assert sec.rows == IndexWindow(-2, 1)
        assert sec.entry(0, 0) == 1
        assert sec.entry(-1, 1) == 1
        assert sec.entry(1, 2) == 1
        assert sec.entry(-2, 3) == 1
        assert np.count_nonzero(sec.data) == 4

    def test_mult_by_one_is_identity(self):
        sec = build_elementary(mult(parse_symbol("0:1")), IndexWindow(0, 3))
        assert sec.rows == IndexWindow(0, 3)
        assert np.array_equal(sec.data, np.eye(4))

    def test_mult_by_zero_symbol_has_no_rows(self):
        sec = build_elementary(mult(ZERO), IndexWindow(0, 5))
        assert sec.rows.is_empty
        assert sec.data.shape == (0, 6)

    def test_projection_clamps(self):
        sec = build_elementary(P, IndexWindow(-3, 2))
        assert sec.rows == IndexWindow(0, 2)
        sec = build_elementary(P, IndexWindow(-3, -1))
        assert sec.rows.is_empty

    def test_backward_shift_kills_origin(self):
        sec = build_elementary(USTAR, IndexWindow(0, 4))
        assert sec.rows == IndexWindow(0, 3)
        assert np.all(sec.data[:, 0] == 0)
        assert build_elementary(USTAR, IndexWindow(0, 0)).rows.is_empty
        # permissive on two-sided windows: indices <= 0 are annihilated
        sec = build_elementary(USTAR, IndexWindow(-2, 3))
        assert sec.rows == IndexWindow(0, 2)
        assert np.all(sec.data[:, :3] == 0)

    @pytest.mark.parametrize("kind", [K, J, U])
    def test_analytic_side_guards(self, kind):
        with pytest.raises(WindowError):
            build_elementary(kind, IndexWindow(-1, 3))

    def test_shifts_and_composition_powers(self):
        assert build_elementary(bilateral_shift(-2), IndexWindow(-1, 3)).rows == IndexWindow(-3, 1)
        assert build_elementary(mult_z(3), IndexWindow(0, 2)).rows == IndexWindow(3, 5)
        assert build_elementary(compose_z(2), IndexWindow(1, 3)).rows == IndexWindow(2, 6)
        with pytest.raises(ValueError):
            compose_z(0)

    def test_unit_or_zero_columns(self):
        kinds = [W, WSTAR, KSTAR, P, bilateral_shift(2), mult_z(-1), compose_z(3)]
        for kind in kinds:
            sec = build_elementary(kind, IndexWindow(-4, 7))
            norms = np.linalg.norm(sec.data, axis=0)
            assert np.all((np.abs(norms - 1) < 1e-15) | (norms == 0))


class TestCompose:
    def test_split_inverse_on_analytic(self):
        k = build_elementary(K, IndexWindow(0, 3))
        kstar = build_elementary(KSTAR, k.rows)
        assert np.array_equal(compose(kstar, k).data, np.eye(4))

    def test_split_inverse_on_two_sided(self):
        kstar = build_elementary(KSTAR, IndexWindow(-2, 1))
        k = build_elementary(K, kstar.rows)
        prod = compose(k, kstar)
        assert prod.rows == IndexWindow(-2, 1)
        assert np.array_equal(prod.data, np.eye(4))

    def test_decimation_dilation_inverse(self):
        wstar = build_elementary(WSTAR, IndexWindow(0, 2))
        w = build_elementary(W, wstar.rows)
        assert np.array_equal(compose(w, wstar).data, np.eye(3))

    def test_projection_after_flip_vanishes(self):
        j = build_elementary(J, IndexWindow(0, 2))
        p = build_elementary(P, j.rows)
        prod = compose(p, j)
        assert prod.rows.is_empty and prod.cols == IndexWindow(0, 2)
        assert prod.data.size == 0

    def test_refuses_uncovered_rows(self):
        a = build_elementary(P, IndexWindow(0, 3))
        b = build_elementary(mult_z(5), IndexWindow(0, 3))
        with pytest.raises(WindowError):
            compose(a, b)

    def test_associative_exactly(self):
        phi = parse_symbol("-1:2, 0:3, 1:5, 2:7")
        k = build_elementary(K, IndexWindow(0, 9))
        m = build_elementary(mult(phi), k.rows)
        p = build_elementary(P, m.rows)
        w = build_elementary(W, p.rows)
        left = compose(compose(compose(w, p), m), k)
        right = compose(w, compose(p, compose(m, k)))
        mixed = compose(compose(w, p), compose(m, k))
        assert np.array_equal(left.data, right.data)
        assert np.array_equal(left.data, mixed.data)
        assert left.rows == right.rows == mixed.rows


class TestAdjoint:
    def test_identity(self):
        eye = build_elementary(mult(parse_symbol("0:1")), IndexWindow(0, 4))
        assert np.array_equal(adjoint(eye).data, np.eye(5))

    def test_decimation_adjoint_is_dilation(self):
        w = build_elementary(W, IndexWindow(0, 4))
        wstar = build_elementary(WSTAR, IndexWindow(0, 2))
        flipped = adjoint(w)
        assert flipped.rows == wstar.rows and flipped.cols == wstar.cols
        assert np.array_equal(flipped.data, wstar.data)

    def test_involution(self, rng):
        sec = build_elementary(mult(random_symbol(rng)), IndexWindow(-3, 6))
        twice = adjoint(adjoint(sec))
        assert twice.rows == sec.rows and twice.cols == sec.cols
        assert np.array_equal(twice.data, sec.data)

    def test_reverses_composition(self):
        k = build_elementary(K, IndexWindow(0, 7))
        m = build_elementary(mult(parse_symbol("0:1, 1:2i")), k.rows)
        prod = compose(m, k)
        reversed_prod = compose(adjoint(k), adjoint(m))
        assert np.max(np.abs(adjoint(prod).data - reversed_prod.data)) < 1e-15


class TestApply:
    def test_identity(self):
        eye = build_elementary(mult(parse_symbol("0:1")), IndexWindow(0, 4))
        v = unit_vector(3, IndexWindow(0, 4))
        assert apply(eye, v).value(3) == 1

    def test_decimation_halves_even_basis(self):
        w = build_elementary(W, IndexWindow(0, 4))
        out = apply(w, unit_vector(2, IndexWindow(0, 4)))
        assert out.value(1) == 1 and out.norm() == 1

    def test_backward_shift_annihilates_origin(self):
        sec = build_elementary(USTAR, IndexWindow(0, 4))
        out = apply(sec, unit_vector(0, IndexWindow(0, 4)))
        assert out.norm() == 0

    def test_rejects_wide_vectors(self):
        w = build_elementary(W, IndexWindow(0, 4))
        with pytest.raises(WindowError):
            apply(w, unit_vector(5, IndexWindow(0, 5)))


# signed zeros, subnormals and the ends of the finite range
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestDumpFormat:
    def test_bit_exact_roundtrip(self, rng):
        phi = random_symbol(rng)
        sec = build_elementary(mult(phi), IndexWindow(-2, 9))
        text = dump_matrix(sec)
        again = load_matrix(text)
        assert again.rows == sec.rows and again.cols == sec.cols
        assert again.data.tobytes() == sec.data.tobytes()
        assert dump_matrix(again) == text

    def test_sqrt_half_entries_roundtrip(self):
        phi = parse_symbol("0:0.7071067811865476, 1:0.7071067811865476")
        sec = build_elementary(mult(phi), IndexWindow(0, 5))
        assert load_matrix(dump_matrix(sec)).data.tobytes() == sec.data.tobytes()

    def test_empty_rows_roundtrip(self):
        sec = build_elementary(P, IndexWindow(-3, -1))
        again = load_matrix(dump_matrix(sec))
        assert again.rows.is_empty and again.cols == IndexWindow(-3, -1)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_roundtrip_property(self, data):
        lo, size = data.draw(st.integers(-4, 3)), data.draw(st.integers(0, 4))
        rows = IndexWindow(lo, lo + size - 1)
        lo, size = data.draw(st.integers(-4, 3)), data.draw(st.integers(1, 5))
        cols = IndexWindow(lo, lo + size - 1)
        n = 2 * rows.size * cols.size
        parts = data.draw(st.lists(edge_floats, min_size=n, max_size=n))
        sec = WindowedMatrix(rows, cols, np.array(parts, dtype=float).view(complex).reshape(rows.size, cols.size))
        text = dump_matrix(sec)
        again = load_matrix(text)
        assert again.rows == sec.rows and again.cols == sec.cols
        assert again.data.tobytes() == sec.data.tobytes()
        assert dump_matrix(again) == text

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            load_matrix("rows 0 1\n")
        with pytest.raises(ValueError):
            load_matrix("rows 0 0\ncols 0 0\n1.0:0.0 2.0:0.0\n")

    @pytest.mark.parametrize("cell", ["nan:0.0", "1.0:inf", "-inf:0.0"])
    def test_non_finite_rejected(self, cell):
        with pytest.raises(ValueError, match="line 2: entry 1 is not finite"):
            load_matrix(f"rows 0 1\ncols 0 1\n0.0:0.0 1.0:0.0\n{cell} 2.0:0.0\n")

    def test_entry_bounds(self):
        sec = build_elementary(P, IndexWindow(0, 2))
        with pytest.raises(WindowError):
            sec.entry(5, 0)
        with pytest.raises(WindowError):
            WindowedMatrix(IndexWindow(0, 1), IndexWindow(0, 1), np.zeros((3, 2)))
