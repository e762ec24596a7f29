import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    extension,
    extract_symbol,
    parse_symbol,
    slant_hankel_perp_check,
)
from slanth.structure import WITNESS_CAP, CheckReport, Witness
from slanth.verify import perturbed
from slanth.windowed import (
    U,
    USTAR,
    WindowedMatrix,
    bilateral_shift,
    build_elementary,
    compose_chain,
    compose_z,
    mult_z,
)

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

    @pytest.mark.parametrize("rows_hi, cols_hi", [(8, 33), (16, 65), (5, 40), (3, 7)])
    def test_flags_every_change_to_a_shared_degree(self, rows_hi, cols_hi):
        # an entry is constrained iff another entry in the window has its degree
        section = v_section(GENERIC, rows_hi, cols_hi)
        degree = SLANT_H_TOEPLITZ.degree
        seen = collections.Counter(degree(i, j) for i in range(rows_hi + 1) for j in range(cols_hi + 1))
        assert check_slant_h_matrix(section).passed
        for i in range(rows_hi + 1):
            for j in range(cols_hi + 1):
                report = check_slant_h_matrix(perturbed(section, i, j))
                assert report.passed == (seen[degree(i, j)] == 1), (i, j)

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


# Scalar reference scan: every relation instance folded one at a time, in the
# scan order the vectorised checks must reproduce byte for byte.


def reference_fold(instances, tol=1e-12, cap=WITNESS_CAP):
    max_residual, witnesses, checked = 0.0, [], 0
    for relation, indices, lhs, rhs in instances:
        checked += 1
        residual = abs(lhs - rhs)
        if residual > max_residual or math.isnan(residual):
            max_residual = residual
        if not residual <= tol and len(witnesses) < cap:
            witnesses.append(Witness(relation, indices, lhs, rhs))
    return CheckReport(max_residual <= tol, max_residual, tuple(witnesses), checked)


def slant_h_instances(m):
    rows, hi, e = m.rows, m.cols.hi, m.entry
    for k in rows.indices():
        for j in range(1, hi // 4 + 1):
            if k + j in rows:
                yield "a[k,0]=a[k+j,4j]", (k, 0, k + j, 4 * j), e(k, 0), e(k + j, 4 * j)
    for k in rows.indices():
        for j in range(1, k + 1):
            if k - j in rows and 4 * j - 1 <= hi:
                yield "a[k,0]=a[k-j,4j-1]", (k, 0, k - j, 4 * j - 1), e(k, 0), e(k - j, 4 * j - 1)
    if 0 in rows:
        for k in range(1, hi // 2 + 1):
            for i in rows.indices():
                if i >= 1 and 2 * k + 4 * i <= hi:
                    yield "a[0,2k]=a[i,2k+4i]", (0, 2 * k, i, 2 * k + 4 * i), e(0, 2 * k), e(i, 2 * k + 4 * i)
    for k in rows.indices():
        for j in range(1, (hi + 2) // 4 + 1):
            if k + j in rows:
                yield "a[k,1]=a[k+j,4j-2]", (k, 1, k + j, 4 * j - 2), e(k, 1), e(k + j, 4 * j - 2)
    for i in rows.indices():
        if i + 1 in rows:
            for n in range(2, (hi - 1) // 2 + 1):
                yield "a[i,2n+1]=a[i+1,2n-3]", (i, 2 * n + 1, i + 1, 2 * n - 3), e(i, 2 * n + 1), e(i + 1, 2 * n - 3)


def step_instances(m, relation, di):
    for i in m.rows.indices():
        if i + di in m.rows and i + di >= 0:
            for j in m.cols.indices():
                if j + 2 in m.cols:
                    yield relation, (i, j, i + di, j + 2), m.entry(i, j), m.entry(i + di, j + 2)


def identity_instances(tag, lhs, rhs):
    rows, cols = lhs.rows.intersect(rhs.rows), lhs.cols.intersect(rhs.cols)
    for i in rows.indices():
        for j in cols.indices():
            yield tag, (i, j), lhs.entry(i, j), rhs.entry(i, j)


def characterization_instances(m, cols):
    e0 = IndexWindow(0, 0)
    yield from identity_instances(
        "A.Cz2=U*.A.Cz2.U2",
        compose_chain([m, compose_z(2)], cols),
        compose_chain([USTAR, m, compose_z(2), mult_z(2)], cols),
    )
    yield from identity_instances(
        "U*.A.Mz3.Cz4=A.Mz3.Cz4.U",
        compose_chain([USTAR, m, mult_z(3), compose_z(4)], cols),
        compose_chain([m, mult_z(3), compose_z(4), U], cols),
    )
    yield from identity_instances(
        "U*.A.e0=A.Mz3.e0",
        compose_chain([USTAR, m.restrict(m.rows, e0)], e0),
        compose_chain([m, mult_z(3)], e0),
    )


def extension_instances(a, depth):
    am = build_family(extension(depth), extract_symbol(a), IndexWindow(-depth, a.rows.hi), a.cols)
    dom = IndexWindow(0, min((a.cols.hi - 7) // 4, (a.cols.hi - 4 * depth) // 2))
    e0 = IndexWindow(0, 0)
    yield from identity_instances(
        "Am.Cz2=S(-m).A.Cz2.U2m",
        compose_chain([am, compose_z(2)], dom),
        compose_chain([bilateral_shift(-depth), a, compose_z(2), mult_z(2 * depth)], dom),
    )
    yield from identity_instances(
        "U*.Am.Mz3.Cz4=A.Mz3.Cz4.U",
        compose_chain([USTAR, am, mult_z(3), compose_z(4)], dom),
        compose_chain([a, mult_z(3), compose_z(4), U], dom),
    )
    yield from identity_instances(
        "U*.Am.e0=A.Mz3.e0",
        compose_chain([USTAR, am.restrict(am.rows, e0)], e0),
        compose_chain([a, mult_z(3)], e0),
    )
    yield from identity_instances("Am[i,j]=A[i,j]", am, a)


def perp_instances(phi, idx_max):
    c = phi.coeff
    for m in range(0, (idx_max - 7) // 2 + 1):
        for j in range(0, (idx_max - 7 - 2 * m) // 2 + 1):
            yield "a[2m+2j+7]=a[2m+2j+1]", (m, j), c(2 * m + 2 * j + 7), c(2 * m + 2 * j + 1)
    for m in range(0, (idx_max - 8) // 4 + 1):
        for j in range(0, (idx_max - 8 - 4 * m) // 2 + 1):
            yield "a[4m+2j+6]=a[4m+2j+8]", (m, j), c(4 * m + 2 * j + 6), c(4 * m + 2 * j + 8)
    for j in range(0, (idx_max - 4) // 2 + 1):
        yield "a[2j+4]=a[2j+3]", (j,), c(2 * j + 4), c(2 * j + 3)
    for n, a in phi.items():
        if n == 1 or n >= 3:
            yield "a[n]=0(n=1|n>=3)", (n,), a, 0j


def assert_same(report, reference):
    assert report.render() == reference.render()
    assert report.checked == reference.checked
    assert type(report.max_residual) is float
    for w in report.witnesses:
        assert all(type(i) is int for i in w.indices)
        assert type(w.lhs) is complex and type(w.rhs) is complex


DIFFERENTIAL = settings(deadline=None, max_examples=60)
# small integer parts make equal entries, and so passing relations, likely
small = st.integers(-2, 2).map(float)
symbols = st.dictionaries(st.integers(-6, 8), st.builds(complex, small, small), max_size=6).map(LaurentSymbol)
spikes = st.sampled_from([1.0, 1j, float("nan"), float("inf"), float("-inf")])
caps = st.sampled_from([1, 5, WITNESS_CAP])


@st.composite
def sections(draw, rows_lo, rows_size, cols_lo, cols_hi):
    """A slant-h section, the same with one entry changed, or random entries (many violations)."""
    lo = draw(rows_lo)
    rows = IndexWindow(lo, lo + draw(rows_size) - 1)
    cols = IndexWindow(draw(cols_lo), draw(cols_hi))
    kind = draw(st.sampled_from(["clean", "perturbed", "random"]))
    if kind == "random":
        parts = st.lists(small, min_size=rows.size * cols.size, max_size=rows.size * cols.size)
        data = np.array(draw(parts)) + 1j * np.array(draw(parts))
        return WindowedMatrix(rows, cols, data.reshape(rows.size, cols.size))
    section = build_family(SLANT_H_TOEPLITZ, draw(symbols), rows, cols)
    if kind == "clean":
        return section
    i = draw(st.integers(rows.lo, rows.hi))
    j = draw(st.integers(cols.lo, cols.hi))
    return perturbed(section, i, j, draw(spikes))


class TestDifferential:
    """The array-at-a-time checks against the scalar reference scan."""

    @DIFFERENTIAL
    @given(sections(st.integers(0, 3), st.integers(1, 10), st.just(0), st.integers(0, 40)), caps)
    def test_slant_h(self, m, cap):
        assert_same(check_slant_h_matrix(m, cap=cap), reference_fold(slant_h_instances(m), cap=cap))

    @DIFFERENTIAL
    @given(sections(st.integers(0, 3), st.integers(1, 8), st.integers(0, 3), st.integers(3, 20)), caps)
    def test_step_predicates(self, m, cap):
        assert_same(
            check_slant_toeplitz_matrix(m, cap=cap),
            reference_fold(step_instances(m, "a[i,j]=a[i+1,j+2]", 1), cap=cap),
        )
        assert_same(
            check_slant_hankel_matrix(m, cap=cap),
            reference_fold(step_instances(m, "a[i,j]=a[i-1,j+2]", -1), cap=cap),
        )

    @DIFFERENTIAL
    @given(sections(st.just(0), st.integers(2, 8), st.just(0), st.integers(11, 30)), caps, st.data())
    def test_characterization(self, m, cap, data):
        dom = IndexWindow(0, data.draw(st.integers(0, (m.cols.hi - 7) // 4)))
        assert_same(check_characterization(m, dom, cap=cap), reference_fold(characterization_instances(m, dom), cap=cap))

    @DIFFERENTIAL
    @given(sections(st.just(0), st.integers(2, 8), st.just(0), st.integers(11, 30)), st.integers(0, 2), caps)
    def test_extension(self, m, depth, cap):
        try:
            reference = reference_fold(extension_instances(m, depth), cap=cap)
        except ValueError:  # a non-finite entry read back into the symbol fails closed
            assert check_extension_conditions(m, depth, cap=cap).render() == "FAIL max_residual=nan\n"
            return
        assert_same(check_extension_conditions(m, depth, cap=cap), reference)

    @DIFFERENTIAL
    @given(symbols, st.integers(0, 24), caps)
    def test_perp(self, phi, idx_max, cap):
        assert_same(slant_hankel_perp_check(phi, idx_max, cap=cap), reference_fold(perp_instances(phi, idx_max), cap=cap))

    def test_vacuous_window_matches(self):
        m = v_section(GENERIC, row_hi=0, col_hi=9)
        report = check_slant_h_matrix(m)
        assert report.vacuous
        assert_same(report, reference_fold(slant_h_instances(m)))
