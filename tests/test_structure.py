import collections
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_symbol, random_symbol
from slanth import (
    COMPOSITIONAL_KINDS,
    CORPUS,
    HANKEL,
    H_TOEPLITZ,
    SLANT_HANKEL,
    SLANT_H_TOEPLITZ,
    SLANT_TOEPLITZ,
    ZERO,
    IndexWindow,
    LaurentSymbol,
    WindowError,
    build_compositional,
    build_family,
    check_characterization,
    check_extension_conditions,
    check_pattern,
    check_slant_h_matrix,
    compose,
    dump_matrix,
    extension,
    extract_symbol,
    parse_symbol,
)
from slanth import structure, windowed
from slanth.structure import WITNESS_CAP, CheckReport, Witness, _collect
from slanth.verify import perturbed
from slanth.windowed import (
    U,
    USTAR,
    Elementary,
    WindowedMatrix,
    build_elementary,
    compose_chain,
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
        # a degree's anchor is its first entry in C order: (0, 1) anchors degree 1, which (1, 2) breaks first
        section = build_family(SLANT_TOEPLITZ, parse_symbol("0:1"), IndexWindow(0, 8), IndexWindow(0, 33))
        report = check_slant_h_matrix(section)
        assert not report.passed
        first = report.witnesses[0]
        assert first.relation == "a[i,j]=a[p,q]"
        assert first.indices == (0, 1, 1, 2)
        assert first.lhs == 0 and first.rhs == 1

    def test_window_preconditions(self):
        # the family's own windows: no rows below 0, no columns below 0; any such window is checked
        for rows, cols in ((IndexWindow(-1, 4), IndexWindow(0, 9)), (IndexWindow(0, 4), IndexWindow(-1, 9))):
            with pytest.raises(WindowError):
                check_slant_h_matrix(WindowedMatrix(rows, cols, np.zeros((rows.size, cols.size))))
        assert check_slant_h_matrix(build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(2, 6), IndexWindow(1, 9))).passed
        assert check_slant_h_matrix(v_section(GENERIC)).passed

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
            assert check_pattern(SLANT_TOEPLITZ, b).passed
            assert check_pattern(SLANT_HANKEL, l).passed

    def test_even_column_compression_is_slant_toeplitz(self):
        # composing with Cz(2) keeps even columns; the result must be a
        # slant-toeplitz section equal to the closed form
        v = v_section(GENERIC, row_hi=9, col_hi=33)
        squeeze = build_elementary(Elementary("Cz", 2), IndexWindow(0, 16))
        even = compose(v, squeeze)
        assert check_pattern(SLANT_TOEPLITZ, even).passed
        b = build_family(SLANT_TOEPLITZ, GENERIC, even.rows, even.cols)
        assert np.array_equal(even.data, b.data)

    def test_odd_column_compression_is_slant_hankel(self):
        v = v_section(GENERIC, row_hi=9, col_hi=33)
        odd = compose(v, compose(build_elementary(Elementary("Mz", 1), IndexWindow(0, 32)),
                                 build_elementary(Elementary("Cz", 2), IndexWindow(0, 16))))
        assert check_pattern(SLANT_HANKEL, odd).passed
        l = build_family(SLANT_HANKEL, GENERIC, odd.rows, odd.cols)
        assert np.array_equal(odd.data, l.data)

    def test_perturbation_caught(self):
        b = build_family(SLANT_TOEPLITZ, GENERIC, IndexWindow(0, 8), IndexWindow(0, 16))
        report = check_pattern(SLANT_TOEPLITZ, perturbed(b, 3, 4))
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
        # windows not anchored at 0 were a WindowError; rows 1..5 x columns 0..9 hold degrees -2..15
        section = build_family(SLANT_H_TOEPLITZ, parse_symbol("-3:1, -2:2, 15:3, 16:4"), IndexWindow(1, 5),
                               IndexWindow(0, 9))
        assert extract_symbol(section) == parse_symbol("-2:2, 15:3")

    def test_reads_past_the_first_two_columns(self):
        # 9 x 34 holds degrees -16..33; columns 0 and 1 and row 0 reached only -16..17, so z^20 was lost
        section = v_section(parse_symbol("0:2, 20:1"))
        assert extract_symbol(section) == parse_symbol("0:2, 20:1")
        for depth in range(4):
            assert check_extension_conditions(section, depth).passed, depth

    @settings(deadline=None, max_examples=60)
    @given(st.dictionaries(st.integers(-30, 60), st.sampled_from([1.0, -2j, 3 + 1j]), max_size=8).map(LaurentSymbol),
           st.integers(0, 5), st.integers(-1, 10), st.integers(0, 10), st.integers(-1, 40),
           st.sampled_from([1, 13, windowed._BLOCK]))
    def test_reads_every_degree_the_windows_hold(self, phi, row_lo, row_size, col_lo, col_size, block):
        rows, cols = IndexWindow(row_lo, row_lo + row_size), IndexWindow(col_lo, col_lo + col_size)
        held = {SLANT_H_TOEPLITZ.degree(i, j) for i in rows.indices() for j in cols.indices()}
        with mock.patch.object(windowed, "_BLOCK", block):
            got = extract_symbol(build_family(SLANT_H_TOEPLITZ, phi, rows, cols))
        assert got == LaurentSymbol({n: a for n, a in phi.items() if n in held})

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 8), st.integers(0, 33),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 33), st.sampled_from([1.0, 1j, -2.5, -3.0])),
                    max_size=4),
           st.sampled_from([1, 13, windowed._BLOCK]))
    def test_a_failing_section_reads_back_each_first_entry(self, rows_hi, cols_hi, changes, block):
        # the readback compares nothing: each degree is its entry first in C order, however its others differ
        m = v_section(GENERIC, rows_hi, cols_hi)
        for i, j, delta in changes:
            if i <= rows_hi and j <= cols_hi:
                m = perturbed(m, i, j, delta)
        first = {}
        for i in m.rows.indices():
            for j in m.cols.indices():
                first.setdefault(SLANT_H_TOEPLITZ.degree(i, j), m.data[i, j])
        with mock.patch.object(windowed, "_BLOCK", block):
            assert extract_symbol(m) == LaurentSymbol(first)

    def test_partial_recovery_trims_to_window(self):
        # columns up to 9 only reach degrees down to -4, so the -9 term is lost
        narrow = build_family(SLANT_H_TOEPLITZ, parse_symbol("-9:4, 0:1"), IndexWindow(0, 8), IndexWindow(0, 9))
        assert extract_symbol(narrow) == parse_symbol("0:1")


class TestCharacterization:
    def test_sections_pass(self, rng):
        symbols = [phi for _, phi in CORPUS] + [random_symbol(rng, span=6) for _ in range(3)]
        for phi in symbols:
            section = build_family(SLANT_H_TOEPLITZ, phi, IndexWindow(0, 9), IndexWindow(0, 31))
            report = check_characterization(section)
            assert report.passed and report.max_residual <= 1e-12

    def test_agreement_with_pattern_predicate(self, rng):
        # both checks accept clean sections and both reject perturbed ones
        for spot in ((0, 0), (1, 4), (0, 4)):
            section = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 9), IndexWindow(0, 31))
            bad = perturbed(section, *spot)
            pattern = check_slant_h_matrix(bad)
            identity = check_characterization(bad)
            assert not pattern.passed and pattern.witnesses
            assert not identity.passed and identity.witnesses

    def test_zero_matrix_passes(self):
        section = build_family(SLANT_H_TOEPLITZ, ZERO, IndexWindow(0, 9), IndexWindow(0, 31))
        assert check_characterization(section).passed

    def test_rejects_insufficient_windows(self):
        # the characterization needs columns 0..C with C >= 7, as (b) reads column 7
        section = build_family(SLANT_H_TOEPLITZ, GENERIC, IndexWindow(0, 9), IndexWindow(0, 5))
        with pytest.raises(WindowError):
            check_characterization(section)

    def test_every_change_on_a_shared_degree_fails(self):
        # on one domain 0:(C-7)//4, (a) read columns only up to about C/2: 81 of the 302 such changes passed at 9 x 34
        # and 256 of 1,036 at 16 x 65; each identity reads every instance the windows hold now
        for rows_hi, cols_hi, shared in ((8, 33, 302), (15, 64, 1036)):
            rows, cols = IndexWindow(0, rows_hi), IndexWindow(0, cols_hi)
            section = build_family(SLANT_H_TOEPLITZ, GENERIC, rows, cols)
            degrees = collections.Counter(SLANT_H_TOEPLITZ.degree(i, j) for i in rows.indices() for j in cols.indices())
            spots = [(i, j) for i in rows.indices() for j in cols.indices()
                     if degrees[SLANT_H_TOEPLITZ.degree(i, j)] > 1]
            assert len(spots) == shared
            for i, j in spots:
                report = check_characterization(perturbed(section, i, j))
                assert not report.passed and report.witnesses, (i, j)


def linked_classes(pairs, rows_hi, cols_hi):
    """Each cell's class root on rows 0..rows_hi x cols 0..cols_hi, by union-find over the two cells of every
    instance of `pairs` (tag, left map, right map): every (i, j), j >= 0, j = 0 for a column step 0, whose two
    cells lie in the windows."""
    width = cols_hi + 1
    parent = list(range((rows_hi + 1) * width))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for _, *maps in pairs:
        for i in range(-max(r for r, _, _ in maps), rows_hi + 1):
            for j in range(cols_hi + 1 if all(s for _, s, _ in maps) else 1):
                cells = [(i + r, s * j + c) for r, s, c in maps]
                if all(0 <= row <= rows_hi and 0 <= col <= cols_hi for row, col in cells):
                    (a, b), (c, d) = cells
                    parent[find(a * width + b)] = find(c * width + d)
    return [find(x) for x in range(len(parent))]


def decides_the_pattern(pairs, rows_hi, cols_hi):
    """Whether the linked classes are exactly the cells of each slant-h degree."""
    roots = linked_classes(pairs, rows_hi, cols_hi)
    degrees = [SLANT_H_TOEPLITZ.degree(i, j) for i in range(rows_hi + 1) for j in range(cols_hi + 1)]
    return len(set(roots)) == len(set(degrees)) == len(set(zip(roots, degrees)))


class TestCharacterizationIsComplete:
    """The five identities decide the slant-h pattern: a finite form of the paper's theorem that an operator is
    slant H-Toeplitz iff its matrix is. On these windows a section passes check_characterization at tol 0 iff it
    passes the pattern."""

    ROWS = [(tag, *maps) for tag, _, *maps in structure._identities(1) if tag]

    def test_each_identity_links_cells_of_one_degree(self):
        assert len(self.ROWS) == 5
        degree = SLANT_H_TOEPLITZ.degree
        for tag, (r, s, c), (r2, s2, c2) in self.ROWS:
            for i in range(20):
                for j in range(20):
                    assert degree(i + r, s * j + c) == degree(i + r2, s2 * j + c2), tag

    def test_links_each_degree_on_every_admitted_window(self):
        windows = [(rows_hi, cols_hi) for rows_hi in range(1, 13) for cols_hi in range(7, 48)]
        assert len(windows) == 492
        for rows_hi, cols_hi in windows:
            assert decides_the_pattern(self.ROWS, rows_hi, cols_hi), (rows_hi, cols_hi)

    def test_each_identity_is_needed(self):
        for k, (tag, *_) in enumerate(self.ROWS):
            assert not decides_the_pattern(self.ROWS[:k] + self.ROWS[k + 1 :], 15, 64), tag


class TestPatternMembers:
    """The measured members of the paper's third claim, when a section of one family carries another's pattern, on
    rows 0..39 x columns 0..160."""

    ROWS, COLS = IndexWindow(0, 39), IndexWindow(0, 160)

    def section(self, kind, phi):
        return build_family(kind, phi, self.ROWS, self.COLS)

    def test_h_toeplitz_of_a_co_analytic_symbol_is_slant_toeplitz(self, rng):
        for _ in range(100):
            phi = gaussian_symbol(rng, range(-12, 1))
            sh = self.section(H_TOEPLITZ, phi)
            assert check_pattern(SLANT_TOEPLITZ, sh, 0.0).passed
            squared = LaurentSymbol({2 * n: a for n, a in phi.items()})  # phi(z^2)
            assert np.array_equal(sh.data.view(np.uint64), self.section(SLANT_TOEPLITZ, squared).data.view(np.uint64))

    def test_slant_toeplitz_of_an_even_co_analytic_symbol_is_h_toeplitz(self, rng):
        for _ in range(100):
            psi = gaussian_symbol(rng, range(-12, 1, 2))
            assert check_pattern(H_TOEPLITZ, self.section(SLANT_TOEPLITZ, psi), 0.0).passed

    def test_hankel_and_slant_hankel_of_z_are_one_entry(self):
        z = parse_symbol("1:1")
        for kind, other in ((HANKEL, SLANT_HANKEL), (SLANT_HANKEL, HANKEL)):
            section = self.section(kind, z)
            assert np.argwhere(section.data).tolist() == [[0, 0]] and section.data[0, 0] == 1
            assert check_pattern(other, section, 0.0).passed

    def test_no_slant_toeplitz_or_slant_hankel_section_is_slant_h(self, rng):
        nonzero = 0
        for _ in range(200):
            psi = gaussian_symbol(rng, range(-12, 13))
            for kind in (SLANT_TOEPLITZ, SLANT_HANKEL):
                section = self.section(kind, psi)
                if section.data.any():
                    nonzero += 1
                    assert not check_pattern(SLANT_H_TOEPLITZ, section, 0.0).passed, (kind.name, psi)
        assert nonzero > 300  # every B_psi and most L_psi: L_psi vanishes when psi has no positive degree


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
        report = check_characterization(bad)
        assert not report.passed and report.witnesses

    def test_equal_infinite_entries_fail(self):
        # (a) compares A[0,0] with A[1,4]: inf - inf is nan, so they fail, and the witness prints the stored entries,
        # where the composed identity sides read inf:nan
        data = np.zeros((2, 8), complex)
        data[0, 0] = data[1, 4] = float("inf")
        report = check_characterization(WindowedMatrix(IndexWindow(0, 1), IndexWindow(0, 7), data))
        assert report.render() == "FAIL max_residual=nan\nA.Cz2=U*.A.Cz2.U2 (0,0) lhs=inf:0.0 rhs=inf:0.0\n"
        data[0, 0], data[1, 4] = 1.0, complex(-0.0, 0.0)  # a stored -0.0 reads -0.0, where a composed side read +0
        report = check_characterization(WindowedMatrix(IndexWindow(0, 1), IndexWindow(0, 7), data))
        assert report.witnesses[0].render() == "A.Cz2=U*.A.Cz2.U2 (0,0) lhs=1.0:0.0 rhs=-0.0:0.0"

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


def hypot_fold(groups, tol, cap=WITNESS_CAP):
    """The fold _collect must reproduce, with hypot formed on every instance."""
    max_residual, witnesses, checked = 0.0, [], 0
    for relation, lhs, rhs, at, _ in groups:
        with np.errstate(invalid="ignore", over="ignore"):
            residual = np.hypot(lhs.real - rhs.real, lhs.imag - rhs.imag)
        if not residual.size:
            continue
        checked += residual.size
        peak = float(residual.max())
        if peak > max_residual or math.isnan(peak):
            max_residual = peak
        for p in np.flatnonzero(~(residual <= tol))[: cap - len(witnesses)].tolist():
            witnesses.append(Witness(relation, at(p), complex(lhs.flat[p]), complex(rhs.flat[p])))
    return CheckReport(max_residual <= tol, max_residual, tuple(witnesses), checked)


def report_bits(report):
    """A report with every float as its bytes, so NaNs and signed zeros compare exactly."""
    witnesses = [(w.relation, w.indices, struct.pack("<4d", w.lhs.real, w.lhs.imag, w.rhs.real, w.rhs.imag))
                 for w in report.witnesses]
    return report.passed, struct.pack("<d", report.max_residual), witnesses, report.checked, report.render()


extreme = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf")])


class TestCollect:
    @settings(deadline=None, max_examples=200)
    @given(st.data(), st.sampled_from([1e-12, 0.0, -1.0, float("inf"), float("nan")]), st.sampled_from([1, 3, WITNESS_CAP]))
    def test_matches_hypot_on_every_instance(self, data, tol, cap):
        groups = []
        for g in range(data.draw(st.integers(0, 4))):
            shape = data.draw(st.sampled_from([(0,), (1,), (5,), (2, 3), (3, 0)]))
            size = math.prod(shape)
            parts = [np.array(data.draw(st.lists(extreme, min_size=size, max_size=size))).reshape(shape) for _ in range(4)]
            lhs, rhs = np.empty(shape, complex), np.empty(shape, complex)  # parts set directly: 1j * inf is nan
            lhs.real, lhs.imag, rhs.real, rhs.imag = parts
            groups.append((f"r{g}", lhs, rhs, lambda p, g=g: (g, p), size))
        with mock.patch.object(structure, "WITNESS_CAP", cap):
            assert report_bits(_collect(groups, tol)) == report_bits(hypot_fold(groups, tol, cap))


# Scalar reference scan: every relation instance folded one at a time, in the
# scan order the vectorised checks must reproduce byte for byte. The hand-written
# slant-h and step relations are no longer what the pattern checks scan: they stay
# as judges of lost coverage, since each pairs two entries of one degree.


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


def degree_class_instances(kind, m):
    """Each entry against its degree's anchor, the first entry of that degree in C order."""
    anchors = {}
    for i in m.rows.indices():
        for j in m.cols.indices():
            p, q = anchors.setdefault(kind.degree(i, j), (i, j))
            if (p, q) != (i, j):
                yield "a[i,j]=a[p,q]", (p, q, i, j), m.entry(p, q), m.entry(i, j)


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


# Each identity's domain is the widest on which both sides read only the section's columns 0..C.
def characterization_instances(m):
    hi, e0 = m.cols.hi, IndexWindow(0, 0)
    yield from identity_instances(
        "A.Cz2=U*.A.Cz2.U2",
        compose_chain([m, Elementary("Cz", 2)], IndexWindow(0, (hi - 4) // 2)),
        compose_chain([USTAR, m, Elementary("Cz", 2), Elementary("Mz", 2)], IndexWindow(0, (hi - 4) // 2)),
    )
    yield from identity_instances(
        "U*.A.Mz3.Cz4=A.Mz3.Cz4.U",
        compose_chain([USTAR, m, Elementary("Mz", 3), Elementary("Cz", 4)], IndexWindow(0, (hi - 7) // 4)),
        compose_chain([m, Elementary("Mz", 3), Elementary("Cz", 4), U], IndexWindow(0, (hi - 7) // 4)),
    )
    yield from identity_instances(
        "U*.A.e0=A.Mz3.e0",
        compose_chain([USTAR, m.restrict(m.rows, e0)], e0),
        compose_chain([m, Elementary("Mz", 3)], e0),
    )
    yield from identity_instances(
        "U*.A.Mz.Cz4=A.Mz.Cz4.U",
        compose_chain([USTAR, m, Elementary("Mz", 1), Elementary("Cz", 4)], IndexWindow(0, (hi - 5) // 4)),
        compose_chain([m, Elementary("Mz", 1), Elementary("Cz", 4), U], IndexWindow(0, (hi - 5) // 4)),
    )
    yield from identity_instances(
        "U*.A.Mz2.e0=A.Mz.e0",
        compose_chain([USTAR, m, Elementary("Mz", 2)], e0),
        compose_chain([m, Elementary("Mz", 1)], e0),
    )


def continuation(a, depth):
    return build_family(extension(depth), extract_symbol(a), IndexWindow(-depth, a.rows.hi), a.cols)


def extension_instances(am, a, depth):
    hi, e0 = a.cols.hi, IndexWindow(0, 0)
    yield from identity_instances(
        "Am.Cz2=S(-m).A.Cz2.U2m",
        compose_chain([am, Elementary("Cz", 2)], IndexWindow(0, (hi - 4 * depth) // 2)),
        compose_chain([Elementary("S", -depth), a, Elementary("Cz", 2), Elementary("Mz", 2 * depth)],
                      IndexWindow(0, (hi - 4 * depth) // 2)),
    )
    yield from identity_instances(
        "U*.Am.Mz3.Cz4=A.Mz3.Cz4.U",
        compose_chain([USTAR, am, Elementary("Mz", 3), Elementary("Cz", 4)], IndexWindow(0, (hi - 7) // 4)),
        compose_chain([a, Elementary("Mz", 3), Elementary("Cz", 4), U], IndexWindow(0, (hi - 7) // 4)),
    )
    yield from identity_instances(
        "U*.Am.e0=A.Mz3.e0",
        compose_chain([USTAR, am.restrict(am.rows, e0)], e0),
        compose_chain([a, Elementary("Mz", 3)], e0),
    )
    yield from identity_instances(
        "U*.Am.Mz.Cz4=A.Mz.Cz4.U",
        compose_chain([USTAR, am, Elementary("Mz", 1), Elementary("Cz", 4)], IndexWindow(0, (hi - 5) // 4)),
        compose_chain([a, Elementary("Mz", 1), Elementary("Cz", 4), U], IndexWindow(0, (hi - 5) // 4)),
    )
    yield from identity_instances(
        "U*.Am.Mz2.e0=A.Mz.e0",
        compose_chain([USTAR, am, Elementary("Mz", 2)], e0),
        compose_chain([a, Elementary("Mz", 1)], e0),
    )
    yield from identity_instances("Am[i,j]=A[i,j]", am, a)


def assert_same(report, reference):
    assert report.render() == reference.render()
    assert report.checked == reference.checked
    assert type(report.max_residual) is float
    for w in report.witnesses:
        assert all(type(i) is int for i in w.indices)
        assert type(w.lhs) is complex and type(w.rhs) is complex


def distinct(m, base=0):
    """m's windows holding base + 1, base + 2, ... in C order: a composed side of it names the entry it reads."""
    return WindowedMatrix(m.rows, m.cols, np.arange(base + 1.0, base + 1.0 + m.data.size).reshape(m.data.shape) + 0j)


def assert_same_on_entries(report, reference, instances, sections):
    """The composed sides multiply each entry by 1+0j, which turns inf:0.0 into inf:nan, so on non-finite entries
    only the verdict, the count and the witness indices are the reference's, and each witness value must be the
    entry its side reads: `instances` are the reference instances of `distinct` copies of `sections`."""
    assert (report.passed, report.checked) == (reference.passed, reference.checked)
    assert [(w.relation, w.indices) for w in report.witnesses] == [(w.relation, w.indices) for w in reference.witnesses]
    stored = {code: value for s, base in sections for code, value in zip(distinct(s, base).data.flat, s.data.flat)}
    read = {(relation, indices): (stored[lhs], stored[rhs]) for relation, indices, lhs, rhs in instances}
    for w in report.witnesses:
        lhs, rhs = read[w.relation, w.indices]
        assert struct.pack("<4d", w.lhs.real, w.lhs.imag, w.rhs.real, w.rhs.imag) == struct.pack(
            "<4d", lhs.real, lhs.imag, rhs.real, rhs.imag)


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
        with mock.patch.object(structure, "WITNESS_CAP", cap):
            report = check_slant_h_matrix(m)
            assert_same(report, reference_fold(degree_class_instances(SLANT_H_TOEPLITZ, m), cap=cap))
        # every hand relation pairs two entries of one degree, so what it flags the classes flag
        assert reference_fold(slant_h_instances(m)).passed or not report.passed

    @DIFFERENTIAL
    @given(sections(st.integers(0, 3), st.integers(1, 8), st.integers(0, 3), st.integers(3, 20)), caps)
    def test_step_predicates(self, m, cap):
        for kind, relation, di in ((SLANT_TOEPLITZ, "a[i,j]=a[i+1,j+2]", 1), (SLANT_HANKEL, "a[i,j]=a[i-1,j+2]", -1)):
            with mock.patch.object(structure, "WITNESS_CAP", cap):
                report = check_pattern(kind, m)
                assert_same(report, reference_fold(degree_class_instances(kind, m), cap=cap))
            assert reference_fold(step_instances(m, relation, di)).passed or not report.passed

    # the identities read entry pairs from the section; the references compose each side as an operator chain
    @DIFFERENTIAL
    @given(sections(st.just(0), st.integers(2, 8), st.just(0), st.integers(7, 30)), caps)
    def test_characterization(self, m, cap):
        reference = reference_fold(characterization_instances(m), cap=cap)
        with mock.patch.object(structure, "WITNESS_CAP", cap):
            report = check_characterization(m)
        if np.isfinite(m.data).all():
            assert_same(report, reference)
        else:
            assert_same_on_entries(report, reference, characterization_instances(distinct(m)), [(m, 0)])

    @DIFFERENTIAL
    @given(sections(st.just(0), st.integers(2, 8), st.just(0), st.integers(11, 30)), st.integers(0, 2), caps)
    def test_extension(self, m, depth, cap):
        try:
            am = continuation(m, depth)
        except ValueError:  # a non-finite entry read back into the symbol fails closed
            assert check_extension_conditions(m, depth).render() == "FAIL max_residual=nan\n"
            return
        reference = reference_fold(extension_instances(am, m, depth), cap=cap)
        with mock.patch.object(structure, "WITNESS_CAP", cap):
            report = check_extension_conditions(m, depth)
        if np.isfinite(m.data).all():
            assert_same(report, reference)
        else:
            base = m.data.size  # A_m's codes follow A's
            instances = extension_instances(distinct(am, base), distinct(m), depth)
            assert_same_on_entries(report, reference, instances, [(m, 0), (am, base)])

    @DIFFERENTIAL
    @given(sections(st.just(0), st.integers(2, 8), st.just(0), st.integers(7, 30)),
           st.sampled_from([0.0, 1e-12, 1.0, -1.0, float("nan")]))
    def test_characterization_folds_every_tolerance_as_the_reference(self, m, tol):
        # at tol >= 0 only the instances whose entries differ are folded; otherwise every instance is
        if np.isfinite(m.data).all():
            assert_same(check_characterization(m, tol), reference_fold(characterization_instances(m), tol=tol))

    def test_characterization_reads_rows_in_blocks(self):
        # blocks of one row and of a few cells fold as one block of the whole section; identity (a) of the
        # extension check starts at row -d of the rebuilt section, so its blocks start off the others' edges
        m = perturbed(perturbed(v_section(GENERIC), 4, 9, float("nan")), 6, 20, 2j)
        whole = check_characterization(m)
        extended = {d: check_extension_conditions(m, d) for d in (1, 2, 3)}
        for cells in (1, 13, 40):
            with mock.patch.object(windowed, "_BLOCK", cells):
                assert_same(check_characterization(m), whole)
                for d, report in extended.items():
                    assert_same(check_extension_conditions(m, d), report)
        assert not whole.passed and len(whole.witnesses) > 2
        assert all(not report.passed and report.witnesses for report in extended.values())

    def test_vacuous_window_matches(self):
        # row 0 holds each degree once
        m = v_section(GENERIC, row_hi=0, col_hi=9)
        report = check_slant_h_matrix(m)
        assert report.vacuous
        assert_same(report, reference_fold(degree_class_instances(SLANT_H_TOEPLITZ, m)))


ALL_KINDS = COMPOSITIONAL_KINDS + tuple(extension(depth) for depth in (1, 2, 3))


@st.composite
def family_windows(draw):
    """A family, a symbol and windows inside the family's range."""
    kind = draw(st.sampled_from(ALL_KINDS))
    lo = draw(st.integers(0, 3)) - kind.depth
    rows = IndexWindow(lo, lo + draw(st.integers(-1, 8)))
    lo = draw(st.integers(0, 4))
    cols = IndexWindow(lo, lo + draw(st.integers(-1, 24)))
    return kind, draw(symbols), rows, cols


class TestPattern:
    """check_pattern of every family, on both routes, against the scalar degree-class fold."""

    @DIFFERENTIAL
    @given(family_windows())
    def test_both_routes_pass_their_own_pattern(self, case):
        kind, phi, rows, cols = case
        oracle = build_compositional(kind, phi, cols)
        from_oracle = oracle.embed(oracle.rows.hull(rows), cols).restrict(rows, cols)
        for m in (build_family(kind, phi, rows, cols), from_oracle):
            report = check_pattern(kind, m)
            assert report.passed and report.max_residual == 0.0, kind.name
            assert_same(report, reference_fold(degree_class_instances(kind, m)))

    @DIFFERENTIAL
    @given(family_windows(), spikes, caps, st.data())
    def test_a_change_fails_exactly_on_a_shared_degree(self, case, spike, cap, data):
        kind, phi, rows, cols = case
        if rows.is_empty or cols.is_empty:
            return
        i, j = data.draw(st.integers(rows.lo, rows.hi)), data.draw(st.integers(cols.lo, cols.hi))
        m = perturbed(build_family(kind, phi, rows, cols), i, j, spike)
        degrees = collections.Counter(kind.degree(r, c) for r in rows.indices() for c in cols.indices())
        with mock.patch.object(structure, "WITNESS_CAP", cap):
            report = check_pattern(kind, m)
            assert_same(report, reference_fold(degree_class_instances(kind, m), cap=cap))
        assert report.passed == (degrees[kind.degree(i, j)] == 1), kind.name
        assert all((i, j) in (w.indices[:2], w.indices[2:]) for w in report.witnesses)

    def test_rows_are_read_in_blocks(self):
        # blocks of one row and of a few cells see the same anchors as one block of the whole section
        # degree 9 is held at (3, 5), (4, 1) and (5, 2) in rows 0..9 x columns 0..5
        m = perturbed(v_section(GENERIC, 9, 5), 4, 1)
        whole = check_slant_h_matrix(m)
        for cells in (1, 13, 40):
            with mock.patch.object(windowed, "_BLOCK", cells):
                assert_same(check_slant_h_matrix(m), whole)
        assert [w.indices for w in whole.witnesses] == [(3, 5, 4, 1)]

    @DIFFERENTIAL
    @given(family_windows(), spikes, st.sampled_from([0.0, 1e-12, 2.0, float("inf"), -1.0, float("nan")]), st.data())
    def test_every_tolerance_folds_as_the_reference(self, case, spike, tol, data):
        # at tol >= 0 the scan folds only the entries that differ from their anchor; a negative or NaN tol fails
        # the equal ones too, so every instance is then folded
        kind, phi, rows, cols = case
        m = build_family(kind, phi, rows, cols)
        if not (rows.is_empty or cols.is_empty):
            m = perturbed(m, data.draw(st.integers(rows.lo, rows.hi)), data.draw(st.integers(cols.lo, cols.hi)), spike)
        assert_same(check_pattern(kind, m, tol), reference_fold(degree_class_instances(kind, m), tol=tol))

    @pytest.mark.parametrize("text", ["2:1", "-1:1, 2:1"])
    def test_slant_hankel_sections_lack_the_slant_h_pattern(self, text):
        # the slant-hankel L_phi of z^2 and of z^-1 + z^2 is not slant-h on 11 x 40
        m = build_family(SLANT_HANKEL, parse_symbol(text), IndexWindow(0, 10), IndexWindow(0, 39))
        assert not check_pattern(SLANT_H_TOEPLITZ, m).passed

    def test_slant_hankel_sections_are_slant_h_iff_no_positive_degree(self):
        # L_phi's entry (i, j) has degree 2i+j+1 >= 1, so it is zero iff phi has no positive degree; a nonzero
        # L_phi was called slant-h for phi = sum_{n<=0} a_n z^n + a_2 z^2, but z^-1+z^2 fails on its z^2 entries
        for label, phi in CORPUS:
            m = build_family(SLANT_HANKEL, phi, IndexWindow(0, 10), IndexWindow(0, 39))
            assert check_slant_h_matrix(m).passed == all(n <= 0 for n, _ in phi.items()), label
        m = build_family(SLANT_HANKEL, dict(CORPUS)["z^-1+z^2"], IndexWindow(0, 10), IndexWindow(0, 39))
        report = check_slant_h_matrix(m)
        assert report.witnesses and report.witnesses[0].render() == "a[i,j]=a[p,q] (0,1,1,2) lhs=1.0:0.0 rhs=0.0:0.0"

    @pytest.mark.parametrize("text", ["2:1", "-1:1, 2:1"])
    def test_characterization_rejects_the_slant_hankel_sections(self, text):
        # (a)-(c) passed both: they never read a column = 1 (mod 4), and z^2 sits at (0, 1); (e) reads it
        m = build_family(SLANT_HANKEL, parse_symbol(text), IndexWindow(0, 10), IndexWindow(0, 39))
        report = check_characterization(m)
        assert not report.passed and report.witnesses
        assert report.witnesses[0].render() == "U*.A.Mz2.e0=A.Mz.e0 (0,0) lhs=0.0:0.0 rhs=1.0:0.0"

    @DIFFERENTIAL
    @given(symbols, st.integers(1, 8), st.integers(7, 30), st.data())
    def test_the_pattern_implies_the_identities(self, phi, rows_hi, cols_hi, data):
        # every identity instance compares two entries of one degree, so a section with the slant-h pattern passes
        # them all, at every depth; entries of degrees held once are free and are changed to finite values here
        rows, cols = IndexWindow(0, rows_hi), IndexWindow(0, cols_hi)
        m = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
        degrees = collections.Counter(SLANT_H_TOEPLITZ.degree(i, j) for i in rows.indices() for j in cols.indices())
        free = [(i, j) for i in rows.indices() for j in cols.indices() if degrees[SLANT_H_TOEPLITZ.degree(i, j)] == 1]
        for i, j in data.draw(st.lists(st.sampled_from(free), max_size=4)) if free else []:
            m = perturbed(m, i, j, data.draw(st.sampled_from([1.0, 1j, -2.5])))
        assert check_pattern(SLANT_H_TOEPLITZ, m).passed
        assert check_characterization(m).passed
        for depth in range(4):
            if cols_hi >= 4 * depth:
                assert check_extension_conditions(m, depth).passed, depth


    def test_the_identities_link_exactly_the_entries_of_one_degree(self):
        # as a graph on the entries, the instances' pairs have the degree classes as components, so a section passes
        # the identities iff it has the slant-h pattern; at tol -1 every instance is a witness, and on distinct
        # entries its values name the two entries it compares
        for rows_hi in (1, 2, 3, 5, 8):
            for cols_hi in range(7, 41):
                m = distinct(v_section(ZERO, rows_hi, cols_hi))
                with mock.patch.object(structure, "WITNESS_CAP", m.data.size * 8):
                    report = check_characterization(m, -1.0)
                assert len(report.witnesses) == report.checked
                root = list(range(m.data.size))

                def find(p):
                    while root[p] != p:
                        p = root[p]
                    return p

                for w in report.witnesses:
                    root[find(int(w.lhs.real) - 1)] = find(int(w.rhs.real) - 1)
                cells = [(i, j) for i in m.rows.indices() for j in m.cols.indices()]
                components = {(find(p), SLANT_H_TOEPLITZ.degree(*cells[p])) for p in range(len(cells))}
                assert len(components) == len({c for c, _ in components}) == len({d for _, d in components})


class TestAnchorTable:
    """The anchor table holds a slot per degree near the degrees the windows hold, even on far columns."""

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(ALL_KINDS), st.integers(0, 3), st.integers(-1, 9),
           st.one_of(st.integers(0, 6), st.integers(0, 2**40), st.sampled_from([2**40, 2**40 + 1, 2**60])),
           st.integers(-1, 12))
    def test_slots_are_few_and_each_holds_its_degree(self, kind, row_lo, row_size, col_lo, col_size):
        rows = IndexWindow(row_lo - kind.depth, row_lo - kind.depth + row_size)
        cols = IndexWindow(col_lo, col_lo + col_size)
        try:
            runs, shift = structure._slots(kind, rows, cols)
        except WindowError:  # a degree past int64
            return
        # a size probe, read from the runs before any table is made: the far columns of a slant-h window hold
        # degrees about a column index apart
        assert sum(hi - lo + 1 for lo, hi in runs) <= rows.size * cols.size + 2 * (rows.size + cols.size)
        degrees = np.array([n for lo, hi in runs for n in range(lo, hi + 1)], dtype=np.int64)
        i, j = rows.index_array()[:, None], cols.index_array()
        offset = shift if np.ndim(shift) == 0 else shift[i % 2, j % 2]
        slot = kind.degree(i, j) + offset
        assert np.array_equal(degrees[slot], np.broadcast_to(kind.degree(i, j), slot.shape))

    @DIFFERENTIAL
    @given(st.sampled_from(ALL_KINDS), st.integers(0, 3), st.integers(0, 5), st.sampled_from([2**20, 2**20 + 1, 2**33 + 3]),
           st.integers(0, 9), spikes, st.data())
    def test_far_windows_fold_as_the_reference(self, kind, row_lo, row_size, col_lo, col_size, spike, data):
        # several runs of degrees, so each parity piece has an offset of its own
        rows = IndexWindow(row_lo - kind.depth, row_lo - kind.depth + row_size)
        cols = IndexWindow(col_lo, col_lo + col_size)
        phi = LaurentSymbol({kind.degree(rows.lo, cols.lo): 1.5, kind.degree(rows.hi, cols.hi): -2j})
        m = perturbed(build_family(kind, phi, rows, cols), data.draw(st.integers(rows.lo, rows.hi)),
                      data.draw(st.integers(cols.lo, cols.hi)), spike)
        assert_same(check_pattern(kind, m), reference_fold(degree_class_instances(kind, m)))

    def test_a_file_section_is_scanned_twice_then_loaded(self):
        # a file section holds the triplets of its cells: each scan puts them into its row blocks, and builds no
        # cells, until `data` builds them
        text = dump_matrix(perturbed(v_section(GENERIC), 4, 1, -0.0 - 2.5j))
        loaded, section = windowed.load_matrix(text), windowed.stream_matrix(text)
        assert check_slant_h_matrix(section).render() == check_slant_h_matrix(loaded).render()
        assert extract_symbol(section) == extract_symbol(loaded)
        assert section._cells is None and section._triplets is not None
        assert np.array_equal(section.data.view(np.uint64), loaded.data.view(np.uint64))
        assert not check_slant_h_matrix(section).passed

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: f"{kind.name}{kind.depth}")
    @pytest.mark.parametrize("headers", ["rows 0 -1\ncols 0 1000000000\n", "rows 0 1000000000\ncols 0 -1\n"])
    def test_a_file_with_no_cells_is_vacuous_on_any_window(self, kind, headers):
        # an empty window gives no row block: the scan built both windows' index arrays first, 7.45 GiB here
        section = windowed.stream_matrix(headers)
        tracemalloc.start()
        try:
            report, readback = check_pattern(kind, section), extract_symbol(section)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.render() == "PASS max_residual=0.0 vacuous=1\n" and readback == LaurentSymbol({})

    def test_far_columns(self):
        # columns 2**40 and 2**40 + 1 of row 0 hold degrees -2**39 and 2**39 + 1: the table spanned both, 8 TiB
        rows, cols = IndexWindow(0, 0), IndexWindow(2**40, 2**40 + 1)
        assert structure._slots(SLANT_H_TOEPLITZ, rows, cols)[0] == [[-(2**39), -(2**39)], [2**39 + 1, 2**39 + 1]]
        m = build_family(SLANT_H_TOEPLITZ, parse_symbol(f"{-(2**39)}:2, 0:1"), rows, cols)
        assert check_slant_h_matrix(m).render() == "PASS max_residual=0.0 vacuous=1\n"
        assert extract_symbol(m) == parse_symbol(f"{-(2**39)}:2")
