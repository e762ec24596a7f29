"""Property tests for the family records: the scatter in `build_family`
against a scalar loop over `Family.degree` in Python ints, windows and
degrees near int64's ends included, and the closed form against the
compositional oracle, bit for bit."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slanth import (
    COMPOSITIONAL_KINDS,
    SLANT_H_TOEPLITZ,
    IndexWindow,
    LaurentSymbol,
    WindowError,
    WindowedMatrix,
    build_compositional,
    build_family,
    dump_matrix,
    extension,
)
from slanth import families, verify
from slanth.verify import check_oracle

PROPERTY = settings(deadline=None, max_examples=30)
INT64 = np.iinfo(np.int64)

# signed zeros included, so the bit comparison covers -0.0 parts too
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-3, 3))
symbols = st.dictionaries(
    st.integers(-8, 8), st.builds(complex, parts, parts), max_size=8
).map(LaurentSymbol)
windows = st.tuples(st.integers(0, 6), st.integers(-1, 14))
all_kinds = COMPOSITIONAL_KINDS + tuple(extension(depth) for depth in (1, 2, 3))

# windows of 1-3 indices and symbol degrees near int64's ends, where numpy's arithmetic would wrap
far_windows = st.builds(
    lambda centre, offset, size: IndexWindow(centre + offset, centre + offset + size - 1),
    st.sampled_from([0, 2**61, -(2**61), 2**62, -(2**62)]), st.integers(-3, 3), st.integers(1, 3),
)
far_degrees = st.one_of(
    st.integers(-4, 4), st.sampled_from([2**62, -(2**62), 2**63 - 1, -(2**63 - 1), -(2**63)])
)
far_symbols = st.dictionaries(
    far_degrees, st.builds(complex, parts, parts), min_size=1, max_size=3
).map(LaurentSymbol)


# windows one or two columns wide of up to 10**4 rows, near 0 or far out
narrow_windows = st.builds(
    lambda centre, offset, height, col, width: (IndexWindow(centre + offset, centre + offset + height - 1),
                                                IndexWindow(centre + col, centre + col + width - 1)),
    st.sampled_from([0, 0, 2**40, 2**61]), st.integers(-3, 3), st.one_of(st.sampled_from([1, 2, 10**4]), st.integers(1, 10**4)),
    st.integers(0, 5), st.integers(1, 2),
)
# indices near 0 and near int64's ends, and past them
far_indices = st.builds(
    lambda centre, offset: centre + offset,
    st.sampled_from([0, 2**40, 2**62, 2**63 - 1, 2**63, 2**64]), st.integers(-40, 40),
)


def scalar_section(kind, phi, rows, cols):
    """The closed form one entry at a time: the coefficient of `kind.degree(i, j)`, in Python ints."""
    data = np.zeros((rows.size, cols.size), dtype=complex)
    for i in rows.indices():
        for j in cols.indices():
            value = phi.coeff(kind.degree(i, j))
            data[i - rows.lo, j - cols.lo] = (value.conjugate() if kind.conj else value) + 0j
    return data


@PROPERTY
@given(symbols, windows, windows)
def test_scatter_matches_scalar_entries(phi, row_span, col_span):
    cols = IndexWindow(col_span[0], col_span[0] + col_span[1])
    for kind in all_kinds:
        lo = row_span[0] - kind.depth
        rows = IndexWindow(lo, lo + row_span[1])
        got = build_family(kind, phi, rows, cols)
        assert got.data.tobytes() == scalar_section(kind, phi, rows, cols).tobytes(), kind.name


@settings(deadline=None, max_examples=200)
@given(far_symbols, far_windows, far_windows)
# slant-toeplitz's degree 2**63 at (2**62, 0) wrapped to -2**63 and read that coefficient
@example(LaurentSymbol({-(2**63): 1}), IndexWindow(2**62, 2**62), IndexWindow(0, 1))
# and 2**63 + 1 at (2**62 + 1, 1) to -(2**63 - 1)
@example(LaurentSymbol({-(2**63 - 1): 1}), IndexWindow(2**62 + 1, 2**62 + 1), IndexWindow(0, 1))
# a table over the whole support would hold 2**63 + 2 slots; the window's degrees need 3
@example(LaurentSymbol({-(2**62): 1, 0: 2, 2**62: 3}), IndexWindow(0, 1), IndexWindow(0, 1))
# h-toeplitz reads degrees 0 and 2**62 + 1 here: a table between the two terms was refused (2**62 slots)
@example(LaurentSymbol({0: 1j, 2**62: 1j}), IndexWindow(2**61, 2**61), IndexWindow(2**62, 2**62 + 1))
def test_scatter_near_int64_ends_matches_scalar_entries_or_refuses(phi, rows, cols):
    # the scatter equals the scalar loop bit for bit, or raises WindowError where a
    # window is out of the family's range or a degree leaves int64
    for kind in all_kinds:
        degrees = [kind.degree(i, j) for i in rows.indices() for j in cols.indices()]
        refusable = rows.lo < -kind.depth or cols.lo < 0 or not all(INT64.min <= d <= INT64.max for d in degrees)
        try:
            got = build_family(kind, phi, rows, cols)
        except WindowError:
            assert refusable, kind.name
            continue
        assert got.data.tobytes() == scalar_section(kind, phi, rows, cols).tobytes(), kind.name


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(COMPOSITIONAL_KINDS + tuple(extension(depth) for depth in range(1, 9))), far_indices, far_indices)
def test_piece_table_is_the_degree_map(kind, row, col):
    # on (i, j) = (2u + p, 2v + q), rows from -depth, the table's a_u*u + a_v*v + c is `degree`, in Python ints
    i = max(row, -kind.depth)
    (u, p), (v, q) = divmod(i, 2), divmod(abs(col), 2)
    a_u, a_v, c = families._piece_table(kind)[p, q]
    assert a_u * u + a_v * v + c == kind.degree(i, abs(col)), kind.name
    assert max(abs(a_u), abs(a_v)) % min(abs(a_u), abs(a_v)) == 0, kind.name  # the scatter's lattice segments


@settings(deadline=None, max_examples=20)
@given(st.data(), narrow_windows)
def test_scatter_on_narrow_windows_matches_scalar_entries_or_refuses(data, window):
    # each family's symbol holds terms at degrees of drawn cells, and next to them
    for kind in all_kinds:
        rows, cols = IndexWindow(max(window[0].lo, -kind.depth), max(window[0].hi, -kind.depth)), window[1]
        cells = data.draw(st.lists(st.tuples(st.integers(0, rows.size - 1), st.integers(0, cols.size - 1)), max_size=4))
        degrees = [kind.degree(rows.lo + r, cols.lo + c) + data.draw(st.integers(-2, 2)) for r, c in cells]
        phi = LaurentSymbol({d: complex(k + 1, -k) for k, d in enumerate(degrees) if INT64.min <= d <= INT64.max})
        try:
            got = build_family(kind, phi, rows, cols)
        except WindowError:
            held = [kind.degree(i, j) for i in rows.indices() for j in cols.indices()]
            assert not INT64.min <= min(held) <= max(held) <= INT64.max, kind.name
            continue
        assert got.data.tobytes() == scalar_section(kind, phi, rows, cols).tobytes(), kind.name


def test_scatter_on_a_tall_narrow_window_reads_only_its_entries():
    # column 0 of rows 0..3,000,000 holds degrees 0, 2, 4, ...: phi's terms 0 and 2, at rows 0 and 1; column 1 holds
    # 1, 3, 5, ...: term 1, at row 0. The scatter walked each row (165 ms); each term's lattice segment is one cell
    phi = LaurentSymbol({-1: 2, 0: 3, 1: 5, 2: 7})
    for cols, entries in ((IndexWindow(0, 0), [(0, 0, 3), (1, 0, 7)]), (IndexWindow(0, 1), [(0, 0, 3), (0, 1, 5), (1, 0, 7)])):
        i, j, v = build_family(SLANT_H_TOEPLITZ, phi, IndexWindow(0, 3_000_000), cols)._triplets
        assert sorted(zip(i.tolist(), j.tolist(), v.tolist())) == entries


@PROPERTY
@given(symbols, windows, windows, st.sampled_from([2**40, 2**59, 2**62, 2**63 - 1]))
def test_sparse_symbol_gathers_only_the_window_degrees(phi, row_span, col_span, far):
    # a small symbol with terms at +-far: their table over the support would not fit in memory
    sparse = LaurentSymbol({**dict(phi.items()), far: 1.5, -far: -2j})
    cols = IndexWindow(col_span[0], col_span[0] + col_span[1])
    for kind in all_kinds:
        lo = row_span[0] - kind.depth
        rows = IndexWindow(lo, lo + row_span[1])
        got = build_family(kind, sparse, rows, cols)
        assert got.data.tobytes() == scalar_section(kind, sparse, rows, cols).tobytes(), kind.name


def test_scatter_allocates_by_the_window_not_the_columns():
    # a 1 x 2 slant-h section on columns 2**20: its table spanned the 2**20 degrees between its two terms (33.6 MB)
    phi = LaurentSymbol({-(2**19): 1, 2**19 + 1: 2})
    tracemalloc.start()
    try:
        got = build_family(SLANT_H_TOEPLITZ, phi, IndexWindow(0, 0), IndexWindow(2**20, 2**20 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.data.tolist() == [[1, 2]]
    assert peak < 2**20


@PROPERTY
@given(symbols, windows, windows)
def test_triplets_of_both_routes_dump_as_their_sections(phi, row_span, col_span):
    cols = IndexWindow(col_span[0], col_span[0] + col_span[1])
    for kind in all_kinds:
        lo = row_span[0] - kind.depth
        rows = IndexWindow(lo, lo + row_span[1])
        for t in (build_family(kind, phi, rows, cols), build_compositional(kind, phi, cols)):
            assert dump_matrix(t) == dump_matrix(WindowedMatrix(t.rows, t.cols, t.data)), kind.name


def test_scatter_memory_is_set_by_the_window():
    # 10**5 terms, of which an 8 x 33 slant-h window holds the 48 of degrees -16..31: only those are read
    phi = LaurentSymbol({n: 1 + n % 7 for n in range(-50_000, 50_000)})
    rows, cols = IndexWindow(0, 7), IndexWindow(0, 32)
    tracemalloc.start()
    try:
        got = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.data.tobytes() == scalar_section(SLANT_H_TOEPLITZ, phi, rows, cols).tobytes()
    assert peak < 64 * got.data.nbytes  # 270 KB; reading every term took 10 MB


@PROPERTY
@given(symbols, windows)
def test_closed_form_matches_oracle(phi, col_span):
    # bit for bit: every zero of both routes reads +0, off the support and in a coefficient's parts
    cols = IndexWindow(col_span[0], col_span[0] + col_span[1])
    for kind in all_kinds:
        oracle = build_compositional(kind, phi, cols)
        rows = oracle.rows.hull(IndexWindow(-kind.depth, 4))
        primary = build_family(kind, phi, rows, cols)
        assert np.array_equal(primary.data.view(np.uint64), oracle.embed(rows, cols).data.view(np.uint64)), kind.name


def test_oracle_suite_compares_bits(monkeypatch):
    # conjugating the closed form after it is densified writes 0-0j off the support,
    # where the oracle writes +0: no entry deviates, yet the two routes differ in their bits
    build = verify.build_family

    def conjugated_after(kind, phi, rows, cols):
        section = build(kind._replace(conj=False), phi, rows, cols)
        return WindowedMatrix(rows, cols, np.conj(section.data)) if kind.conj else section

    monkeypatch.setattr(verify, "build_family", conjugated_after)
    assert check_oracle() == (False, "max_dev=0.0 combos=80")
