"""The section contract, for every builder. A section is its triplets; its `data` is read-only, the same array
on every read, and bit-identical to the scalar references; its dump reads the same before and after `data` is
read, and the same as the dump of its cells; and its triplets are column-major, rows ascending, with no cell
twice. The bodies on triplets (restrict, embed, adjoint, a difference) give the cells the dense bodies gave."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slanth import (
    COMPOSITIONAL_KINDS,
    SLANT_H_TOEPLITZ,
    IndexWindow,
    WindowedMatrix,
    WindowError,
    build_compositional,
    build_elementary,
    build_family,
    check_pattern,
    compose,
    dump_matrix,
    eval_expr,
    extension,
    extract_symbol,
    parse_symbol,
)
from slanth.windowed import Elementary, _difference, _scaled, adjoint, compose_chain
from test_expr import ref_nodes, ref_symbols
from test_family_table import scalar_section, symbols, windows
from test_windowed import (
    dense_chain,
    dense_compose,
    domains,
    elementaries,
    index_maps,
    laurent,
    reference_elementary,
    signed_zeros_cleared,
)

CONTRACT = settings(deadline=None, max_examples=60)
all_kinds = COMPOSITIONAL_KINDS + tuple(extension(depth) for depth in (1, 2, 3))


def dump_or_error(m) -> str:
    try:
        return dump_matrix(m)
    except ValueError as exc:  # a non-finite entry
        return f"error: {exc}"


def assert_section(m, want=None):
    """m keeps the contract; its cells equal `want`, an array, bit for bit, when given."""
    text = dump_or_error(m)  # before the cells are read
    data = m.data
    assert not data.flags.writeable and m.data is data
    assert data.shape == (m.rows.size, m.cols.size)
    assert dump_or_error(m) == text == dump_or_error(WindowedMatrix(m.rows, m.cols, data))
    if want is not None:
        assert np.array_equal(data.view(np.uint64), np.asarray(want).view(np.uint64))
    i, j, v = m._triplets
    assert i.shape == j.shape == v.shape
    assert np.all((j[1:] > j[:-1]) | ((j[1:] == j[:-1]) & (i[1:] > i[:-1])))
    assert np.all((m.rows.lo <= i) & (i <= m.rows.hi) & (m.cols.lo <= j) & (j <= m.cols.hi))


@CONTRACT
@given(symbols, windows, windows)
def test_families_and_oracles_keep_the_contract(phi, row_span, col_span):
    cols = IndexWindow(col_span[0], col_span[0] + col_span[1])
    for kind in all_kinds:
        lo = row_span[0] - kind.depth
        rows = IndexWindow(lo, lo + row_span[1])
        assert_section(build_family(kind, phi, rows, cols), scalar_section(kind, phi, rows, cols))
        oracle = build_compositional(kind, phi, cols)
        # the oracle's rows hold every nonzero row of its columns, none below -depth
        assert oracle.rows.is_empty or oracle.rows.lo >= -kind.depth
        assert_section(oracle, scalar_section(kind, phi, oracle.rows, cols))


@CONTRACT
@given(elementaries, domains)
def test_elementaries_keep_the_contract(kind, domain):
    try:
        want = reference_elementary(kind, domain)
    except WindowError:
        return
    assert_section(build_elementary(kind, domain), want.data)


@CONTRACT
@given(elementaries, index_maps, st.booleans(), domains)
def test_products_keep_the_contract(left, right, swap, domain):
    if swap:  # one M at most: a dense product of two may differ from the kernel's in the last bit
        left, right = right, left
    try:
        b_want = reference_elementary(right, domain)
        a_want = reference_elementary(left, b_want.rows)
    except WindowError:
        return
    b = build_elementary(right, domain)
    a = build_elementary(left, b.rows)
    want = signed_zeros_cleared(dense_compose(a_want, b_want))
    assert_section(compose(a, b), want.data)
    # operands whose cells were read first give the same product
    assert_section(compose(WindowedMatrix(a.rows, a.cols, a.data), b), want.data)


@CONTRACT
@given(symbols, symbols, windows, windows, st.sampled_from([-1.0, -2.5, -0.0]))
def test_product_triplets_hold_the_bits_their_cells_read(phi, psi, row_span, col_span, factor):
    # each value is v + 0.0: a -0.0 part, as a conjugate, a product or a negative factor makes, is stored as 0.0
    cols = IndexWindow(col_span[0], col_span[0] + col_span[1])
    sections = [build_elementary(Elementary("M", symbol=phi), cols)]
    for kind in all_kinds:
        lo = row_span[0] - kind.depth
        sections.append(build_family(kind, phi, IndexWindow(lo, lo + row_span[1]), cols))
    sections += [compose(build_elementary(Elementary("M", symbol=psi), m.rows), m) for m in sections]
    sections += [_scaled(m, factor) for m in sections]
    for m in sections:
        v = m._triplets.v
        assert np.array_equal(v.view(np.uint64), (v + 0.0).view(np.uint64))


@CONTRACT
@given(st.lists(index_maps, min_size=1, max_size=4), laurent, st.integers(0, 4), domains)
def test_chains_keep_the_contract(maps, phi, at, domain):
    stages = [*maps[:at], Elementary("M", 0, phi), *maps[at:]]  # one M: a dense product sums as the kernel does
    try:
        want = signed_zeros_cleared(dense_chain(stages, domain))
    except WindowError:
        return
    assert_section(compose_chain(stages, domain), want.data)


@CONTRACT
@given(st.sampled_from(all_kinds), symbols, st.integers(0, 6), st.integers(0, 12), st.integers(0, 8))
def test_family_times_an_elementary_is_the_dense_product(kind, phi, lo, size, rows_span):
    domain = IndexWindow(lo, lo + size)
    b = build_elementary(Elementary("Cz", 2), domain)
    rows = IndexWindow(-kind.depth, rows_span - kind.depth)
    a = build_family(kind, phi, rows, b.rows)
    a_cells = WindowedMatrix(rows, b.rows, scalar_section(kind, phi, rows, b.rows))
    want = signed_zeros_cleared(dense_compose(a_cells, reference_elementary(Elementary("Cz", 2), domain)))
    assert_section(compose(a, b), want.data)


@settings(deadline=None, max_examples=150)
@given(ref_nodes(), st.integers(0, 3), st.integers(0, 8), ref_symbols, ref_symbols)
def test_expressions_keep_the_contract(node, lo, size, phi, psi):
    try:
        got = eval_expr(node, IndexWindow(lo, lo + size), {"phi": phi, "psi": psi})
    except ValueError:  # an unknown symbol, a negative depth, or a window error
        return
    assert_section(got)


def test_a_closed_form_section_is_dumped_with_no_cells():
    # 513 x 2050 cells are 16.8 MB. The section holds its 13,000 entries; _check_size's probe of that many bytes is
    # freed at once, and the dump's peak is its lines and their joined text, about twice the text
    phi = parse_symbol("-1:2, 0:3, 1:5, 2:7")
    rows, cols = IndexWindow(0, 512), IndexWindow(0, 2049)
    cells = rows.size * cols.size * 16
    tracemalloc.start()
    try:
        m = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = dump_matrix(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < cells // 16
    assert peak - len(text) < cells
    assert text == dump_matrix(WindowedMatrix(rows, cols, m.data))


def test_a_closed_form_section_is_checked_and_extracted_with_no_cells():
    # 513 x 2050 cells are 16.8 MB: the scan puts the section's triplets into one row block of zeros at a time
    phi = parse_symbol("-1:2, 0:3, 1:5, 2:7")
    m = build_family(SLANT_H_TOEPLITZ, phi, IndexWindow(0, 512), IndexWindow(0, 2049))
    tracemalloc.start()
    try:
        report, symbol = check_pattern(SLANT_H_TOEPLITZ, m), extract_symbol(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and symbol == phi and m._cells is None
    assert peak < m.rows.size * m.cols.size * 16 // 4


# The dense bodies that the triplet bodies replaced, as references: each builds the cells of its result.
def dense_restrict(m, rows, cols):
    if rows.is_empty or cols.is_empty:
        return np.zeros((rows.size, cols.size), dtype=complex)
    return m.data[rows.lo - m.rows.lo : rows.hi + 1 - m.rows.lo, cols.lo - m.cols.lo : cols.hi + 1 - m.cols.lo]


def dense_embed(m, rows, cols):
    data = np.zeros((rows.size, cols.size), dtype=complex)
    if not (m.rows.is_empty or m.cols.is_empty):
        data[m.rows.lo - rows.lo : m.rows.hi + 1 - rows.lo, m.cols.lo - cols.lo : m.cols.hi + 1 - cols.lo] = m.data
    return data


def dense_adjoint(m):
    return np.conj(m.data.T)


@np.errstate(over="ignore", invalid="ignore")
def dense_difference(a, b):
    """An expression's difference: both operands zero-embedded on the hull of their rows, then subtracted."""
    rows = a.rows.hull(b.rows)
    return dense_embed(a, rows, a.cols) - dense_embed(b, rows, a.cols)


def bits(cells):
    return np.ascontiguousarray(cells).view(np.uint64)


cell_parts = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, math.inf, -math.inf, math.nan])
section_windows = st.builds(lambda lo, size: IndexWindow(lo, lo + size - 1), st.integers(-3, 3), st.integers(0, 4))


@st.composite
def drawn_sections(draw, rows, cols):
    """A section on the windows and its cells: the constructor's, of drawn cells with ±0, nan and inf parts; or,
    with None, one on drawn triplets, whose values may be 0.0:0.0, as a product's are."""
    places = [(i, j) for i in rows.indices() for j in cols.indices()]
    if draw(st.booleans()):
        parts = draw(st.lists(cell_parts, min_size=2 * len(places), max_size=2 * len(places)))
        cells = np.array(parts, dtype=float).view(complex).reshape(rows.size, cols.size)
        return WindowedMatrix(rows, cols, cells), cells
    chosen = draw(st.lists(st.sampled_from(places), unique=True)) if places else []
    values = np.array(draw(st.lists(cell_parts, min_size=2 * len(chosen), max_size=2 * len(chosen))), dtype=float)
    i, j = (np.array([place[axis] for place in chosen], dtype=np.int64) for axis in (0, 1))
    return WindowedMatrix._of(rows, cols, triplets=(i, j, values.view(complex))), None


def inside(window):
    """Windows that `window` covers, the empty one too."""
    if window.is_empty:
        return st.just(window)
    return st.integers(window.lo, window.hi + 1).flatmap(lambda lo: st.builds(IndexWindow, st.just(lo),
                                                                              st.integers(lo - 1, window.hi)))


def around(window):
    """Windows that cover `window`."""
    return st.builds(lambda below, above: IndexWindow(window.lo - below, window.hi + above), st.integers(0, 2),
                     st.integers(0, 2))


@settings(deadline=None, max_examples=300)
@given(st.data(), section_windows, section_windows, section_windows)
def test_the_triplet_bodies_give_the_dense_bodies_cells(data, rows, cols, other_rows):
    m, cells = data.draw(drawn_sections(rows, cols))
    if cells is not None:  # the constructor keeps every cell, ±0 parts, nan and inf included
        assert np.array_equal(bits(m.data), bits(cells))
    assert_section(m)
    sub = data.draw(inside(rows)), data.draw(inside(cols))
    got = m.restrict(*sub)
    assert (got.rows, got.cols) == sub
    assert_section(got, dense_restrict(m, *sub))
    hull = data.draw(around(rows)), data.draw(around(cols))
    got = m.embed(*hull)
    assert (got.rows, got.cols) == hull
    assert_section(got, dense_embed(m, *hull))
    # the dense body wrote 0.0:-0.0 on each cell the section does not hold; the triplet body leaves it 0.0:0.0
    held = np.zeros((cols.size, rows.size), dtype=bool)
    i, j, _ = m._triplets
    held[j - cols.lo, i - rows.lo] = True
    got = adjoint(m)
    assert (got.rows, got.cols) == (cols, rows)
    assert_section(got, np.where(held, dense_adjoint(m), 0))
    other, _ = data.draw(drawn_sections(other_rows, cols))
    got = _difference(m, other)
    assert (got.rows, got.cols) == (rows.hull(other_rows), cols)
    assert_section(got, dense_difference(m, other))
