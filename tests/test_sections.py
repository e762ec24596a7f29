"""The section contract, for every builder. A section holds its triplets or its cells; its `data` is read-only,
the same array on every read, and bit-identical to the scalar references; its dump reads the same before and
after `data` is read, and the same as the dump of its cells; and the triplets it holds are column-major, rows
ascending, with no cell twice."""

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
    compose,
    dump_matrix,
    eval_expr,
    extension,
    parse_symbol,
)
from slanth.windowed import Elementary, compose_chain
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
    if m._triplets is not None:
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
