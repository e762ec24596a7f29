import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symbol
from slanth import (
    SLANT_H_TOEPLITZ,
    ZERO,
    IndexWindow,
    WindowError,
    adjoint,
    build_elementary,
    build_family,
    check_slant_h_matrix,
    compose,
    dump_matrix,
    load_matrix,
    parse_symbol,
)
from slanth.families import COMPOSITIONAL_KINDS
from slanth.symbol import LaurentSymbol
from slanth import windowed
from slanth.windowed import (
    J,
    K,
    KSTAR,
    P,
    U,
    USTAR,
    W,
    WSTAR,
    Elementary,
    WindowedMatrix,
    compose_chain,
    format_entry,
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
        sec = build_elementary(Elementary("M", 0, parse_symbol("0:1")), IndexWindow(0, 3))
        assert sec.rows == IndexWindow(0, 3)
        assert np.array_equal(sec.data, np.eye(4))

    def test_mult_by_zero_symbol_has_no_rows(self):
        sec = build_elementary(Elementary("M", 0, ZERO), IndexWindow(0, 5))
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
        assert build_elementary(Elementary("S", -2), IndexWindow(-1, 3)).rows == IndexWindow(-3, 1)
        assert build_elementary(Elementary("Mz", 3), IndexWindow(0, 2)).rows == IndexWindow(3, 5)
        assert build_elementary(Elementary("Cz", 2), IndexWindow(1, 3)).rows == IndexWindow(2, 6)
        with pytest.raises(ValueError):
            Elementary("Cz", 0)

    def test_unit_or_zero_columns(self):
        kinds = [W, WSTAR, KSTAR, P, Elementary("S", 2), Elementary("Mz", -1), Elementary("Cz", 3)]
        for kind in kinds:
            sec = build_elementary(kind, IndexWindow(-4, 7))
            norms = np.linalg.norm(sec.data, axis=0)
            assert np.all((np.abs(norms - 1) < 1e-15) | (norms == 0))


class TestSectionOwnership:
    def test_caller_array_is_copied(self):
        data = np.arange(6, dtype=complex).reshape(2, 3)
        sec = WindowedMatrix(IndexWindow(0, 1), IndexWindow(0, 2), data)
        data[0, 0] = 99
        assert sec.entry(0, 0) == 0
        assert not sec.data.flags.writeable

    def test_results_are_read_only(self):
        sec = build_elementary(K, IndexWindow(0, 5))
        for m in (sec, compose(build_elementary(P, sec.rows), sec), sec.restrict(sec.rows, IndexWindow(1, 2)), adjoint(sec),
                  windowed.stream_matrix(dump_matrix(sec))):
            assert not m.data.flags.writeable

    def test_scaled_cells_keep_positive_zeros(self):
        # -2.0 times the cells once stored -0.0 in every zero, against "every zero the program builds is +0"
        sec = WindowedMatrix(IndexWindow(0, 1), IndexWindow(0, 2), [[1, 0, 2j], [0, 0, 3]])
        scaled = windowed._scaled(sec, -2.0)
        assert np.array_equal(scaled.data, [[-2, 0, -4j], [0, 0, -6]])
        parts = scaled.data.view(float)
        assert not np.any(np.signbit(parts[parts == 0]))
        assert dump_matrix(scaled).splitlines()[3:] == ["-2.0:0.0 0.0:0.0 0.0:-4.0", "0.0:0.0 0.0:0.0 -6.0:0.0"]

    def test_embedding_past_int64_bytes_is_a_window_error(self):
        m = build_elementary(Elementary("M", 0, parse_symbol(f"{2**62}:1")), IndexWindow(0, 0))
        with pytest.raises(WindowError, match="past int64"):
            m.embed(IndexWindow(0, 2**62), m.cols)


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
        b = build_elementary(Elementary("Mz", 5), IndexWindow(0, 3))
        with pytest.raises(WindowError):
            compose(a, b)

    def test_associative_exactly(self):
        phi = parse_symbol("-1:2, 0:3, 1:5, 2:7")
        k = build_elementary(K, IndexWindow(0, 9))
        m = build_elementary(Elementary("M", 0, phi), k.rows)
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
        eye = build_elementary(Elementary("M", 0, parse_symbol("0:1")), IndexWindow(0, 4))
        assert np.array_equal(adjoint(eye).data, np.eye(5))

    def test_decimation_adjoint_is_dilation(self):
        w = build_elementary(W, IndexWindow(0, 4))
        wstar = build_elementary(WSTAR, IndexWindow(0, 2))
        flipped = adjoint(w)
        assert flipped.rows == wstar.rows and flipped.cols == wstar.cols
        assert np.array_equal(flipped.data, wstar.data)

    def test_involution(self, rng):
        sec = build_elementary(Elementary("M", 0, random_symbol(rng)), IndexWindow(-3, 6))
        twice = adjoint(adjoint(sec))
        assert twice.rows == sec.rows and twice.cols == sec.cols
        assert np.array_equal(twice.data, sec.data)

    def test_reverses_composition(self):
        k = build_elementary(K, IndexWindow(0, 7))
        m = build_elementary(Elementary("M", 0, parse_symbol("0:1, 1:2i")), k.rows)
        prod = compose(m, k)
        reversed_prod = compose(adjoint(k), adjoint(m))
        assert np.max(np.abs(adjoint(prod).data - reversed_prod.data)) < 1e-15


# signed zeros, subnormals and the ends of the finite range
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def per_cell_dump(m):
    """The dump with every cell formatted on its own, as the format defines it."""
    header = ["#fmt 1", f"rows {m.rows.lo} {m.rows.hi}", f"cols {m.cols.lo} {m.cols.hi}"]
    return "\n".join(header + [" ".join(map(format_entry, row.tolist())) for row in m.data]) + "\n"


class TestDumpFormat:
    def test_bit_exact_roundtrip(self, rng):
        phi = random_symbol(rng)
        sec = build_elementary(Elementary("M", 0, phi), IndexWindow(-2, 9))
        text = dump_matrix(sec)
        again = load_matrix(text)
        assert again.rows == sec.rows and again.cols == sec.cols
        assert again.data.tobytes() == sec.data.tobytes()
        assert dump_matrix(again) == text

    def test_sqrt_half_entries_roundtrip(self):
        phi = parse_symbol("0:0.7071067811865476, 1:0.7071067811865476")
        sec = build_elementary(Elementary("M", 0, phi), IndexWindow(0, 5))
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
        lo, size = data.draw(st.integers(-4, 3)), data.draw(st.integers(0, 5))
        cols = IndexWindow(lo, lo + size - 1)
        n = 2 * rows.size * cols.size
        parts = data.draw(st.lists(edge_floats, min_size=n, max_size=n))
        sec = WindowedMatrix(rows, cols, np.array(parts, dtype=float).view(complex).reshape(rows.size, cols.size))
        text = dump_matrix(sec)
        again = load_matrix(text)
        assert again.rows == sec.rows and again.cols == sec.cols
        assert again.data.tobytes() == sec.data.tobytes()
        assert dump_matrix(again) == text

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_mostly_zero_sections_match_per_cell_dump(self, data):
        rows = IndexWindow(0, data.draw(st.integers(0, 6)) - 1)
        cols = IndexWindow(-3, data.draw(st.integers(1, 12)) - 4)
        background = data.draw(st.sampled_from([0j, complex(0.0, -0.0)]))
        # a small pool, so that cells repeat, with each value's zero-sign twins
        pool = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
        for x in data.draw(st.lists(edge_floats, min_size=1, max_size=3)):
            pool += [complex(x, 0.0), complex(x, -0.0), complex(0.0, x), complex(-0.0, x)]
        other = st.one_of(st.sampled_from(pool), st.builds(complex, edge_floats, edge_floats))
        cells = []
        for dense in data.draw(st.lists(st.booleans(), min_size=rows.size, max_size=rows.size)):
            # about 90% background in a sparse row, about 90% other cells in a dense one
            cell = st.tuples(st.integers(0, 9), other).map(lambda t, d=dense: t[1] if (t[0] > 0) == d else background)
            cells += data.draw(st.lists(cell, min_size=cols.size, max_size=cols.size))
        sec = WindowedMatrix(rows, cols, np.array(cells, dtype=complex).reshape(rows.size, cols.size))
        for m in (sec, adjoint(sec)):  # the adjoint's data is column-major
            text = dump_matrix(m)
            assert text == per_cell_dump(m)
            assert load_matrix(text).data.tobytes() == m.data.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_triplets_dump_as_their_section(self, data):
        # windows that may be empty or one column wide, rows that may hold no entry, stored signed zeros,
        # and the entries in the order drawn, row-major or column-major
        rows = IndexWindow(-1, data.draw(st.integers(0, 5)) - 2)
        cols = IndexWindow(2, data.draw(st.integers(0, 6)) + 1)
        cells = [(i, j) for i in rows.indices() for j in cols.indices()]
        chosen = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))) if cells else []
        signed_zeros = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
        value = st.one_of(st.sampled_from(signed_zeros), st.builds(complex, edge_floats, edge_floats))
        entries = list(zip(chosen, data.draw(st.lists(value, min_size=len(chosen), max_size=len(chosen)))))
        order = data.draw(st.sampled_from(["drawn", "row-major", "column-major"]))
        if order != "drawn":
            entries.sort(key=lambda e: e[0] if order == "row-major" else e[0][::-1])
        i, j = (np.array([e[0][axis] for e in entries], dtype=np.int64) for axis in (0, 1))
        t = WindowedMatrix._of(rows, cols, triplets=(i, j, np.array([e[1] for e in entries], dtype=complex)))
        assert dump_matrix(t) == dump_matrix(WindowedMatrix(rows, cols, t.data))

    def test_cells_sharing_a_sort_key(self):
        # 1+0j and x+3j, x with the bits of 1.0 xor 3.0's times _MIX, get one sort key
        bits = [int(np.float64(f).view(np.uint64)) for f in (1.0, 3.0)]
        x = float(np.uint64((bits[0] ^ bits[1] * int(windowed._MIX)) % 2**64).view(np.float64))
        row = [1 + 0j, complex(x, 3.0)] * 3
        sec = WindowedMatrix(IndexWindow(0, 1), IndexWindow(0, 5), np.array([row, row[::-1]]))
        assert dump_matrix(sec) == per_cell_dump(sec)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.0:0.0 1.0\n0.0:0.0", "data line 1: entry 2: malformed matrix entry '1.0'"),
            ("0.0:0.0\n0.0:0.0 1.0", "data line 1: expected 2 entries, found 1"),
            # non-finite values are looked for only once every line has parsed
            ("nan:0.0 0.0:0.0\n0.0:0.0 a:0.0", "data line 2: entry 2: malformed matrix entry 'a:0.0'"),
            # two lines a block: a malformed cell in an early block wins over a wrong count in a later one
            ("0.0:0.0 0.0:0.0\n0.0:0.0 1:2:3\n0.0:0.0 0.0:0.0\n0.0:0.0", "data line 2: entry 2: malformed matrix entry '1:2:3'"),
            # and a wrong count in an early block over a malformed cell in a later one
            ("0.0:0.0 0.0:0.0\n0.0:0.0\n0.0:0.0 0.0:0.0\n0.0:0.0 1.0", "data line 2: expected 2 entries, found 1"),
            # within one block as well
            ("0.0:0.0 0.0:0.0\n0.0:0.0 0.0:0.0\n0.0:0.0 :2\n0.0:0.0", "data line 3: entry 2: malformed matrix entry ':2'"),
            ("0.0:0.0 0.0:0.0\n0.0:0.0 0.0:0.0\n0.0:0.0\n0.0:0.0 a:0", "data line 3: expected 2 entries, found 1"),
        ],
    )
    def test_first_bad_line_wins(self, body, message):
        with mock.patch.object(windowed, "_BLOCK", 4):  # two lines of two cells a block
            with pytest.raises(ValueError) as error:
                load_matrix(f"rows 0 {body.count(chr(10))}\ncols 0 1\n{body}\n")
        assert str(error.value) == message

    def test_malformed_rejected(self):
        # short of the two headers, with no line end at all too: the text's rewritten bytes then hold no line
        for data in ("", "rows 0 1\n", "rows 0 0", "\r\n# c\n  \n", "\u3000rows 0 0\u3000", b"", b"rows 0 0", b"#fmt 1\n"):
            with pytest.raises(ValueError, match="^matrix file is missing its window headers$"):
                load_matrix(data)
        with pytest.raises(ValueError):
            load_matrix("rows 0 0\ncols 0 0\n1.0:0.0 2.0:0.0\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_leading_byte_order_mark_is_dropped(self, newline):
        text = dump_matrix(build_family(SLANT_H_TOEPLITZ, parse_symbol("-1:2, 0:-0.0-3j"), IndexWindow(0, 3),
                                        IndexWindow(0, 9))).replace("\n", newline)
        plain = load_matrix(text.encode()).data.view(np.uint64)
        for marked in ("\ufeff" + text, "\ufeff".encode() + text.encode()):
            assert np.array_equal(load_matrix(marked).data.view(np.uint64), plain)
        # a second mark is the first header's
        with pytest.raises(ValueError, match=r"^expected 'rows lo hi' header, got '\\ufeffrows 0 3'$"):
            load_matrix("\ufeff\ufeff" + text.split(newline, 1)[1])

    def test_a_file_too_short_for_its_windows_is_refused_when_indexed(self):
        # fewer than 4 bytes a cell: its bad line is named before any table sized by the windows it names is made
        with pytest.raises(ValueError, match="^data line 1: expected 1000 entries, found 100$"):
            windowed.stream_matrix("rows 0 1\ncols 0 999\n" + " ".join(["0.0:0.0"] * 100) + "\n0.0:0.0\n")
        with pytest.raises(WindowError, match="past int64"):
            windowed.stream_matrix(f"rows 0 0\ncols 0 {2**63}\n0.0:0.0\n")
        m = windowed.stream_matrix("rows 0 1\ncols 0 1\n1.0:0.0 1:2:3\n0.0:0.0 0.0:0.0\n")  # long enough
        assert isinstance(m, WindowedMatrix) and (m.rows, m.cols) == (IndexWindow(0, 1), IndexWindow(0, 1))
        with pytest.raises(ValueError, match="^data line 1: entry 2: malformed matrix entry '1:2:3'$"):
            m.data

    @pytest.mark.parametrize("cell", ["nan:0.0", "1.0:inf", "-inf:0.0"])
    def test_non_finite_rejected(self, cell):
        with pytest.raises(ValueError, match="line 2: entry 1 is not finite"):
            load_matrix(f"rows 0 1\ncols 0 1\n0.0:0.0 1.0:0.0\n{cell} 2.0:0.0\n")

    @pytest.mark.parametrize("value", [complex("nan"), complex(0, float("inf")), complex(float("-inf"), 1)])
    def test_non_finite_not_dumped(self, value):
        data = np.zeros((2, 3), dtype=complex)
        data[1, 2] = value
        with pytest.raises(ValueError, match=r"entry \(2, 1\) is not finite"):
            dump_matrix(WindowedMatrix(IndexWindow(1, 2), IndexWindow(-1, 1), data))
        # the first in reading order is named, also when the data is column-major
        data[1, 0], data[0, 2] = value, value  # entries (2, -1) and (1, 1)
        for m, where in ((WindowedMatrix(IndexWindow(1, 2), IndexWindow(-1, 1), data), r"\(1, 1\)"),
                         (adjoint(WindowedMatrix(IndexWindow(1, 2), IndexWindow(-1, 1), data)), r"\(-1, 2\)")):
            with pytest.raises(ValueError, match=rf"entry {where} is not finite"):
                dump_matrix(m)

    def test_entry_bounds(self):
        sec = build_elementary(P, IndexWindow(0, 2))
        with pytest.raises(WindowError):
            sec.entry(5, 0)
        with pytest.raises(WindowError):
            WindowedMatrix(IndexWindow(0, 1), IndexWindow(0, 1), np.zeros((3, 2)))


def reference_load(text):
    """The per-cell reader the block tokenizer must reproduce, bit for bit and message for message."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:
        raise ValueError("matrix file is missing its window headers")

    def parse_window(line, tag):
        parts = line.split()
        if len(parts) != 3 or parts[0] != tag:
            raise ValueError(f"expected '{tag} lo hi' header, got {line!r}")
        return IndexWindow(int(parts[1]), int(parts[2]))

    rows = parse_window(lines[0], "rows")
    cols = parse_window(lines[1], "cols")
    body = lines[2:]
    expected = rows.size if cols.size else 0
    if len(body) != expected:
        raise ValueError(f"expected {expected} data lines, found {len(body)}")
    data = np.zeros((rows.size, cols.size), dtype=complex)
    for r, line in enumerate(body):
        cells = line.split()
        if len(cells) != cols.size:
            raise ValueError(f"data line {r + 1}: expected {cols.size} entries, found {len(cells)}")
        for c, cell in enumerate(cells):
            try:
                real, imag = map(float, cell.split(":"))
            except ValueError:
                raise ValueError(f"data line {r + 1}: entry {c + 1}: malformed matrix entry {cell!r}") from None
            data[r, c] = complex(real, imag)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"data line {r + 1}: entry {c + 1} is not finite")
    return WindowedMatrix(rows, cols, data)


def outcome(read, text):
    """The section's windows and bytes, or the message of the ValueError raised."""
    try:
        m = read(text)
    except ValueError as error:
        return type(error), str(error)
    return m.rows, m.cols, m.data.tobytes()


good_cells = st.one_of(
    st.sampled_from(["0.0:0.0", "0.0:-0.0", "-0.0:0.0", "-0.0:-0.0", "0.0:0.00", "0.0:0.01", "0.0:-0.05", "00.0:0.0",
                    "1.5:-2.0", "5e-324:1e308"]),
    st.builds(complex, edge_floats, edge_floats).map(format_entry),
)
# malformed, split by a blank, non-finite, digits float() reads that are not ASCII, or a lone surrogate, which only
# text can hold (its bytes are not UTF-8)
odd_cells = st.sampled_from(["1.0", "1.0:", ":2", "1:2:3", "a:0", "1.0 :2.0", "0.0:0.0:", "nan:0.0", "0.0:inf",
                             "-inf:1.0", "\u0661:0.0", "\uff11:\uff12", "1_0:2", "\ud800:0.0"])


def streamed(data):
    """The section the row blocks of a stream_matrix section hold, gathered."""
    m = windowed.stream_matrix(data)
    out = np.zeros((m.rows.size, m.cols.size), dtype=complex)
    for top, block in windowed.row_blocks(m):
        out[top : top + block.shape[0]] = block
    return WindowedMatrix(m.rows, m.cols, out)


ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def from_bytes(read):
    """A reader of a file's bytes that decodes them first, as a text read does."""
    return lambda data: read(data.decode("utf-8"))


class TestBlockTokenizer:
    """load_matrix and stream_matrix, on bytes and on text, against the per-cell reader on canonical and irregular
    files."""

    @settings(deadline=None, max_examples=300)
    @given(st.data(), st.sampled_from([1, 4, 9, 1 << 14]))  # cells a block: one line, a few, all
    def test_matches_reference_reader(self, data, block):
        n_rows, width = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 5))
        # "" keeps one space between cells and none at the ends, the tokenizer's direct path
        extra = data.draw(st.sampled_from(["", " ", "\t", "\x1f", "\xa0", "\u3000", " \t\x1f\xa0\u3000"]))
        run = st.text(alphabet=extra, min_size=1, max_size=3)
        gap = st.one_of(st.just(" "), run) if extra else st.just(" ")
        end = st.one_of(st.just(""), run) if extra else st.just("")
        odd_one_in = data.draw(st.sampled_from([6, 25, 1000]))
        any_cell = st.integers(1, odd_one_in).flatmap(lambda k: odd_cells if k == 1 else good_cells)
        skipped = st.lists(st.sampled_from(["", " ", "\t\xa0", "# comment", "  #0.0:0.0 x"]), max_size=2)

        def joined(tokens):  # a line of tokens, with the drawn blanks between and around them
            line = data.draw(end)
            for k, token in enumerate(tokens):
                line += (data.draw(gap) if k else "") + token
            return line + data.draw(end)

        def header(tag, lo, hi):  # bounds signed or in digits that are not ASCII; now and then short or mistagged
            bound = data.draw(st.sampled_from([str] * 6 + [lambda n: f"+{n}", lambda n: str(n).translate(ARABIC)]))
            shape = data.draw(st.sampled_from(["whole"] * 18 + ["short", "mistagged"]))
            tag = {"rows": "cols", "cols": "rows"}[tag] if shape == "mistagged" else tag
            return joined([tag, bound(lo), *([bound(hi)] if shape != "short" else [])])

        lines = ["#fmt 1", *data.draw(skipped), header("rows", 0, n_rows - 1)]
        lines += [*data.draw(skipped), header("cols", 3, width + 2)]
        for _ in range(n_rows + data.draw(st.sampled_from([0] * 8 + [-1, 1]))):
            if data.draw(st.integers(0, 9)) == 0:
                lines += data.draw(skipped)
            count = max(0, width + data.draw(st.sampled_from([0] * 12 + [-1, 1])))
            lines.append(joined([data.draw(any_cell) for _ in range(count)]))
        # a lone b'\r' ends a line for str.splitlines() too
        text = data.draw(st.sampled_from(["\n", "\r\n", "\r"] + ["\n", "\r\n"] * 4)).join(lines)
        text += data.draw(st.sampled_from(["\n", "\r\n", ""]))
        raw = text.encode("utf-8", "surrogatepass")
        if data.draw(st.integers(0, 19)) == 0:  # a byte that is not UTF-8, which the text read rejects
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + b"\xff" + raw[at:]
        with mock.patch.object(windowed, "_BLOCK", block):
            want, text_want = outcome(from_bytes(reference_load), raw), outcome(reference_load, text)
            for read in (load_matrix, streamed):
                assert outcome(read, raw) == want
                assert outcome(read, text) == text_want

    @settings(deadline=None, max_examples=200)
    @given(st.data(), st.sampled_from([1, 9, 64, 1 << 15]))
    def test_zero_runs_around_cells_of_zero_bytes(self, data, block):
        # wide lines of 0.0:0.0 with cells made of the same bytes put in: valid zeros that are not 0.0:0.0, which
        # shift the runs' phase, and malformed ones; a comment of any length first moves the lines' 8-byte phase
        width, n_rows = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
        odd = st.sampled_from(["00.0:0.0", "0.0:0.00", "0.:0.0", "0:0", "0.0:-0.0", "0.0:0:0", ":0.0", "0.0.0:0",
                               "0.0:0.0:", "1.0:0.0", "0.0:0.1"])
        cell = st.integers(0, 30).flatmap(lambda k: odd if k == 0 else st.just("0.0:0.0"))
        lines = ["#" * data.draw(st.integers(0, 15)), f"rows 0 {n_rows - 1}", f"cols 0 {width - 1}"]
        lines += [" ".join(data.draw(st.lists(cell, min_size=width, max_size=width))) for _ in range(n_rows)]
        raw = "\n".join(lines).encode() + data.draw(st.sampled_from([b"\n", b""]))
        with mock.patch.object(windowed, "_BLOCK", block):
            want = outcome(from_bytes(reference_load), raw)
            assert outcome(load_matrix, raw) == want
            assert outcome(streamed, raw.replace(b"\n", b"\r\n")) == want

    def test_load_and_check_memory_stay_near_the_section(self, rng):
        # the 512 x 2049 closed form the benchmark reads; a tokenizer of the whole
        # body at once held about 8 int64 arrays of 1M entries on top of the section
        m = build_family(SLANT_H_TOEPLITZ, random_symbol(rng), IndexWindow(0, 512), IndexWindow(0, 2049))
        text = dump_matrix(m)
        for step in (lambda: load_matrix(text), lambda: check_slant_h_matrix(m)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * m.data.nbytes


# Scalar reference of the elementary builder: one column at a time, each
# image added into a dense block.


def reference_images(kind, j):
    name = kind.name
    if name == "W":
        return [(j // 2, 1.0)] if j % 2 == 0 else []
    if name == "W*":
        return [(2 * j, 1.0)]
    if name == "K":
        return [(j // 2, 1.0)] if j % 2 == 0 else [(-((j + 1) // 2), 1.0)]
    if name == "K*":
        return [(2 * j, 1.0)] if j >= 0 else [(-2 * j - 1, 1.0)]
    if name == "J":
        return [(-j - 1, 1.0)]
    if name == "P":
        return [(j, 1.0)] if j >= 0 else []
    if name == "U":
        return [(j + 1, 1.0)]
    if name == "U*":
        return [(j - 1, 1.0)] if j >= 1 else []
    if name in ("S", "Mz"):
        return [(j + kind.power, 1.0)]
    if name == "Cz":
        return [(kind.power * j, 1.0)]
    return [(j + n, a) for n, a in kind.symbol.items()]


def reference_elementary(kind, domain):
    if kind.name in ("K", "J", "U") and not domain.is_empty and domain.lo < 0:
        raise WindowError("analytic domain required")
    columns = {j: reference_images(kind, j) for j in domain.indices()}
    hit = [i for col in columns.values() for i, _ in col]
    rows = IndexWindow(min(hit), max(hit)) if hit else IndexWindow.empty()
    data = np.zeros((rows.size, domain.size), dtype=complex)
    for j, col in columns.items():
        for i, a in col:
            data[i - rows.lo, j - domain.lo] += a
    return WindowedMatrix(rows, domain, data)


def dense_compose(a, b):
    """The dense product the triplet kernel must reproduce."""
    lo = b.rows.lo - a.cols.lo
    return WindowedMatrix(a.rows, b.cols, a.data[:, lo : lo + b.rows.size] @ b.data)


def signed_zeros_cleared(m):
    """A dense product's zero entries with +0.0 parts, every other bit kept.

    BLAS kernels differ in the sign they leave on a zero entry (OpenBLAS
    0.3.31 gives -0.0 in the 2x2 product P . M(-1) and 0.0 in larger ones);
    the triplet kernel adds every entry into a zero, so its zeros are 0.0.
    """
    return WindowedMatrix(m.rows, m.cols, m.data + 0.0)


def dense_chain(stages, domain):
    result = None
    for stage in reversed(stages):
        if not isinstance(stage, WindowedMatrix):
            stage = reference_elementary(stage, domain if result is None else result.rows)
        result = stage if result is None else dense_compose(stage, result)
    return result


def assert_bitwise(got, want):
    assert got.rows == want.rows and got.cols == want.cols
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def assert_close(got, want, tol=1e-13):
    assert got.rows == want.rows and got.cols == want.cols
    assert got.data.size == 0 or np.max(np.abs(got.data - want.data)) <= tol


coefficients = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
# signed zeros included: a dense block holds every sign of zero as 0 + x does
laurent = st.dictionaries(st.integers(-5, 5), st.one_of(coefficients, st.sampled_from([-0.0j, complex(-0.0, 1), 1 - 0j])),
                          max_size=5).map(LaurentSymbol)
index_maps = st.one_of(
    st.sampled_from([W, WSTAR, K, KSTAR, J, P, U, USTAR]),
    st.integers(-4, 4).map(lambda k: Elementary("S", k)),
    st.integers(-4, 4).map(lambda k: Elementary("Mz", k)),
    st.integers(1, 4).map(lambda k: Elementary("Cz", k)),
)
elementaries = st.one_of(index_maps, laurent.map(lambda phi: Elementary("M", 0, phi)))
# negative, empty and single-index domains among them
domains = st.builds(lambda lo, size: IndexWindow(lo, lo + size - 1), st.integers(-6, 6), st.sampled_from([0, 1, 2, 7, 12]))
KERNEL = settings(deadline=None, max_examples=150)


class TestTripletKernel:
    """The triplet kernel against the scalar builder and dense products."""

    @KERNEL
    @given(elementaries, domains)
    def test_build_elementary_matches_scalar_reference(self, kind, domain):
        try:
            want = reference_elementary(kind, domain)
        except WindowError:
            with pytest.raises(WindowError):
                build_elementary(kind, domain)
            return
        assert_bitwise(build_elementary(kind, domain), want)

    def test_every_kind_is_covered(self):
        names = {"W", "W*", "K", "K*", "J", "P", "U", "U*", "S", "Mz", "Cz", "M"}
        for name in names:
            kind = Elementary(name, 2, parse_symbol("-1:2, 1:3i") if name == "M" else None)
            assert_bitwise(build_elementary(kind, IndexWindow(0, 9)), reference_elementary(kind, IndexWindow(0, 9)))

    @KERNEL
    @given(st.sampled_from(COMPOSITIONAL_KINDS), laurent, st.integers(0, 4), st.integers(-1, 40))
    def test_family_chains_match_dense_bitwise(self, kind, phi, lo, hi):
        cols = IndexWindow(lo, hi)
        stages = kind.chain(phi)
        assert_bitwise(compose_chain(stages, cols), signed_zeros_cleared(dense_chain(stages, cols)))

    @KERNEL
    @given(st.lists(index_maps, min_size=1, max_size=5), st.one_of(st.none(), laurent), st.integers(0, 5), st.integers(0, 12))
    def test_index_map_chains_match_dense_bitwise(self, maps, phi, at, size):
        # one multiplication at most, so every entry is a single product
        stages = list(maps) if phi is None else maps[:at] + [Elementary("M", 0, phi)] + maps[at:]
        domain = IndexWindow(0, size - 1)
        try:
            want = signed_zeros_cleared(dense_chain(stages, domain))
        except WindowError:
            with pytest.raises(WindowError):
                compose_chain(stages, domain)
            return
        assert_bitwise(compose_chain(stages, domain), want)
        if len(stages) > 1:
            right = compose_chain(stages[1:], domain)
            assert_bitwise(compose(build_elementary(stages[0], right.rows), right), want)

    @KERNEL
    @given(st.lists(elementaries, min_size=2, max_size=5), st.integers(0, 12))
    def test_general_chains_match_dense(self, stages, size):
        domain = IndexWindow(0, size - 1)
        try:
            want = dense_chain(stages, domain)
        except WindowError:
            with pytest.raises(WindowError):
                compose_chain(stages, domain)
            return
        assert_close(compose_chain(stages, domain), want)

    @KERNEL
    @given(st.data())
    def test_dense_sections_match_dense(self, data):
        # ready sections on either side, zeros among their entries
        lo, k, m, n = (data.draw(st.integers(-3, 3)) for _ in range(4))
        inner = IndexWindow(lo, lo + abs(k) + 1)
        entries = st.one_of(st.just(0j), coefficients)
        a_rows, b_cols = IndexWindow(0, abs(m)), IndexWindow(0, abs(n))
        a = WindowedMatrix(a_rows, inner, np.array(data.draw(st.lists(entries, min_size=a_rows.size * inner.size,
                           max_size=a_rows.size * inner.size))).reshape(a_rows.size, inner.size))
        b_rows = IndexWindow(inner.lo + data.draw(st.integers(0, 1)), inner.hi)
        b = WindowedMatrix(b_rows, b_cols, np.array(data.draw(st.lists(entries, min_size=b_rows.size * b_cols.size,
                           max_size=b_rows.size * b_cols.size))).reshape(b_rows.size, b_cols.size))
        assert_close(compose(a, b), dense_compose(a, b))
        assert_close(compose_chain([a, b], b_cols), dense_compose(a, b))
        assert_close(compose_chain([USTAR, a, b], b_cols), dense_chain([USTAR, a, b], b_cols))

    @KERNEL
    @given(st.lists(elementaries, min_size=2, max_size=5), st.integers(0, 12), st.sampled_from([1, 3, 40]))
    def test_sliced_joins_match_one_join(self, stages, size, products):
        domain = IndexWindow(0, size - 1)
        try:
            whole = compose_chain(stages, domain)
        except WindowError:
            return
        with mock.patch.object(windowed, "_SLICE", products):
            assert_bitwise(compose_chain(stages, domain), whole)

    def test_wide_join_memory_stays_near_the_output(self):
        # 4.3M products meet; formed all at once they took about 390 MB
        phi = LaurentSymbol({n: complex(n, 1) for n in range(-32, 33)})
        tracemalloc.start()
        try:
            out = compose_chain([Elementary("M", 0, phi), Elementary("M", 0, phi)], IndexWindow(0, 1023))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.rows == IndexWindow(-64, 1087)
        assert peak < 4 * out.data.nbytes

    def test_dense_join_is_a_dense_product(self):
        # 1M products meet, 256 on each output entry: still a triplet join, formed a slice at a time
        rng = np.random.default_rng(4)
        inner = IndexWindow(-3, 252)
        a = WindowedMatrix(IndexWindow(0, 31), inner, rng.standard_normal((32, 256)) + 1j * rng.standard_normal((32, 256)))
        b = WindowedMatrix(inner, IndexWindow(0, 127), rng.standard_normal((256, 128)) - 1j * rng.standard_normal((256, 128)))
        tracemalloc.start()
        try:
            out = compose(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out._triplets is not None
        want = a.data @ b.data
        assert np.max(np.abs(out.data - want)) <= 1e-12 * np.max(np.abs(want))
        # about 110 bytes a product of one slice; formed all at once, the 1M products took over 100 MB
        assert peak < 160 * windowed._SLICE
