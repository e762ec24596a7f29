"""Exact finite sections of the elementary circle operators.

A section is a complex block addressed by absolute row/column indices.
Builders compute the codomain window themselves, as the hull of the images of
the domain basis vectors, so a freshly built section always contains every
nonzero entry of its columns. Composition refuses to proceed (rather than
silently truncate) whenever that guarantee would be lost, which is the classic
finite-section failure mode.

A section holds its cells, its triplets (its nonzero entries as (row, column,
value) arrays) or a matrix file; this module alone decides which, and reads
them. Triplet and file sections build their cells only when `data` is read;
compose and dump_matrix read the triplets of a section that holds them (the
dump only the cells other than 0.0:0.0), and a section of cells inside a
product becomes triplets. Every product sums each entry's products in
ascending inner index, so an entry is the same on every window.

Empty windows are first class: a projection applied to a wholly anti-analytic
window, or multiplication by the zero symbol, legitimately produces a section
with no rows, and such sections compose to zero blocks.

A matrix file is read from its bytes by one tokenizer, a block of whole rows
at a time, as row_blocks yields them or into its section's cells. Bytes that
are not canonical (see _index), and text that is not ASCII, are rewritten
once as canonical bytes by str.splitlines() and str.split(), as text splits.

All values are immutable after construction and all functions are pure.
"""

from collections import namedtuple

import numpy as np

from .symbol import LaurentSymbol

__all__ = [
    "IndexWindow",
    "WindowError",
    "WindowedMatrix",
    "Elementary",
    "W",
    "WSTAR",
    "K",
    "KSTAR",
    "J",
    "P",
    "U",
    "USTAR",
    "adjoint",
    "build_elementary",
    "compose",
    "compose_chain",
    "dump_matrix",
    "load_matrix",
    "row_blocks",
    "stream_matrix",
]


class WindowError(ValueError):
    """Window mismatch, exactness loss, or out-of-window access."""


# numpy's int64 arithmetic wraps silently, so indices are checked against these bounds in Python ints
_INT64 = np.iinfo(np.int64)


class IndexWindow(namedtuple("IndexWindow", "lo hi")):
    """Contiguous inclusive interval of basis indices; hi < lo means empty."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        # canonical empty representation so empties compare equal
        return super().__new__(cls, 0, -1) if hi < lo else super().__new__(cls, lo, hi)

    @classmethod
    def empty(cls) -> "IndexWindow":
        return cls(0, -1)

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo

    @property
    def size(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def __contains__(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def index_array(self) -> np.ndarray:
        """The indices as an int64 array; a WindowError when no such array can hold them.

        np.arange raises past numpy's size limit or past int64's bounds, and
        returns an empty array for 2**63 - 1 indices.
        """
        if not self.is_empty and (self.lo < _INT64.min or self.hi >= _INT64.max or self.size > _INT64.max // 8):
            raise WindowError(f"window {self} does not fit an int64 index array")
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)

    def covers(self, other: "IndexWindow") -> bool:
        return other.is_empty or (not self.is_empty and self.lo <= other.lo and other.hi <= self.hi)

    def intersect(self, other: "IndexWindow") -> "IndexWindow":
        if self.is_empty or other.is_empty:
            return IndexWindow.empty()
        return IndexWindow(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "IndexWindow") -> "IndexWindow":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return IndexWindow(min(self.lo, other.lo), max(self.hi, other.hi))

    def __str__(self):
        return "empty" if self.is_empty else f"{self.lo}:{self.hi}"


# The entries (i[t], j[t]) = v[t] of a section, column-major with rows
# ascending, so no cell twice; all others are zero.
_Triplets = namedtuple("_Triplets", "i j v")


class WindowedMatrix:
    """Complex section addressed by absolute row/column indices: its cells, its triplets, or a matrix file.

    A triplet or file section builds its cells once, the first time `data`
    is read: triplets are added into +0.0, so a stored -0.0 part reads 0.0,
    as a dense product sums, and a file's rows tokenized. Cells are read-only.
    """

    __slots__ = ("rows", "cols", "_cells", "_triplets", "_file")

    def __new__(cls, rows: IndexWindow, cols: IndexWindow, data):
        data = np.array(data, dtype=complex)
        if data.shape != (rows.size, cols.size):
            raise WindowError(f"data shape {data.shape} does not match windows {rows} x {cols}")
        return cls._of(rows, cols, data)

    @classmethod
    def _of(cls, rows: IndexWindow, cols: IndexWindow, data=None, triplets=None, file=None) -> "WindowedMatrix":
        """Section on a complex array of the right shape that nothing else writes, frozen, not copied; on a file's
        _Index; or on triplets (i, j, v) in the windows, no cell twice, put in column-major order, rows ascending."""
        if triplets is not None:
            i, j, v = triplets
            if not np.all((j[1:] > j[:-1]) | ((j[1:] == j[:-1]) & (i[1:] > i[:-1]))):
                order = np.lexsort((i, j))
                i, j, v = i[order], j[order], v[order]
            triplets = _Triplets(i, j, v)
        elif data is not None:
            data.setflags(write=False)
        m = object.__new__(cls)
        m.rows, m.cols, m._cells, m._triplets, m._file = rows, cols, data, triplets, file
        return m

    @property
    def data(self) -> np.ndarray:
        """The cells, read-only; a triplet or file section builds them on the first read and keeps them."""
        if self._cells is None:
            _check_size(self.rows, self.cols)
            cells = np.zeros((self.rows.size, self.cols.size), dtype=complex)
            if self._file is None:
                i, j, v = self._triplets
                cells[i - self.rows.lo, j - self.cols.lo] += v
            else:
                for _ in _blocks(self._file, cells):
                    pass
            cells.setflags(write=False)
            self._cells, self._file = cells, None  # only once it is whole
        return self._cells

    def entry(self, i: int, j: int) -> complex:
        if i not in self.rows or j not in self.cols:
            raise WindowError(f"entry ({i}, {j}) outside windows {self.rows} x {self.cols}")
        return complex(self.data[i - self.rows.lo, j - self.cols.lo])

    def restrict(self, rows: IndexWindow, cols: IndexWindow) -> "WindowedMatrix":
        """Sub-block on windows contained in this section's windows."""
        if not (self.rows.covers(rows) and self.cols.covers(cols)):
            raise WindowError(
                f"restriction {rows} x {cols} not contained in {self.rows} x {self.cols}"
            )
        if rows.is_empty or cols.is_empty:
            return WindowedMatrix._of(rows, cols, np.zeros((rows.size, cols.size), dtype=complex))
        block = self.data[
            rows.lo - self.rows.lo : rows.hi + 1 - self.rows.lo,
            cols.lo - self.cols.lo : cols.hi + 1 - self.cols.lo,
        ]
        return WindowedMatrix._of(rows, cols, block)

    def embed(self, rows: IndexWindow, cols: IndexWindow) -> "WindowedMatrix":
        """Zero-padded copy on windows containing this section's windows."""
        if not (rows.covers(self.rows) and cols.covers(self.cols)):
            raise WindowError(
                f"embedding {rows} x {cols} does not contain {self.rows} x {self.cols}"
            )
        _check_size(rows, cols)
        data = np.zeros((rows.size, cols.size), dtype=complex)
        if not (self.rows.is_empty or self.cols.is_empty):
            data[
                self.rows.lo - rows.lo : self.rows.hi + 1 - rows.lo,
                self.cols.lo - cols.lo : self.cols.hi + 1 - cols.lo,
            ] = self.data
        return WindowedMatrix._of(rows, cols, data)


class Elementary(namedtuple("Elementary", "name power symbol", defaults=(0, None))):
    """A closed-form basis map, named like its expression atom: S, Cz and Mz read the power, M(phi) the symbol phi."""

    __slots__ = ()

    def __new__(cls, name: str, power: int = 0, symbol: LaurentSymbol | None = None):
        if name == "Cz" and power < 1:
            raise ValueError("composition power must be >= 1")
        return super().__new__(cls, name, power, symbol)


W = Elementary("W")  # dyadic decimation: e_{2n} -> e_n, odd -> 0
WSTAR = Elementary("W*")  # dyadic dilation: e_n -> e_{2n}
K = Elementary("K")  # even/odd split: e_{2n} -> e_n, e_{2n+1} -> e_{-n-1}
KSTAR = Elementary("K*")  # inverse split: e_n -> e_{2n}, e_{-n-1} -> e_{2n+1}
J = Elementary("J")  # flip: e_n -> e_{-n-1}
P = Elementary("P")  # analytic projection
U = Elementary("U")  # forward unilateral shift
USTAR = Elementary("U*")  # backward shift into the analytic side; kills n <= 0


# Operators defined only on the analytic side; U* is deliberately permissive
# (it acts as the adjoint of U landing in the analytic side, so it annihilates
# every index <= 0 and may follow sections whose rows dip below zero).
_ANALYTIC_DOMAIN = frozenset({"K", "J", "U"})


# The row of e_j's image under each index map of power p, and which e_j it keeps.
_INDEX_MAPS = {
    "W": (lambda j, p: j // 2, lambda j: j % 2 == 0),
    "W*": (lambda j, p: 2 * j, None),
    "K": (lambda j, p: np.where(j % 2 == 0, j // 2, -((j + 1) // 2)), None),
    "K*": (lambda j, p: np.where(j >= 0, 2 * j, -2 * j - 1), None),
    "J": (lambda j, p: -j - 1, None),
    "P": (lambda j, p: j, lambda j: j >= 0),
    "U": (lambda j, p: j + 1, None),
    "U*": (lambda j, p: j - 1, lambda j: j >= 1),
    "S": (lambda j, p: j + p, None),  # bilateral shift: e_n -> e_{n+p}
    "Mz": (lambda j, p: j + p, None),  # multiplication by z^p on the two-sided space
    "Cz": (lambda j, p: p * j, None),  # composition with z^p: e_n -> e_{pn}, p >= 1
}


def _check_int64(values, what) -> None:
    """A WindowError unless each Python int of `values` is in int64, where numpy wraps; `what` or its call names it."""
    if any(not _INT64.min <= v <= _INT64.max for v in values):
        raise WindowError(f"{what() if callable(what) else what} past int64")


def build_elementary(kind: Elementary, domain: IndexWindow) -> WindowedMatrix:
    """Exact section of an elementary operator on the given domain window: the triplets of the images of e_j, j in
    `domain`, by index arithmetic.

    The codomain window is the hull of the nonzero images of the domain basis
    vectors and may be empty (the section then has no rows).
    """
    if kind.name in _ANALYTIC_DOMAIN and not domain.is_empty and domain.lo < 0:
        raise WindowError(f"{kind.name} requires an analytic domain (lo >= 0), got {domain}")
    j = domain.index_array()
    # each map is monotone on each parity and sign: the domain's ends' images, in Python ints, bound the rest
    ends = np.array([*domain.indices()[:2], *domain.indices()[-2:]], dtype=object)
    if kind.name == "M":
        degrees = np.array([n for n, _ in kind.symbol.items()], dtype=np.int64)
        coeffs = np.array([a for _, a in kind.symbol.items()], dtype=complex)
        i, j, v = (j[:, None] + degrees).ravel(), np.repeat(j, degrees.size), np.tile(coeffs, j.size)
        ends = ends[:, None] + degrees.astype(object)
    elif kind.name in _INDEX_MAPS:
        row, keep = _INDEX_MAPS[kind.name]
        j = j if keep is None else j[keep(j)]
        i, v = row(j, kind.power), np.ones(j.size, dtype=complex)
        ends = row(ends if keep is None else ends[keep(ends).astype(bool)], kind.power)
    else:
        raise ValueError(f"unknown elementary kind {kind.name!r}")
    _check_int64(np.ravel(ends), f"{kind.name} maps {domain}")
    rows = IndexWindow(int(i.min()), int(i.max())) if i.size else IndexWindow.empty()
    return WindowedMatrix._of(rows, domain, triplets=(i, j, v))


def _entries(m: WindowedMatrix) -> _Triplets:
    """The triplets a section holds, else those of its nonzero cells."""
    if m._triplets is not None:
        return m._triplets
    r, c = np.divmod(np.flatnonzero(m.data != 0), max(1, m.cols.size))  # in C order, which a stable sort
    order = np.argsort(c, kind="stable")  # by column turns column-major: faster than nonzero of the transpose
    r, c = r[order], c[order]
    return _Triplets(r + m.rows.lo, c + m.cols.lo, m.data[r, c])


# Products formed at once: the join's scratch, about 100 bytes a product,
# stays near 25 MB however many products meet in all.
_SLICE = 1 << 18


def _check_size(rows: IndexWindow, cols: IndexWindow) -> None:
    """A WindowError past int64, or a MemoryError where the system cannot give 16 bytes a cell of rows x cols, as
    the section, or the dump's lines and their joined text, take: raised before any of it is touched."""
    _check_int64([rows.size * cols.size * 16], f"the bytes of a section on {rows} x {cols} reach")
    np.empty(rows.size * cols.size * 16, dtype=np.uint8)


# overflow and inf * 0 leave inf and nan, which the checks fail on, and write nothing to stderr
@np.errstate(over="ignore", invalid="ignore")
def compose(a: WindowedMatrix, b: WindowedMatrix) -> WindowedMatrix:
    """Section of the operator product a . b, on its triplets.

    Exactness requires a's columns to cover b's rows; otherwise entries of
    b's output would be consumed blindly, so such a composition is refused.
    Each entry of b in row r meets each entry of a in column r. The products
    are formed a slice of b's columns at a time, and those on one entry are
    summed in ascending r: an entry depends on the operator, not the window.
    """
    if not a.cols.covers(b.rows):
        raise WindowError(f"composition loses exactness: left columns {a.cols} do not cover right rows {b.rows}")
    _check_int64([a.rows.size * b.cols.size], f"the keys of a product on {a.rows} x {b.cols} reach")
    ta, tb = _entries(a), _entries(b)
    counts = np.bincount(ta.j - a.cols.lo, minlength=a.cols.size)
    k = tb.i - a.cols.lo  # the column of a each entry of b meets
    first, per = np.cumsum(counts) - counts, counts[k]  # a's first entry in each column; b's products
    cuts = [0, k.size]
    if per.sum() > _SLICE:  # cut b at the columns where another _SLICE products have been formed
        done = np.cumsum(per) - per
        opens = np.flatnonzero(np.diff(tb.j, prepend=b.cols.lo - 1))
        cuts[1:1] = opens[np.diff(done[opens] // _SLICE, prepend=0) > 0]
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        p = per[lo:hi]
        t = np.repeat(np.arange(lo, hi), p)  # the entry of b in each product
        s = np.arange(t.size) + np.repeat(first[k[lo:hi]] - (np.cumsum(p) - p), p)  # and the entry of a
        i, j, v = ta.i[s], tb.j[t], ta.v[s] * tb.v[t]
        key = (j - b.cols.lo) * a.rows.size + (i - a.rows.lo)
        if np.any(key[1:] <= key[:-1]):
            # repeats: b's column comes in ascending r, so bincount sums each entry's products in that order
            key, group = np.unique(key, return_inverse=True)
            j, i = np.divmod(key, a.rows.size)
            total = np.empty(key.size, dtype=complex)
            total.real, total.imag = np.bincount(group, v.real), np.bincount(group, v.imag)
            i, j, v = i + a.rows.lo, j + b.cols.lo, total
        pieces.append((i, j, v))
    i, j, v = pieces[0] if len(pieces) == 1 else map(np.concatenate, zip(*pieces))
    return WindowedMatrix._of(a.rows, b.cols, triplets=(i, j, v))


@np.errstate(over="ignore", invalid="ignore")
def _scaled(m: WindowedMatrix, factor: float) -> WindowedMatrix:
    """factor * m, on its triplets: its zeros stay +0."""
    i, j, v = _entries(m)
    return WindowedMatrix._of(m.rows, m.cols, triplets=(i, j, factor * v))


def compose_chain(stages: list, domain: IndexWindow) -> WindowedMatrix:
    """Section of the product of `stages`, listed leftmost-first, on `domain`.

    A stage is an elementary kind, a ready section, or a function that builds
    a section on the window it is given. The factors are built right to left,
    each on the rows of the one to its right, and multiplied left to right,
    ((a . b) . c), each released once it is multiplied.
    """
    factors = []
    for stage in reversed(stages):
        window = factors[-1].rows if factors else domain
        if isinstance(stage, Elementary):
            stage = build_elementary(stage, window)
        elif not isinstance(stage, WindowedMatrix):
            stage = stage(window)
        factors.append(stage)
    if not factors:
        raise ValueError("empty chain")
    product = factors.pop()
    while factors:
        product = compose(product, factors.pop())
    return product


def adjoint(a: WindowedMatrix) -> WindowedMatrix:
    """Conjugate transpose with rows and columns swapped."""
    return WindowedMatrix._of(a.cols, a.rows, np.conj(a.data.T))


def format_entry(c: complex) -> str:
    """`re:im` of a Python complex, each part in the shortest form that parses back exactly."""
    return f"{c.real!r}:{c.imag!r}"


_ZERO_CELL = format_entry(0j)
# Odd, so im -> im * _MIX is one to one: two distinct cells rarely share the
# sort key re ^ (im * _MIX), and when they do, a cell may be formatted twice.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def dump_matrix(m: WindowedMatrix) -> str:
    """Render the windowed matrix file format (bit-exact round trip) of a section; entries must be finite.

    Only the cells other than `0.0:0.0` are read, from the section's
    triplets when it holds them: each run of `0.0:0.0` cells within a row is
    written as one slice of a row of them, and each distinct other cell,
    told apart by its 128 bits (so `3.0:0.0` and `3.0:-0.0` are two), is
    formatted once.
    """
    header = ["#fmt 1", f"rows {m.rows.lo} {m.rows.hi}", f"cols {m.cols.lo} {m.cols.hi}"]
    # the lines' pieces are freed before this join
    return "\n".join([*header, *_data_lines(m.rows, m.cols, *_cells(m)), ""])


def _cells(m: WindowedMatrix) -> tuple:
    """The flat positions in reading order and the values of the cells of a section that are not `0.0:0.0`; the
    cells' are found in one pass over their words."""
    if m._triplets is None:
        data = np.ascontiguousarray(m.data)  # an adjoint's data is column-major
        re, im = data.view(np.uint64).reshape(-1, 2).T  # the words of each cell's parts
        at = np.flatnonzero(re | im)
        return at, data.reshape(-1)[at]
    _check_size(m.rows, m.cols)  # not once the lines have filled the memory
    i, j, v = m._triplets
    at = (i - m.rows.lo) * m.cols.size + (j - m.cols.lo)
    order = np.argsort(at, kind="stable")
    at, values = at[order], v[order] + 0.0  # + 0.0: a stored -0.0 part reads 0.0, as in the cells
    kept = values != 0  # so a stored zero is 0.0:0.0
    return at[kept], values[kept]


def _data_lines(rows: IndexWindow, cols: IndexWindow, at: np.ndarray, values: np.ndarray) -> list:
    """The dump's line of each row, from the flat positions `at`, ascending, and the values of the cells that
    are not `0.0:0.0`."""
    width = cols.size
    finite = np.isfinite(values)  # only these cells can be non-finite
    if not finite.all():
        r, c = divmod(int(at[np.argmin(finite)]), width)
        raise ValueError(f"entry ({r + rows.lo}, {c + cols.lo}) is not finite and cannot be dumped")
    if not (width and rows.size):
        return [""] * rows.size
    # a token is one cell or one run of 0.0:0.0 cells within a row: a run opens
    # at a row start and after a cell, where no cell opens
    row_starts = np.arange(rows.size, dtype=np.int64) * width
    vacant = np.ones(rows.size, dtype=bool)
    vacant[at[at % width == 0] // width] = False
    after = at + 1
    runs = after[(np.diff(at, append=-1) != 1) & (after % width != 0)]
    starts = np.concatenate([at, row_starts[vacant], runs])
    order = np.argsort(starts, kind="stable")  # three ascending runs, merged
    starts, run = starts[order], order >= at.size
    # equal cells sort together; a group opens where the bits change
    words = values.view(np.uint64).reshape(-1, 2)
    order = np.argsort(words[:, 0] ^ (words[:, 1] * _MIX))
    sorted_re, sorted_im = words[order].T
    first = np.ones(order.size, dtype=bool)
    first[1:] = (sorted_re[1:] != sorted_re[:-1]) | (sorted_im[1:] != sorted_im[:-1])
    # each group is formatted from one member, in reading order: joining
    # strings made in the order they are read is faster
    chosen = np.zeros(order.size, dtype=bool)
    chosen[order[first]] = True
    label = np.empty(order.size, dtype=np.intp)  # each other cell's text
    label[order] = (np.cumsum(chosen) - 1)[order[first]][np.cumsum(first) - 1]
    token = np.empty(starts.size, dtype=np.intp)
    token[~run] = label
    texts = list(map(format_entry, values[chosen].tolist()))
    # a run of k background cells is the first k of a row of them, spaces between
    lengths, token[run] = np.unique(np.diff(starts, append=rows.size * width)[run], return_inverse=True)
    token[run] += len(texts)
    row = " ".join([_ZERO_CELL] * width)
    texts += [row[: (len(_ZERO_CELL) + 1) * k - 1] for k in lengths.tolist()]
    pieces = list(map(texts.__getitem__, token.tolist()))
    ends = [*np.searchsorted(starts, row_starts[1:]).tolist(), starts.size]
    return [" ".join(pieces[a:b]) for a, b in zip([0, *ends], ends)]


# The zero cell, which a dump holds most, as the little-endian word of its
# 7 bytes (so a cell's word is masked to 7).
_ZERO_WORD = int.from_bytes(_ZERO_CELL.encode(), "little")
_SEVEN_BYTES = (1 << 56) - 1
# The eight rotations of a zero cell and its space, `0.0:0.0 `, as little-endian
# words, ascending, and the place of the space in each.
_UNIT = (_ZERO_CELL + " ").encode()
_ROTATIONS = np.array(sorted(int.from_bytes(_UNIT[r:] + _UNIT[:r], "little") for r in range(8)), dtype=np.uint64)
_SPACES = np.array([int(word).to_bytes(8, "little").index(b" ") for word in _ROTATIONS])
# Cells per row block, in whole rows (at least one): 15 rows at 2049 columns,
# about 260 KB of text, so a block's scratch, in the tokenizer and in the
# pattern scan, stays within a few MB however wide the rows are.
_BLOCK = 1 << 15
# Bytes of a file searched at once for line ends and irregular bytes.
_CHUNK = 1 << 20


def row_blocks(m: WindowedMatrix):
    """(top, block) in row order, block the section's rows top, top + 1, ... (about _BLOCK cells): slices of its
    cells, built at once, or a file section's rows, tokenized as they are read until its cells exist."""
    if m._file is not None:
        return _blocks(m._file)
    cells, step = m.data, max(1, _BLOCK // max(1, m.cols.size))
    return ((top, cells[top : top + step]) for top in range(0, m.rows.size if m.cols.size else 0, step))


def _parse_window(line: str, tag: str) -> IndexWindow:
    parts = line.split()
    if len(parts) != 3 or parts[0] != tag:
        raise ValueError(f"expected '{tag} lo hi' header, got {line!r}")
    return IndexWindow(int(parts[1]), int(parts[2]))


def _rewritten(text: str) -> bytes:
    """The canonical bytes of a file read as text: its two window headers as written, then each data line split as
    str.split() splits it and joined by single spaces. Lines are split as str.splitlines() splits them, and blank
    and `#` lines are dropped; _index reads the headers."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    lines[2:] = [" ".join(ln.split()) for ln in lines[2:]]
    return "\n".join([*lines, ""]).encode("utf-8", "surrogatepass")


# A canonical matrix file's bytes, its windows, and where each data line starts and ends (its b'\n').
_Index = namedtuple("_Index", "rows cols data starts ends")


def _index(data: bytes, rewritten: bool = False) -> _Index | None:
    """The index of a matrix file's bytes, or None when they are not canonical.

    Canonical bytes are the bytes dump_matrix writes: ASCII, with no byte
    below 32 but the b'\\n' that ends every line, the last too, and no blank,
    `#` or empty-celled data line: one space between cells and none at
    either end. Rewritten bytes (see _rewritten) have canonical data lines by
    construction, are not tested, and may hold any UTF-8 in their headers.
    Line ends are found in one search for the bytes below 32, a _CHUNK at a time.
    """
    if not (rewritten or data.isascii()):
        return None
    buf = np.frombuffer(data, np.uint8)
    controls, pairs = [], 0  # the bytes below 32, and the places where two spaces meet
    for at in range(0, buf.size, _CHUNK):
        chunk = buf[at : at + _CHUNK + 1]  # a byte on, for the pair across the cut
        controls.append(np.flatnonzero(chunk[:_CHUNK] < 32) + at)
        if not rewritten:
            for words in (chunk, chunk[1:]):
                pairs += np.count_nonzero(words[: words.size // 2 * 2].view("<u2") == 0x2020)
    controls = np.concatenate([*controls, np.zeros(0, np.int64)])
    ends = controls[buf[controls] == 10]
    # no final b'\n', two spaces in a row, or another byte below 32
    if not rewritten and (not data.endswith(b"\n") or pairs or controls.size != ends.size):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).astype(np.int64)[: ends.size]  # no line end: no line
    headers, first = [], 0
    while len(headers) < 2 and first < starts.size:
        line = data[starts[first] : ends[first]].decode("utf-8", "surrogatepass")
        first += 1
        if line.strip() and not line.lstrip().startswith("#"):
            headers.append(line)
    if len(headers) < 2:
        raise ValueError("matrix file is missing its window headers")
    rows, cols = _parse_window(headers[0], "rows"), _parse_window(headers[1], "cols")
    starts, ends = starts[first:], ends[first:]
    if not rewritten and (np.any(ends <= starts) or np.any(buf.take(starts, mode="clip") == 32)
                          or np.any(buf.take(starts, mode="clip") == 35) or np.any(buf.take(ends - 1) == 32)):
        return None
    # the rows of an empty column window are dumped as blank lines, which are dropped
    expected = rows.size if cols.size else 0
    if starts.size != expected:
        raise ValueError(f"expected {expected} data lines, found {starts.size}")
    return _Index(rows, cols, data, starts, ends)


def _read_block(out: np.ndarray, index: _Index, lines: slice, first: int):
    """Parse data lines `first` + 1, `first` + 2, ... (`lines` of the index) into the flat `out`;
    the flat index of the first non-finite cell parsed, or None.

    The block is read as 8-byte words from a multiple of 8: a run of two or
    more equal words that are a rotation of `0.0:0.0 ` is a run of `0.0:0.0`
    cells, counted and skipped. The bytes between runs, each piece whole
    cells, are cut into cells at b' ' and at the line ends; of these, the
    `0.0:0.0` cells are found by comparing each cell's first word with that
    cell's, and only the others are decoded and parsed (`0.0:-0.0` too). A
    malformed cell raises before a wrong cell count on a later line, as a
    line-by-line reader would.
    """
    data, width = index.data, index.cols.size
    lo, end = int(index.starts[lines][0]), int(index.ends[lines][-1]) + 1  # through the last line's end
    skip = lo % 8  # the block's bytes from `skip` on; every word holding a line end is not a zero run
    count = (end - lo + skip + 7) // 8
    if lo - skip + 8 * count <= len(data):
        buf = np.frombuffer(data, np.uint8, 8 * count, lo - skip)
    else:  # the file's last lines, and zero bytes
        buf = np.frombuffer(data[lo - skip : end].ljust(8 * count, b"\0"), np.uint8)
    words = buf.view("<u8")
    opens = np.flatnonzero(np.concatenate(([True], words[1:] != words[:-1])))
    runs = np.diff(opens, append=words.size)
    rotation = np.minimum(np.searchsorted(_ROTATIONS, words[opens]), 7)
    zero_run = (runs > 1) & (_ROTATIONS[rotation] == words[opens])
    opens, runs, space = opens[zero_run], runs[zero_run], _SPACES[rotation[zero_run]]
    # a run's cells lie between its first and last space; the pieces of bytes around the runs are whole cells
    runs_cells = np.stack([8 * opens + space + 1, 8 * (opens + runs - 1) + space + 1], axis=1).ravel()
    bounds = np.concatenate(([skip], runs_cells, [end - lo + skip]))
    piece_starts, piece_sizes = bounds[0::2], bounds[1::2] - bounds[0::2]
    size, piece_firsts = int(piece_sizes.sum()), np.cumsum(piece_sizes) - piece_sizes  # where each piece lands
    text = np.zeros(size + 8, dtype=np.uint8)  # 8 zero bytes on, for the words of the last cells
    text[:size] = buf[np.arange(size) + np.repeat(piece_starts - piece_firsts, piece_sizes)]
    cell_ends = np.flatnonzero((text[:size] == 32) | (text[:size] == 10))
    eol = np.flatnonzero(text[cell_ends] == 10)  # each line's last cell
    cell_starts = np.empty_like(cell_ends)
    cell_starts[0], cell_starts[1:] = 0, cell_ends[:-1] + 1
    # each cell's index in the block: the cells before it in the text and in the runs before its piece
    piece = np.searchsorted(piece_firsts, cell_ends, side="right") - 1
    cell = np.arange(cell_ends.size) + np.concatenate(([0], np.cumsum(runs - 1)))[piece]
    counts = np.diff(cell[eol], prepend=-1)
    wrong = np.flatnonzero(counts != width)
    kept = np.searchsorted(cell, (wrong[0] if wrong.size else counts.size) * width)  # cells before the first wrong line
    cell_starts, cell_ends, cell = cell_starts[:kept], cell_ends[:kept], cell[:kept]
    first_words = np.ndarray(size + 1, "<u8", text, strides=(1,))[cell_starts]  # unaligned: the 8 bytes from each byte
    cell_size = cell_ends - cell_starts
    zero = (cell_size == 7) & (first_words & _SEVEN_BYTES == _ZERO_WORD)
    at = np.flatnonzero(~zero)
    bad = None
    if at.size:
        lengths = cell_size[at] + 1  # each kept cell with its separator
        chosen = np.arange(lengths.sum()) + np.repeat(cell_starts[at] - (np.cumsum(lengths) - lengths), lengths)
        kept_text = text[chosen].tobytes().decode("utf-8", "surrogatepass")
        # the cells are exactly `re:im` iff the colons, split out as tokens of
        # their own, sit at every third place and nowhere else, and the other tokens are floats
        tokens = kept_text.replace(":", " : ").split()
        try:
            if len(tokens) != 3 * at.size or not kept_text.count(":") == tokens[1::3].count(":") == at.size:
                raise ValueError
            del tokens[1::3]
            values = np.fromiter(map(float, tokens), float, 2 * at.size).view(complex)
        except ValueError:  # the first malformed cell, named by its place
            for cell_text, r, c in zip(kept_text.split(), *np.divmod(cell[at], width)):
                try:
                    real, imag = map(float, cell_text.split(":"))  # two floats about one colon
                except ValueError:
                    raise ValueError(f"data line {first + r + 1}: entry {c + 1}: malformed matrix entry {cell_text!r}")
            raise
        out[cell[at]] = values
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(cell[at[np.argmin(finite)]])
    if wrong.size:
        line = int(wrong[0])
        raise ValueError(f"data line {first + line + 1}: expected {width} entries, found {counts[line]}")
    return bad


def _blocks(index: _Index, out: np.ndarray | None = None):
    """The row blocks of an indexed file, tokenized into rows of `out`, or of fresh zeros.

    Non-finite cells are looked for in the parsed cells only, and the first
    one is reported once every line has parsed.
    """
    width, bad = index.cols.size, None
    step = max(1, _BLOCK // max(1, width))
    if out is None and index.starts.size:  # the largest block
        _check_size(IndexWindow(0, step - 1), index.cols)
    for top in range(0, index.starts.size, step):
        lines = slice(top, top + step)
        block = np.zeros((index.starts[lines].size, width), dtype=complex) if out is None else out[lines]
        found = _read_block(block.reshape(-1), index, lines, top)
        if bad is None and found is not None:
            bad = top * width + found
        yield top, block
    if bad is not None:
        r, c = divmod(bad, width)
        raise ValueError(f"data line {r + 1}: entry {c + 1} is not finite")


def _indexed(data: bytes | str) -> _Index:
    """The index (see _index) of a matrix file's bytes or text; if not canonical, they are rewritten once from the text,
    the strict UTF-8 decoding of bytes, less a leading byte-order mark."""
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    return _index(raw) or _index(_rewritten(data.removeprefix("\ufeff") if isinstance(data, str)
                                            else data.decode("utf-8-sig")), rewritten=True)


def stream_matrix(data: bytes | str) -> WindowedMatrix:
    """The section of a matrix file, on its bytes (see load_matrix): the windows, the headers and the count of data
    lines are read at once, the rows when they are read; a malformed cell raises in the block that holds it, and a
    non-finite one after the last block."""
    index = _indexed(data)
    if len(index.data) < index.starts.size * (4 * index.cols.size - 1):  # too short for its cells, each of 3 bytes
        for _ in _blocks(index):  # or more: its bad line is named before a table sized by its windows is made
            pass
    return WindowedMatrix._of(index.rows, index.cols, file=index)


def load_matrix(data: bytes | str) -> WindowedMatrix:
    """Parse the matrix file format produced by dump_matrix, from its bytes or its text, to cells.

    Data lines are tokenized with numpy, about `_BLOCK` cells at a time, so the
    cost grows with the cells other than `0.0:0.0`; cells may be separated by
    any whitespace str.split() accepts. Errors name the first bad line, and
    within it the first malformed cell; non-finite entries are reported once
    every line has parsed. A leading byte-order mark is dropped.
    """
    m = stream_matrix(data)
    m.data  # its cells, built once
    return m
