"""Exact finite sections of the elementary circle operators.

A section is a dense complex block addressed by absolute row/column indices.
Builders compute the codomain window themselves, as the hull of the images of
the domain basis vectors, so a freshly built section always contains every
nonzero entry of its columns. Composition refuses to proceed (rather than
silently truncate) whenever that guarantee would be lost, which is the classic
finite-section failure mode.

Inside, elementaries and chains compose as triplets, the nonzero entries as
(row, column, value) arrays, and are densified once at the API boundary; a
dense section inside a chain becomes triplets only on the columns it is fed.
A product whose operands meet in many products per output entry is a dense
matrix product, and it is done as one, by BLAS.

Empty windows are first class: a projection applied to a wholly anti-analytic
window, or multiplication by the zero symbol, legitimately produces a section
with no rows, and such sections compose to zero blocks.

All values are immutable after construction and all functions are pure.
"""

from collections import namedtuple
from dataclasses import dataclass

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
    "bilateral_shift",
    "compose_z",
    "mult",
    "mult_z",
    "adjoint",
    "build_elementary",
    "compose",
    "compose_chain",
    "dump_matrix",
    "load_matrix",
]


class WindowError(ValueError):
    """Window mismatch, exactness loss, or out-of-window access."""


# numpy's int64 arithmetic wraps silently, so indices are checked against these bounds in Python ints
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class IndexWindow:
    """Contiguous inclusive interval of basis indices; hi < lo means empty."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            # canonical empty representation so empties compare equal
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", -1)

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


@dataclass(frozen=True)
class WindowedMatrix:
    """Dense complex section addressed by absolute row/column indices."""

    rows: IndexWindow
    cols: IndexWindow
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (self.rows.size, self.cols.size):
            raise WindowError(
                f"data shape {data.shape} does not match windows {self.rows} x {self.cols}"
            )
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def _of(cls, rows: IndexWindow, cols: IndexWindow, data: np.ndarray) -> "WindowedMatrix":
        """Section on a complex array of the right shape that nothing else writes: frozen, not copied."""
        data.setflags(write=False)
        section = object.__new__(cls)
        section.__dict__.update(rows=rows, cols=cols, data=data)  # what a frozen __init__ would set
        return section

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
        data = np.zeros((rows.size, cols.size), dtype=complex)
        if not (self.rows.is_empty or self.cols.is_empty):
            data[
                self.rows.lo - rows.lo : self.rows.hi + 1 - rows.lo,
                self.cols.lo - cols.lo : self.cols.hi + 1 - cols.lo,
            ] = self.data
        return WindowedMatrix._of(rows, cols, data)


@dataclass(frozen=True)
class Elementary:
    """One of the closed-form basis maps a section can be built from."""

    name: str
    power: int = 0
    symbol: LaurentSymbol | None = None

    def __post_init__(self):
        if self.name == "Cz" and self.power < 1:
            raise ValueError("composition power must be >= 1")


W = Elementary("W")  # dyadic decimation: e_{2n} -> e_n, odd -> 0
WSTAR = Elementary("W*")  # dyadic dilation: e_n -> e_{2n}
K = Elementary("K")  # even/odd split: e_{2n} -> e_n, e_{2n+1} -> e_{-n-1}
KSTAR = Elementary("K*")  # inverse split: e_n -> e_{2n}, e_{-n-1} -> e_{2n+1}
J = Elementary("J")  # flip: e_n -> e_{-n-1}
P = Elementary("P")  # analytic projection
U = Elementary("U")  # forward unilateral shift
USTAR = Elementary("U*")  # backward shift into the analytic side; kills n <= 0


def bilateral_shift(power: int) -> Elementary:
    return Elementary("S", power)


def compose_z(k: int) -> Elementary:
    """Composition with z^k: e_n -> e_{kn}; k must be >= 1."""
    return Elementary("Cz", k)


def mult_z(k: int) -> Elementary:
    """Multiplication by z^k on the two-sided sequence space."""
    return Elementary("Mz", k)


def mult(phi: LaurentSymbol) -> Elementary:
    return Elementary("M", 0, phi)


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
    "S": (lambda j, p: j + p, None),
    "Mz": (lambda j, p: j + p, None),
    "Cz": (lambda j, p: p * j, None),
}


# Entries (i[t], j[t]) = v[t] of a section on rows x cols, column-major with
# rows ascending and no (row, column) pair twice; all others are zero.
_Triplets = namedtuple("_Triplets", "rows cols i j v")


def _ends(window: IndexWindow) -> list:
    """The first two and last two indices of a window, as Python ints."""
    return [*window.indices()[:2], *window.indices()[-2:]]


def _check_int64(values, what: str) -> None:
    """A WindowError unless every Python int of `values` lies in int64, where numpy's arithmetic would wrap."""
    if any(not _INT64.min <= v <= _INT64.max for v in values):
        raise WindowError(f"{what} past int64")


def _images(kind: Elementary, domain: IndexWindow) -> _Triplets:
    """Triplets of the images of e_j, j in `domain`, by index arithmetic; the rows are their hull."""
    if kind.name in _ANALYTIC_DOMAIN and not domain.is_empty and domain.lo < 0:
        raise WindowError(f"{kind.name} requires an analytic domain (lo >= 0), got {domain}")
    j = domain.index_array()
    # each map is monotone on each parity and sign: the domain's ends' images, in Python ints, bound the rest
    ends = np.array(_ends(domain), dtype=object)
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
    return _Triplets(rows, domain, i, j, v)


def _triplets(m: "WindowedMatrix", cols: np.ndarray | None = None) -> _Triplets:
    """Nonzero entries of a dense section; only on the ascending absolute `cols` when given."""
    block = m.data if cols is None else m.data[:, cols - m.cols.lo]
    c, r = np.nonzero(block.T)
    return _Triplets(m.rows, m.cols, r + m.rows.lo, c + m.cols.lo if cols is None else cols[c], block[r, c])


# Past this many products per output entry a join is a dense matrix product,
# and BLAS the faster (2 vCPUs: a full 512 x 2449 block times a band of 9 took
# 0.8 s as triplets, 0.5 s by BLAS). Banded chains stay far below: 0.2 at most.
_DENSE_JOIN = 8
# Products formed at once: the join's scratch, about 100 bytes a product,
# stays near 25 MB however many products meet in all.
_SLICE = 1 << 18


# overflow and inf * 0 leave inf and nan, which the checks fail on, and write nothing to stderr
@np.errstate(over="ignore", invalid="ignore")
def _product(a, b):
    """Triplets of a . b, or its section when the join is dense.

    Each entry of b in row r meets each entry of a in column r; a dense `a`
    is read only on the columns that b reaches. The products are formed a
    slice of b's columns at a time, and those landing on one entry are
    summed in ascending r.
    """
    if not a.cols.covers(b.rows):
        raise WindowError(f"composition loses exactness: left columns {a.cols} do not cover right rows {b.rows}")
    _check_int64([a.rows.size * b.cols.size], f"the keys of a product on {a.rows} x {b.cols} reach")
    dense_b = isinstance(b, WindowedMatrix)
    inner = np.count_nonzero(b.data, axis=1) if dense_b else np.bincount(b.i - b.rows.lo, minlength=b.rows.size)
    reach = slice(b.rows.lo - a.cols.lo, b.rows.lo - a.cols.lo + b.rows.size)  # a's columns on b's rows
    at = _triplets(a, np.flatnonzero(inner) + b.rows.lo) if isinstance(a, WindowedMatrix) else a
    counts = np.bincount(at.j - a.cols.lo, minlength=a.cols.size)
    if counts[reach] @ inner > _DENSE_JOIN * a.rows.size * b.cols.size:
        # + 0.0: zeros read 0.0, as the triplets' densified zeros do
        return WindowedMatrix._of(a.rows, b.cols, _dense(a).data[:, reach] @ _dense(b).data + 0.0)
    a, b = at, _triplets(b) if dense_b else b
    k = b.i - a.cols.lo  # the column of a each entry of b meets
    first, per = np.cumsum(counts) - counts, counts[k]  # a's first entry in each column; b's products
    cuts = [0, k.size]
    if per.sum() > _SLICE:  # cut b at the columns where another _SLICE products have been formed
        done = np.cumsum(per) - per
        opens = np.flatnonzero(np.diff(b.j, prepend=b.cols.lo - 1))
        cuts[1:1] = opens[np.diff(done[opens] // _SLICE, prepend=0) > 0]
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        p = per[lo:hi]
        t = np.repeat(np.arange(lo, hi), p)  # the entry of b in each product
        s = np.arange(t.size) + np.repeat(first[k[lo:hi]] - (np.cumsum(p) - p), p)  # and the entry of a
        i, j, v = a.i[s], b.j[t], a.v[s] * b.v[t]
        key = (j - b.cols.lo) * a.rows.size + (i - a.rows.lo)
        if np.any(key[1:] <= key[:-1]):
            # repeats: b's column comes in ascending r, so bincount sums each entry's products in that order
            key, group = np.unique(key, return_inverse=True)
            j, i = np.divmod(key, a.rows.size)
            total = np.empty(key.size, dtype=complex)
            total.real, total.imag = np.bincount(group, v.real), np.bincount(group, v.imag)
            i, j, v = i + a.rows.lo, j + b.cols.lo, total
        pieces.append((i, j, v))
    return _Triplets(a.rows, b.cols, *(pieces[0] if len(pieces) == 1 else map(np.concatenate, zip(*pieces))))


def _dense(x) -> "WindowedMatrix":
    """The section of triplets; a dense section is returned as it is."""
    if isinstance(x, WindowedMatrix):
        return x
    _check_int64([x.rows.size * x.cols.size * 16], f"the bytes of a section on {x.rows} x {x.cols} reach")
    data = np.zeros((x.rows.size, x.cols.size), dtype=complex)
    data[x.i - x.rows.lo, x.j - x.cols.lo] += x.v  # into zeros, as a dense product sums: -0.0 reads 0.0
    return WindowedMatrix._of(x.rows, x.cols, data)


@np.errstate(over="ignore", invalid="ignore")
def _scaled(x, factor: float):
    """factor * x, kept a section or triplets as x is."""
    if isinstance(x, WindowedMatrix):
        return WindowedMatrix._of(x.rows, x.cols, factor * x.data)
    return x._replace(v=factor * x.v)


def compose_chain(stages: list, domain: IndexWindow) -> WindowedMatrix:
    """Compose elementary kinds and ready sections listed leftmost-first, starting from `domain`."""
    result = None
    for stage in reversed(stages):  # products stay triplets until the end
        if not isinstance(stage, WindowedMatrix):
            stage = _images(stage, domain if result is None else result.rows)
        result = stage if result is None else _product(stage, result)
    if result is None:
        raise ValueError("empty chain")
    return _dense(result)


def build_elementary(kind: Elementary, domain: IndexWindow) -> WindowedMatrix:
    """Exact section of an elementary operator on the given domain window.

    The codomain window is the hull of the nonzero images of the domain basis
    vectors and may be empty (the section then has no rows).
    """
    return _dense(_images(kind, domain))


def compose(a: WindowedMatrix, b: WindowedMatrix) -> WindowedMatrix:
    """Section of the operator product a . b.

    Exactness requires a's columns to cover b's rows; otherwise entries of
    b's output would be consumed blindly, so such a composition is refused.
    """
    return _dense(_product(a, b))


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


def parse_entry(text: str) -> complex:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"malformed matrix entry {text!r}")
    return complex(float(head), float(tail))


def dump_matrix(m: WindowedMatrix) -> str:
    """Render the windowed matrix file format (bit-exact round trip); entries must be finite.

    Each run of `0.0:0.0` cells within a row is written as one slice of a
    row of them, and each distinct other cell, told apart by its 128 bits
    (so `3.0:0.0` and `3.0:-0.0` are two), is formatted once.
    """
    header = ["#fmt 1", f"rows {m.rows.lo} {m.rows.hi}", f"cols {m.cols.lo} {m.cols.hi}"]
    return "\n".join([*header, *_data_lines(m), ""])  # the lines' pieces are freed before this join


def _data_lines(m: WindowedMatrix) -> list:
    """The dump's line of each row of m."""
    data = np.ascontiguousarray(m.data)  # an adjoint's data is column-major
    re, im = data.view(np.uint64).reshape(-1, 2).T  # the words of each cell's parts
    background = (re == 0) & (im == 0)
    # a token is one other cell or one run of background cells within a row
    grid = background.reshape(data.shape)
    opens = ~grid
    opens[:, 1:] |= ~grid[:, :-1]  # a run opens after an other cell
    opens[:, :1] = True
    starts = np.flatnonzero(opens)
    run = background[starts]
    cells = starts[~run]  # every other cell, in reading order; only these can be non-finite
    values = data.reshape(-1)[cells]
    finite = np.isfinite(values)
    if not finite.all():
        r, c = divmod(int(cells[np.argmin(finite)]), m.cols.size)
        raise ValueError(f"entry ({r + m.rows.lo}, {c + m.cols.lo}) is not finite and cannot be dumped")
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
    lengths, token[run] = np.unique(np.diff(starts, append=data.size)[run], return_inverse=True)
    token[run] += len(texts)
    row = " ".join([_ZERO_CELL] * data.shape[1])
    texts += [row[: (len(_ZERO_CELL) + 1) * k - 1] for k in lengths.tolist()]
    pieces = list(map(texts.__getitem__, token.tolist()))
    ends = np.cumsum(np.count_nonzero(opens, axis=1)).tolist()
    return [" ".join(pieces[a:b]) for a, b in zip([0, *ends], ends)]


# The zero cell, which a dump holds most, as the little-endian word of its
# 7 bytes (so a cell's word is masked to 7).
_ZERO_WORD = int.from_bytes(_ZERO_CELL.encode(), "little")
_SEVEN_BYTES = (1 << 56) - 1
# Cells tokenized at once, in whole lines (at least one): 7 lines at 2049
# columns, about 130 KB of text, so the tokenizer's scratch stays a small part
# of the section it fills however wide the lines are.
_BLOCK = 1 << 14


def _cells(text: str) -> tuple:
    """The UTF-8 bytes of text and 7 zero bytes, and where each cell starts and ends; b' ' and b'\\n' end cells."""
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass") + bytes(7), np.uint8)
    ends = np.flatnonzero((buf == 32) | (buf == 10))
    return buf, np.concatenate(([0], ends[:-1] + 1)), ends


def _read_block(out: np.ndarray, lines: list, width: int, first: int) -> None:
    """Parse data lines `first` + 1, `first` + 2, ... of `width` cells each into the flat `out`.

    A block that is not canonical (ASCII, one space between cells, no blank
    at either end of a line) is first rewritten as its cells joined by single
    spaces, which splits it exactly as str.split() does. Every cell is then
    ended by b' ' or b'\\n'. The `0.0:0.0` cells are found by comparing each
    cell's first word with that cell's, and only the others are decoded and
    parsed; `0.0:-0.0` is parsed like any other cell. A malformed cell raises
    before a wrong cell count on a later line, as a line-by-line reader would.
    """
    text = "\n".join(lines) + "\n"
    canonical = text.isascii() and "\t" not in text and "\x1f" not in text
    if canonical:
        buf, starts, ends = _cells(text)
    if not canonical or np.any(starts == ends):  # an empty cell: a blank at either end of a line, or two in a row
        buf, starts, ends = _cells("\n".join(" ".join(line.split()) for line in lines) + "\n")
    counts = np.diff(np.flatnonzero(buf[ends] == 10), prepend=-1)
    wrong = np.flatnonzero(counts != width)
    cells = (wrong[0] if wrong.size else len(lines)) * width  # the cells before the first wrong line
    starts, ends = starts[:cells], ends[:cells]
    words = np.ndarray(buf.size - 7, "<u8", buf, strides=(1,))[starts]  # unaligned: the 8 bytes from each byte
    size = ends - starts
    zero = (size == 7) & (words & _SEVEN_BYTES == _ZERO_WORD)
    at = np.flatnonzero(~zero)  # out starts at +0
    if at.size:
        lengths = size[at] + 1  # each kept cell with its separator
        chosen = np.arange(lengths.sum()) + np.repeat(starts[at] - (np.cumsum(lengths) - lengths), lengths)
        kept_text = buf[chosen].tobytes().decode("utf-8", "surrogatepass")
        # the cells are exactly `re:im` iff the colons, split out as tokens
        # of their own, sit at every third place and nowhere else
        tokens = kept_text.replace(":", " : ").split()
        if len(tokens) != 3 * at.size or not kept_text.count(":") == tokens[1::3].count(":") == at.size:
            for cell in kept_text.split():
                parse_entry(cell)  # raises for the first malformed cell
        del tokens[1::3]
        out[at] = np.fromiter(map(float, tokens), float, 2 * at.size).view(complex)
    if wrong.size:
        line = int(wrong[0])
        raise ValueError(f"data line {first + line + 1}: expected {width} entries, found {counts[line]}")


def load_matrix(text: str) -> WindowedMatrix:
    """Parse the matrix file format produced by dump_matrix.

    Data lines are tokenized with numpy, about `_BLOCK` cells at a time, so the
    cost grows with the cells other than `0.0:0.0`; cells may be separated by
    any whitespace str.split() accepts. Errors name the first bad line, and
    within it the first malformed cell; non-finite entries are looked for once
    every line has parsed.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:
        raise ValueError("matrix file is missing its window headers")

    def parse_window(line: str, tag: str) -> IndexWindow:
        parts = line.split()
        if len(parts) != 3 or parts[0] != tag:
            raise ValueError(f"expected '{tag} lo hi' header, got {line!r}")
        return IndexWindow(int(parts[1]), int(parts[2]))

    rows = parse_window(lines[0], "rows")
    cols = parse_window(lines[1], "cols")
    body = lines[2:]
    # the rows of an empty column window are dumped as blank lines, dropped above
    expected = rows.size if cols.size else 0
    if len(body) != expected:
        raise ValueError(f"expected {expected} data lines, found {len(body)}")
    data = np.zeros((rows.size, cols.size), dtype=complex)
    flat, step = data.reshape(-1), max(1, _BLOCK // max(1, cols.size))
    for r in range(0, len(body), step):
        _read_block(flat[r * cols.size :], body[r : r + step], cols.size, r)
    finite = np.isfinite(data)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"data line {r + 1}: entry {c + 1} is not finite")
    return WindowedMatrix._of(rows, cols, data)
