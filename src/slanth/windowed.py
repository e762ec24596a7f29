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


def _images(kind: Elementary, domain: IndexWindow) -> _Triplets:
    """Triplets of the images of e_j, j in `domain`, by index arithmetic; the rows are their hull."""
    if kind.name in _ANALYTIC_DOMAIN and not domain.is_empty and domain.lo < 0:
        raise WindowError(f"{kind.name} requires an analytic domain (lo >= 0), got {domain}")
    j = np.arange(domain.lo, domain.hi + 1)
    if kind.name == "M":
        degrees = np.array([n for n, _ in kind.symbol.items()], dtype=np.int64)
        coeffs = np.array([a for _, a in kind.symbol.items()], dtype=complex)
        i, j, v = (j[:, None] + degrees).ravel(), np.repeat(j, degrees.size), np.tile(coeffs, j.size)
    elif kind.name in _INDEX_MAPS:
        row, keep = _INDEX_MAPS[kind.name]
        j = j if keep is None else j[keep(j)]
        i, v = row(j, kind.power), np.ones(j.size, dtype=complex)
    else:
        raise ValueError(f"unknown elementary kind {kind.name!r}")
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


def parse_entry(text: str) -> complex:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"malformed matrix entry {text!r}")
    return complex(float(head), float(tail))


def dump_matrix(m: WindowedMatrix) -> str:
    """Render the windowed matrix file format (bit-exact round trip); entries must be finite."""
    finite = np.isfinite(m.data)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"entry ({r + m.rows.lo}, {c + m.cols.lo}) is not finite and cannot be dumped")
    lines = ["#fmt 1", f"rows {m.rows.lo} {m.rows.hi}", f"cols {m.cols.lo} {m.cols.hi}"]
    for row in m.data:
        lines.append(" ".join(map(format_entry, row.tolist())))
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> WindowedMatrix:
    """Parse the matrix file format produced by dump_matrix."""
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
    for r, line in enumerate(body):
        # the line is cols.size cells of exactly `re:im` iff the colons, split
        # out as tokens of their own, sit at every third place and nowhere else
        tokens = line.replace(":", " : ").split()
        if len(tokens) != 3 * cols.size or not line.count(":") == tokens[1::3].count(":") == cols.size:
            cells = line.split()
            if len(cells) != cols.size:
                raise ValueError(f"data line {r + 1}: expected {cols.size} entries, found {len(cells)}")
            for cell in cells:
                parse_entry(cell)  # raises for the first malformed cell
        del tokens[1::3]
        data.view(float)[r] = np.fromiter(map(float, tokens), float, 2 * cols.size)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"data line {r + 1}: entry {c + 1} is not finite")
    return WindowedMatrix._of(rows, cols, data)
