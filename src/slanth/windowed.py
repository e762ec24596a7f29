"""Exact finite sections of the elementary circle operators.

A section is a dense complex block addressed by absolute row/column indices.
Builders compute the codomain window themselves, as the hull of the images of
the domain basis vectors, so a freshly built section always contains every
nonzero entry of its columns. Composition refuses to proceed (rather than
silently truncate) whenever that guarantee would be lost, which is the classic
finite-section failure mode.

Empty windows are first class: a projection applied to a wholly anti-analytic
window, or multiplication by the zero symbol, legitimately produces a section
with no rows, and such sections compose to zero blocks.

All values are immutable after construction and all functions are pure.
"""

from dataclasses import dataclass

import numpy as np

from .symbol import LaurentSymbol

__all__ = [
    "IndexWindow",
    "WindowError",
    "WindowedMatrix",
    "WindowedVector",
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
    "apply",
    "build_elementary",
    "compose",
    "dump_matrix",
    "load_matrix",
    "unit_vector",
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

    def shift(self, delta: int) -> "IndexWindow":
        if self.is_empty:
            return self
        return IndexWindow(self.lo + delta, self.hi + delta)

    def __str__(self):
        return "empty" if self.is_empty else f"{self.lo}:{self.hi}"


@dataclass(frozen=True)
class WindowedVector:
    """Complex vector addressed by absolute basis indices."""

    window: IndexWindow
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (self.window.size,):
            raise WindowError(f"vector data shape {data.shape} does not match window {self.window}")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def value(self, i: int) -> complex:
        if i not in self.window:
            raise WindowError(f"index {i} outside window {self.window}")
        return complex(self.data[i - self.window.lo])

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def unit_vector(n: int, window: IndexWindow) -> WindowedVector:
    if n not in window:
        raise WindowError(f"index {n} outside window {window}")
    data = np.zeros(window.size, dtype=complex)
    data[n - window.lo] = 1.0
    return WindowedVector(window, data)


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

    def entry(self, i: int, j: int) -> complex:
        if i not in self.rows or j not in self.cols:
            raise WindowError(f"entry ({i}, {j}) outside windows {self.rows} x {self.cols}")
        return complex(self.data[i - self.rows.lo, j - self.cols.lo])

    def column(self, j: int) -> WindowedVector:
        if j not in self.cols:
            raise WindowError(f"column {j} outside window {self.cols}")
        return WindowedVector(self.rows, self.data[:, j - self.cols.lo])

    def restrict(self, rows: IndexWindow, cols: IndexWindow) -> "WindowedMatrix":
        """Sub-block on windows contained in this section's windows."""
        if not (self.rows.covers(rows) and self.cols.covers(cols)):
            raise WindowError(
                f"restriction {rows} x {cols} not contained in {self.rows} x {self.cols}"
            )
        if rows.is_empty or cols.is_empty:
            return WindowedMatrix(rows, cols, np.zeros((rows.size, cols.size)))
        block = self.data[
            rows.lo - self.rows.lo : rows.hi + 1 - self.rows.lo,
            cols.lo - self.cols.lo : cols.hi + 1 - self.cols.lo,
        ]
        return WindowedMatrix(rows, cols, block)

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
        return WindowedMatrix(rows, cols, data)


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


def _column_images(kind: Elementary, j: int) -> list[tuple[int, complex]]:
    """Nonzero rows of (operator e_j), as (row, value) pairs."""
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
    if name == "S":
        return [(j + kind.power, 1.0)]
    if name == "Cz":
        return [(kind.power * j, 1.0)]
    if name == "Mz":
        return [(j + kind.power, 1.0)]
    if name == "M":
        return [(j + n, a) for n, a in kind.symbol.items()]
    raise ValueError(f"unknown elementary kind {name!r}")


def build_elementary(kind: Elementary, domain: IndexWindow) -> WindowedMatrix:
    """Exact section of an elementary operator on the given domain window.

    The codomain window is the hull of the nonzero images of the domain basis
    vectors and may be empty (the section then has no rows).
    """
    if kind.name in _ANALYTIC_DOMAIN and not domain.is_empty and domain.lo < 0:
        raise WindowError(f"{kind.name} requires an analytic domain (lo >= 0), got {domain}")
    columns = {j: _column_images(kind, j) for j in domain.indices()}
    hit = [i for col in columns.values() for i, _ in col]
    rows = IndexWindow(min(hit), max(hit)) if hit else IndexWindow.empty()
    data = np.zeros((rows.size, domain.size), dtype=complex)
    for j, col in columns.items():
        for i, a in col:
            data[i - rows.lo, j - domain.lo] += a
    return WindowedMatrix(rows, domain, data)


def compose(a: WindowedMatrix, b: WindowedMatrix) -> WindowedMatrix:
    """Section of the operator product a . b.

    Exactness requires a's columns to cover b's rows; otherwise entries of
    b's output would be consumed blindly, so such a composition is refused.
    """
    if not a.cols.covers(b.rows):
        raise WindowError(
            f"composition loses exactness: left columns {a.cols} do not cover right rows {b.rows}"
        )
    if b.rows.is_empty:
        data = np.zeros((a.rows.size, b.cols.size), dtype=complex)
    else:
        lo = b.rows.lo - a.cols.lo
        data = a.data[:, lo : lo + b.rows.size] @ b.data
    return WindowedMatrix(a.rows, b.cols, data)


def adjoint(a: WindowedMatrix) -> WindowedMatrix:
    """Conjugate transpose with rows and columns swapped."""
    return WindowedMatrix(a.cols, a.rows, np.conj(a.data.T))


def apply(a: WindowedMatrix, v: WindowedVector) -> WindowedVector:
    """Matrix-vector product; v's window must sit inside a's columns."""
    if not a.cols.covers(v.window):
        raise WindowError(f"vector window {v.window} outside matrix columns {a.cols}")
    x = np.zeros(a.cols.size, dtype=complex)
    if not v.window.is_empty:
        x[v.window.lo - a.cols.lo : v.window.hi + 1 - a.cols.lo] = v.data
    return WindowedVector(a.rows, a.data @ x)


def format_entry(c: complex) -> str:
    """`re:im` of a Python complex, each part in the shortest form that parses back exactly."""
    return f"{c.real!r}:{c.imag!r}"


def parse_entry(text: str) -> complex:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"malformed matrix entry {text!r}")
    return complex(float(head), float(tail))


def dump_matrix(m: WindowedMatrix) -> str:
    """Render the windowed matrix file format (bit-exact round trip)."""
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
    if len(body) != rows.size:
        raise ValueError(f"expected {rows.size} data lines, found {len(body)}")
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
    return WindowedMatrix(rows, cols, data)
