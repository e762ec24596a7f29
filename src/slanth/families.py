"""The operator families, each built by two routes: its closed form and its oracle.

The entry at row i, column j of each family is one symbol coefficient:

    toeplitz            a_{i-j}
    hankel              a_{i+j+1}
    slant-toeplitz      a_{2i-j}
    slant-hankel        a_{2i+j+1}
    h-toeplitz          a_{i-n}   (j = 2n),   a_{i+n+1}   (j = 2n+1)
    slant-h-toeplitz    a_{2i-n}  (j = 2n),   a_{2i+n+1}  (j = 2n+1)
    slant-h-adjoint     conj of the slant-h form with (i, j) swapped
    extension(m)        the slant-h form continued to rows i >= -m

`build_family` scatters each support degree of the symbol to the entries
that hold it, and every reader takes sections; `build_compositional`
assembles the same operators from elementary sections with exact window
propagation and serves as the independent oracle the closed forms are tested
against. The two agree bit for bit: every zero of either reads +0. Each
family, extension(m) too, is one `Family` record holding both routes, its CLI
name and its expression atom; the CLI and the expression language build their
tables from `COMPOSITIONAL_KINDS` and `extension`.
"""

from collections import namedtuple
from collections.abc import Callable

import numpy as np

from .symbol import LaurentSymbol, conj_reflect
from .windowed import (
    J,
    K,
    KSTAR,
    P,
    W,
    WSTAR,
    IndexWindow,
    WindowedMatrix,
    WindowError,
    _Triplets,
    _chain,
    _check_int64,
    _check_size,
    _dense,
    _ends,
    bilateral_shift,
    mult,
)

__all__ = [
    "Family",
    "TOEPLITZ",
    "HANKEL",
    "SLANT_TOEPLITZ",
    "SLANT_HANKEL",
    "H_TOEPLITZ",
    "SLANT_H_TOEPLITZ",
    "SLANT_H_ADJOINT",
    "COMPOSITIONAL_KINDS",
    "extension",
    "build_family",
    "build_compositional",
]


class Family(namedtuple("Family", "name atom degree chain conj depth", defaults=(False, 0))):
    """One operator family: the single record every layer reads.

    `name` is also the CLI `--family` name and `atom` the expression atom.
    The entry at row i, column j is the symbol coefficient of degree
    `degree(i, j)`, conjugated when `conj` is set; `degree` takes Python ints
    or numpy index grids alike, and on each column parity it moves by one
    step per two columns, the same on every row. `chain(phi)` lists the
    elementary maps of the compositional oracle, leftmost applied last, and
    `depth` is how far rows extend below zero.
    """

    __slots__ = ()


def _h_shuffle(step: int) -> Callable:
    """Degree map step*i - n (j = 2n) and step*i + n + 1 (j = 2n+1)."""

    def degree(i, j):
        n, odd = divmod(j, 2)
        return step * i - n + odd * (2 * n + 1)

    return degree


_SLANT_H = _h_shuffle(2)

TOEPLITZ = Family("toeplitz", "T", lambda i, j: i - j, lambda phi: [P, mult(phi)])
HANKEL = Family("hankel", "H", lambda i, j: i + j + 1, lambda phi: [P, mult(phi), J])
SLANT_TOEPLITZ = Family("slant-toeplitz", "B", lambda i, j: 2 * i - j, lambda phi: [P, W, mult(phi)])
SLANT_HANKEL = Family("slant-hankel", "L", lambda i, j: 2 * i + j + 1, lambda phi: [W, P, mult(phi), J])
H_TOEPLITZ = Family("h-toeplitz", "Sh", _h_shuffle(1), lambda phi: [P, mult(phi), K])
SLANT_H_TOEPLITZ = Family("slant-h-toeplitz", "V", _SLANT_H, lambda phi: [W, P, mult(phi), K])
# the true conjugate transpose of the slant-h form
SLANT_H_ADJOINT = Family("slant-h-adjoint", "V*", lambda i, j: _SLANT_H(j, i),
                         lambda phi: [KSTAR, mult(conj_reflect(phi)), WSTAR], conj=True)

COMPOSITIONAL_KINDS = (
    TOEPLITZ,
    HANKEL,
    SLANT_TOEPLITZ,
    SLANT_HANKEL,
    H_TOEPLITZ,
    SLANT_H_TOEPLITZ,
    SLANT_H_ADJOINT,
)


def extension(depth: int) -> Family:
    """Slant-h family continued to rows >= -depth; depth 0 is the base family.

    Its oracle keeps the rows from -depth on, P_{>=-depth} = S(-depth) . P . S(depth),
    of W . M(phi) . K; a P between W and M would leave no row below 0.
    """
    if depth < 0:
        raise ValueError("extension depth must be >= 0")
    if depth == 0:
        return SLANT_H_TOEPLITZ
    return Family("extension", "A", _SLANT_H,
                  lambda phi: [bilateral_shift(-depth), P, bilateral_shift(depth), W, mult(phi), K], depth=depth)


def _degree_pieces(kind: Family, rows: IndexWindow, cols: IndexWindow) -> dict:
    """The least and greatest degree of `kind` on each (row parity, column parity) piece of rows x cols that holds
    an entry.

    A WindowError on columns below 0, rows below -depth or a degree past int64,
    where numpy's arithmetic would wrap. Each degree map is monotone on each
    parity of i and of j, so a piece's first and last row and column bound it,
    and the windows' first two and last two indices hold those."""
    if not cols.is_empty and cols.lo < 0:
        raise WindowError(f"{kind.name} has no columns below 0, got {cols}")
    if not rows.is_empty and rows.lo < -kind.depth:
        raise WindowError(f"{kind.name} has no rows below {-kind.depth}, got {rows}")
    degrees = {(r, c): kind.degree(r, c) for r in _ends(rows) for c in _ends(cols)}
    _check_int64(degrees.values(), f"{kind.name} degrees on {rows} x {cols} reach")
    pieces = {}
    for (r, c), d in degrees.items():
        lo, hi = pieces.get((r % 2, c % 2), (d, d))
        pieces[r % 2, c % 2] = (min(lo, d), max(hi, d))
    return pieces


def _scatter(kind: Family, phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> _Triplets:
    """The entries of the closed form on rows x cols that hold a term of phi, as triplets.

    On row i the columns c, c + 2, ... of one parity hold the degrees d0,
    d0 + s, ..., s the family's step, so a degree d lands on at most one of
    them, at k = (d - d0) / s. Each row takes, by searchsorted, the terms
    between its first and last degree on each parity, and only the terms in
    the window's degree hull are read: the work grows with the rows, the
    terms each row holds and the entries written, not with the cells.
    """
    pieces = _degree_pieces(kind, rows, cols).values()
    _check_size(rows, cols)  # before the per-row arrays: each reader of the triplets takes 16 bytes a cell
    if not pieces:  # an empty window
        none = np.zeros(0, dtype=np.int64)
        return _Triplets(rows, cols, none, none, np.zeros(0, dtype=complex))
    terms = phi.items_between(min(lo for lo, _ in pieces), max(hi for _, hi in pieces))
    keys = np.array([n for n, _ in terms], dtype=np.int64)
    values = np.array([a for _, a in terms], dtype=complex)
    values = np.conj(values) if kind.conj else values  # _dense and the dump add each into +0: -0.0 parts read 0.0
    firsts = cols.indices()[:2]  # the first column of each parity
    parities = len(firsts)
    # each parity's step, in Python ints, and each row's first and last degree on each parity, in int64, which
    # may wrap inside `degree` but not in its results (see _degree_pieces)
    steps = np.array([kind.degree(rows.lo, c + 2) - kind.degree(rows.lo, c) for c in firsts], dtype=np.int64)
    ends = np.array([list(firsts), [c + (cols.hi - c) // 2 * 2 for c in firsts]], dtype=np.int64)
    degrees = kind.degree(rows.index_array()[:, None, None], ends)  # by row, first or last, parity
    first, last = degrees[:, 0], degrees[:, 1]
    lo = np.searchsorted(keys, np.minimum(first, last).ravel())
    count = np.searchsorted(keys, np.maximum(first, last).ravel(), "right") - lo
    line = np.repeat(np.arange(count.size), count)  # each candidate term's line: one row's columns of one parity
    term = np.arange(line.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    row, parity = np.divmod(line, parities)
    k, off = np.divmod(keys[term] - first.ravel()[line], steps[parity])
    hit = off == 0
    return _Triplets(rows, cols, row[hit] + rows.lo, ends[0, parity[hit]] + 2 * k[hit], values[term[hit]])


def build_family(kind: Family, phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> WindowedMatrix:
    """Section of the closed form on caller-chosen row/column windows."""
    return _dense(_scatter(kind, phi, rows, cols))


def _oracle(kind: Family, phi: LaurentSymbol, cols: IndexWindow):
    """`build_compositional` before the densify: triplets, or a section where a join is dense."""
    _degree_pieces(kind, IndexWindow.empty(), cols)
    return _chain(kind.chain(phi), cols)


def build_compositional(kind: Family, phi: LaurentSymbol, cols: IndexWindow) -> WindowedMatrix:
    """Brute-force oracle: the same operator built purely from elementary sections.

    The row window is whatever exact propagation produces, and it contains
    every nonzero row of the true operator restricted to `cols`; it may be
    empty, in which case the operator vanishes on those columns.
    """
    return _dense(_oracle(kind, phi, cols))
