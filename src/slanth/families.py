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
that hold it, and returns the section of those triplets; `build_compositional`
assembles the same operators from elementary sections with exact window
propagation (compose_chain) and serves as the independent oracle the closed
forms are tested against. The two agree bit for bit: every zero of either reads +0. Each
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
    Elementary,
    IndexWindow,
    WindowedMatrix,
    WindowError,
    _check_int64,
    _check_size,
    compose_chain,
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
    or numpy index grids alike, and on each parity piece (i, j) = (2u + p,
    2v + q) it is affine in u and v (see _piece_table). `chain(phi)` lists the
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

TOEPLITZ = Family("toeplitz", "T", lambda i, j: i - j, lambda phi: [P, Elementary("M", 0, phi)])
HANKEL = Family("hankel", "H", lambda i, j: i + j + 1, lambda phi: [P, Elementary("M", 0, phi), J])
SLANT_TOEPLITZ = Family("slant-toeplitz", "B", lambda i, j: 2 * i - j, lambda phi: [P, W, Elementary("M", 0, phi)])
SLANT_HANKEL = Family("slant-hankel", "L", lambda i, j: 2 * i + j + 1, lambda phi: [W, P, Elementary("M", 0, phi), J])
H_TOEPLITZ = Family("h-toeplitz", "Sh", _h_shuffle(1), lambda phi: [P, Elementary("M", 0, phi), K])
SLANT_H_TOEPLITZ = Family("slant-h-toeplitz", "V", _SLANT_H, lambda phi: [W, P, Elementary("M", 0, phi), K])
# the true conjugate transpose of the slant-h form
SLANT_H_ADJOINT = Family("slant-h-adjoint", "V*", lambda i, j: _SLANT_H(j, i),
                         lambda phi: [KSTAR, Elementary("M", 0, conj_reflect(phi)), WSTAR], conj=True)

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
    return Family("extension", "A", _SLANT_H, depth=depth,
                  chain=lambda phi: [Elementary("S", -depth), P, Elementary("S", depth), W, Elementary("M", 0, phi), K])


def _piece_table(kind: Family) -> dict:
    """{(p, q): (a_u, a_v, c)}, in Python ints: on the parity piece (i, j) = (2u + p, 2v + q) the degree is
    a_u*u + a_v*v + c, and in every family the smaller of |a_u| and |a_v| divides the other."""
    return {(p, q): (kind.degree(p + 2, q) - (c := kind.degree(p, q)), kind.degree(p, q + 2) - c, c)
            for p in (0, 1) for q in (0, 1)}


# A parity piece as a lattice: its cells (row + 2s, col + 2t) hold degree + a*(follow + k*run), lo to hi, where
# (s, t) is (run, follow) when by_row and (follow, run) otherwise, run < runs and follow < follows.
_Piece = namedtuple("_Piece", "lo hi row col degree a k follows runs by_row")


def _degree_pieces(kind: Family, rows: IndexWindow, cols: IndexWindow) -> dict:
    """The _Piece of each (row parity, column parity) of rows x cols that holds an entry, from the piece table.

    A WindowError on columns below 0, rows below -depth or a degree past int64,
    where numpy's arithmetic would wrap."""
    if not cols.is_empty and cols.lo < 0:
        raise WindowError(f"{kind.name} has no columns below 0, got {cols}")
    if not rows.is_empty and rows.lo < -kind.depth:
        raise WindowError(f"{kind.name} has no rows below {-kind.depth}, got {rows}")
    pieces = {}
    for (p, q), (a_u, a_v, c) in _piece_table(kind).items():
        row, col = rows.lo + (rows.lo - p) % 2, cols.lo + (cols.lo - q) % 2
        m, n = (rows.hi - row) // 2 + 1, (cols.hi - col) // 2 + 1
        if m > 0 and n > 0:  # the affine degrees are least and greatest at the piece's first and last u and v
            degree, du, dv = a_u * ((row - p) // 2) + a_v * ((col - q) // 2) + c, a_u * (m - 1), a_v * (n - 1)
            lo, hi = degree + min(du, 0) + min(dv, 0), degree + max(du, 0) + max(dv, 0)
            by_row = abs(a_u) > abs(a_v)  # the index of the larger step runs, and a divides it
            a, k, follows, runs = (a_v, a_u // a_v, n, m) if by_row else (a_u, a_v // a_u, m, n)
            pieces[p, q] = _Piece(lo, hi, row, col, degree, a, k, follows, runs, by_row)
    _check_int64([d for x in pieces.values() for d in x[:2]], lambda: f"{kind.name} degrees on {rows} x {cols} reach")
    return pieces


def build_family(kind: Family, phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> WindowedMatrix:
    """Section of the closed form on caller-chosen row/column windows: the triplets of its entries that hold a term
    of phi.

    On a piece (see _degree_pieces) the cells of one degree lie on a lattice
    segment: of s and t, the index of the larger step runs over an interval
    and the other follows it. Each piece reads the terms between its least
    and greatest degree, counted from its first cell's, so no int64
    intermediate passes the window's span: the work grows with the terms in
    the window's degree hull and the entries written, not with the cells.
    """
    pieces = list(_degree_pieces(kind, rows, cols).values())
    _check_size(rows, cols)  # each reader of the triplets takes 16 bytes a cell
    if not pieces:  # an empty window
        return WindowedMatrix._of(rows, cols, triplets=(*np.zeros((2, 0), dtype=np.int64), np.zeros(0, complex)))
    _check_int64([rows.lo, rows.hi, cols.hi], lambda: f"the indices of {rows} x {cols} reach")
    terms = phi.items_between(min(piece.lo for piece in pieces), max(piece.hi for piece in pieces))
    keys = np.array([n for n, _ in terms], dtype=np.int64)
    values = np.array([a.conjugate() if kind.conj else a for _, a in terms], dtype=complex) + 0.0  # -0.0 reads 0.0
    lo, hi, row, col, degree, a, k, follows, runs, by_row = np.array(pieces, dtype=np.int64).T
    first = np.searchsorted(keys, lo)
    count = np.searchsorted(keys, hi, "right") - first
    piece = np.repeat(np.arange(count.size), count)
    term = np.arange(piece.size) + np.repeat(first - (np.cumsum(count) - count), count)
    w, off = np.divmod(keys[term] - degree[piece], a[piece])  # a term's follow + k*run, where a divides it
    k, last = k[piece], follows[piece] - 1
    start = np.maximum(0, -((last * (k > 0) - w) // k))  # the runs with 0 <= follow = w - k*run <= last
    stop = np.minimum(runs[piece] - 1, (w - last * (k < 0)) // k)
    count = np.maximum(stop - start + 1, 0) * (off == 0)
    at = np.repeat(np.arange(count.size), count)
    run = np.arange(at.size) + np.repeat(start - (np.cumsum(count) - count), count)
    follow, piece = w[at] - k[at] * run, piece[at]
    s, t = np.where(by_row[piece], (run, follow), (follow, run))
    return WindowedMatrix._of(rows, cols, triplets=(row[piece] + 2 * s, col[piece] + 2 * t, values[term[at]]))


def build_compositional(kind: Family, phi: LaurentSymbol, cols: IndexWindow) -> WindowedMatrix:
    """Brute-force oracle: the same operator built purely from elementary sections.

    The row window is whatever exact propagation produces, and it contains
    every nonzero row of the true operator restricted to `cols`; it may be
    empty, in which case the operator vanishes on those columns.
    """
    _degree_pieces(kind, IndexWindow.empty(), cols)
    return compose_chain(kind.chain(phi), cols)
