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

`build_family` gathers whole sections of that closed form, and every reader
takes sections; `build_compositional` assembles the same operators from
elementary sections with exact window propagation and serves as the
independent oracle the closed forms are tested against. The two agree bit for
bit: every zero of either reads +0. Each family, extension(m) too, is one
`Family` record holding both routes, its CLI name and its expression atom;
the CLI and the expression language build their tables from
`COMPOSITIONAL_KINDS` and `extension`.
"""

from collections.abc import Callable
from dataclasses import dataclass

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
    _check_int64,
    _ends,
    bilateral_shift,
    compose_chain,
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


@dataclass(frozen=True)
class Family:
    """One operator family: the single record every layer reads.

    `name` is also the CLI `--family` name and `atom` the expression atom.
    The entry at row i, column j is the symbol coefficient of degree
    `degree(i, j)`, conjugated when `conj` is set; `degree` takes Python ints
    or numpy index grids alike. `chain(phi)` lists the elementary maps of the
    compositional oracle, leftmost applied last, and `depth` is how far rows
    extend below zero.
    """

    name: str
    atom: str
    degree: Callable
    chain: Callable
    conj: bool = False
    depth: int = 0


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


def _coefficients(phi: LaurentSymbol, degrees: np.ndarray, conj: bool = False) -> np.ndarray:
    """Coefficient of phi, conjugated when `conj` is set, at every degree of a grid.

    Each degree is looked up among phi's sorted degrees, so no table spans the degrees between two terms.
    """
    items = phi.items() or [(0, 0)]  # the zero symbol reads as one zero term
    keys = np.array([n for n, _ in items], dtype=np.int64)
    values = np.array([a for _, a in items] + [0], dtype=complex)  # the last slot is the zero off the support
    # + 0.0: every zero part reads +0, as the oracle's densify writes it
    values = (np.conj(values) if conj else values) + 0.0
    slot = np.searchsorted(keys, degrees)
    slot[keys.take(slot, mode="clip") != degrees] = keys.size
    return values.take(slot)


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


def build_family(kind: Family, phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> WindowedMatrix:
    """Section of the closed form on caller-chosen row/column windows."""
    _degree_pieces(kind, rows, cols)
    degrees = kind.degree(rows.index_array()[:, None], cols.index_array())
    return WindowedMatrix._of(rows, cols, _coefficients(phi, degrees, kind.conj))


def build_compositional(kind: Family, phi: LaurentSymbol, cols: IndexWindow) -> WindowedMatrix:
    """Brute-force oracle: the same operator built purely from elementary sections.

    The row window is whatever exact propagation produces, and it contains
    every nonzero row of the true operator restricted to `cols`; it may be
    empty, in which case the operator vanishes on those columns.
    """
    _degree_pieces(kind, IndexWindow.empty(), cols)
    return compose_chain(kind.chain(phi), cols)
