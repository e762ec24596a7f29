"""Closed-form entry generators for the operator families.

Each family admits an O(1) per-entry formula in the symbol coefficients:

    toeplitz            a_{i-j}
    hankel              a_{i+j+1}
    slant-toeplitz      a_{2i-j}
    slant-hankel        a_{2i+j+1}
    h-toeplitz          a_{i-n}   (j = 2n),   a_{i+n+1}   (j = 2n+1)
    slant-h-toeplitz    a_{2i-n}  (j = 2n),   a_{2i+n+1}  (j = 2n+1)
    slant-h-adjoint     conj of the slant-h form with (i, j) swapped
    extension(m)        the slant-h form continued to rows i >= -m

The closed form is primary; `build_compositional` assembles the same
operators from elementary sections with exact window propagation and serves
as the independent oracle the closed forms are tested against. Each family
is one `Family` record holding both routes, its CLI name and its expression
atom; the CLI and the expression language build their tables from
`COMPOSITIONAL_KINDS`.
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
    "entry",
    "build_family",
    "build_compositional",
    "build_extension_natural",
    "natural_rows",
    "oracle_deviation",
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
    chain: Callable | None
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
    """Slant-h family continued to rows >= -depth; depth 0 is the base family."""
    if depth < 0:
        raise ValueError("extension depth must be >= 0")
    if depth == 0:
        return SLANT_H_TOEPLITZ
    return Family("extension", "A", _SLANT_H, None, depth=depth)


def entry(kind: Family, phi: LaurentSymbol, i: int, j: int) -> complex:
    """Closed-form entry at absolute row i, column j."""
    if j < 0:
        raise WindowError(f"{kind.name} has no column {j}")
    if i < -kind.depth:
        raise WindowError(f"{kind.name} has no row {i}")
    value = phi.coeff(kind.degree(i, j))
    return value.conjugate() if kind.conj else value


def _coefficients(phi: LaurentSymbol, degrees: np.ndarray) -> np.ndarray:
    """Coefficient of phi at every degree of an integer grid."""
    if phi.is_zero:
        return np.zeros(degrees.shape, dtype=complex)
    lo, hi = phi.support
    table = np.zeros(hi - lo + 2, dtype=complex)  # the last slot is the zero off the support
    for n, a in phi.items():
        table[n - lo] = a
    index = degrees - lo
    return table[np.where((index >= 0) & (index <= hi - lo), index, -1)]


def build_family(kind: Family, phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> WindowedMatrix:
    """Section of the closed form on caller-chosen row/column windows."""
    if not cols.is_empty and cols.lo < 0:
        raise WindowError(f"{kind.name} has no columns below 0, got {cols}")
    if not rows.is_empty and rows.lo < -kind.depth:
        raise WindowError(f"{kind.name} has no rows below {-kind.depth}, got {rows}")
    i = np.arange(rows.lo, rows.hi + 1)[:, None]
    j = np.arange(cols.lo, cols.hi + 1)
    data = _coefficients(phi, kind.degree(i, j))
    # conjugating after the gather also turns the zeros off the support into 0-0j
    return WindowedMatrix._of(rows, cols, np.conj(data) if kind.conj else data)


def build_compositional(kind: Family, phi: LaurentSymbol, cols: IndexWindow) -> WindowedMatrix:
    """Brute-force oracle: the same operator built purely from elementary sections.

    The row window is whatever exact propagation produces, and it contains
    every nonzero row of the true operator restricted to `cols`; it may be
    empty, in which case the operator vanishes on those columns.
    """
    if kind.chain is None:
        raise ValueError("extension families have no single compositional formula")
    if not cols.is_empty and cols.lo < 0:
        raise WindowError(f"{kind.name} has no columns below 0, got {cols}")
    return compose_chain(kind.chain(phi), cols)


def natural_rows(depth: int, phi: LaurentSymbol, cols: IndexWindow) -> IndexWindow:
    """Hull of the nonzero rows of the depth-`depth` extension section on `cols`."""
    if phi.is_zero or cols.is_empty:
        return IndexWindow.empty()
    n_min, n_max = phi.support
    # row i of column j holds degree 2i + d0 with d0 the degree in row 0
    d0 = _SLANT_H(0, np.arange(cols.lo, cols.hi + 1))
    lo = np.maximum((n_min - d0 + 1) // 2, -depth)
    hi = (n_max - d0) // 2
    hit = lo <= hi
    if not hit.any():
        return IndexWindow.empty()
    return IndexWindow(int(lo[hit].min()), int(hi[hit].max()))


def build_extension_natural(depth: int, phi: LaurentSymbol, cols: IndexWindow) -> WindowedMatrix:
    """Extension section on its full natural row window for the given columns."""
    return build_family(extension(depth), phi, natural_rows(depth, phi, cols), cols)


def oracle_deviation(primary: WindowedMatrix, oracle: WindowedMatrix) -> float:
    """Max deviation of a closed-form section from the compositional oracle.

    Compares entries on the window intersection, and additionally requires the
    closed-form entries outside the oracle's row window to vanish (the oracle
    rows contain every nonzero row for its columns).
    """
    if primary.cols != oracle.cols:
        raise WindowError(f"column windows differ: {primary.cols} vs {oracle.cols}")
    expected = oracle.embed(primary.rows.hull(oracle.rows), oracle.cols).restrict(primary.rows, oracle.cols)
    return float(np.max(np.abs(primary.data - expected.data), initial=0.0))
