"""Finite-section measures of the analytic operator properties.

Every "iff the symbol is zero" statement is exercised in its falsifiable
direction: concrete nonzero symbols must produce a quantitative violation at
desk-scale windows, while the zero symbol passes trivially. The verification
suites state the operator identities and violations as expressions; this
module keeps the measures that are not one (Frobenius growth, the column-norm
floor, section norms) and the symbol corpus the suites run over.

The column-norm floor sums down the columns of a family's oracle, which holds
every nonzero row of its columns.
"""

import math

import numpy as np

from .families import (
    SLANT_HANKEL,
    SLANT_H_TOEPLITZ,
    SLANT_TOEPLITZ,
    Family,
    build_compositional,
    build_family,
)
from .symbol import (
    ONE,
    ZERO,
    LaurentSymbol,
    monomial,
    sup_norm,
)
from .windowed import (
    IndexWindow,
    WindowedMatrix,
)

__all__ = [
    "CORPUS",
    "column_norm_floor",
    "frobenius_of_section",
    "norm_bound_check",
    "section_norm",
]

_ISQ2 = math.sqrt(0.5)

# Every worked example from the source material plus a generic
# prime-coefficient symbol.
CORPUS: list[tuple[str, LaurentSymbol]] = [
    ("0", ZERO),
    ("1", ONE),
    ("z", monomial(1)),
    ("z^3", monomial(3)),
    ("z^-1", monomial(-1)),
    ("(1+z)/sqrt2", LaurentSymbol({0: _ISQ2, 1: _ISQ2})),
    ("2z^-1+3+5z+7z^2", LaurentSymbol({-1: 2, 0: 3, 1: 5, 2: 7})),
    ("z^-1+z^2", LaurentSymbol({-1: 1, 2: 1})),
]


def frobenius_of_section(phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> float:
    """Squared Frobenius norm of the slant-h section on the given windows."""
    section = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
    return float(np.sum(np.abs(section.data) ** 2))


def _column_sums(kind: Family, phi: LaurentSymbol, cols: IndexWindow) -> np.ndarray:
    """Sum of |entry|^2 down each column of kind's oracle, whose rows hold every nonzero row of `cols`."""
    return np.sum(np.abs(build_compositional(kind, phi, cols).data) ** 2, axis=0)


def section_norm(m: WindowedMatrix) -> float:
    """Spectral norm of the section: its largest singular value.

    That is sqrt(lambda_max) of the smaller Gram matrix of the section's
    nonzero block (all-zero rows and columns dropped, which is exact), taken
    with the block scaled by a power of two so the Gram can neither overflow
    nor lose its largest entries to underflow. 0.0 for an empty or all-zero
    section, inf when the norm lies past the float range.
    """
    nonzero = m.data != 0
    block = np.ascontiguousarray(m.data[np.ix_(nonzero.any(axis=1), nonzero.any(axis=0))])
    if not block.size:
        return 0.0
    # the exponent of the largest |re| or |im|: a modulus could itself overflow
    parts = block.view(np.float64)
    e = math.frexp(max(parts.max(), -parts.min()))[1]
    np.ldexp(parts, -e, out=parts)
    gram = block @ block.conj().T if block.shape[0] <= block.shape[1] else block.conj().T @ block
    try:
        return math.ldexp(math.sqrt(np.linalg.eigvalsh(gram)[-1]), e)
    except OverflowError:
        return math.inf


def norm_bound_check(
    phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow, grid_size: int = 4096
) -> tuple[float, float]:
    """(section spectral norm, grid sup norm) of the slant-h section on the windows.

    Sections of a bounded operator never exceed its norm, so the first is
    expected at most the second, up to rounding and the grid's shortfall.
    """
    sup = sup_norm(phi, grid_size)  # a grid past its limit is refused before the section is built
    return section_norm(build_family(SLANT_H_TOEPLITZ, phi, rows, cols)), sup


# Blocks {2m, 2m+1} reach up to m = 31: 64 columns, or just the first block when it starts later.
_PAIR_HI = 31


def column_norm_floor(phi: LaurentSymbol) -> float:
    """Floor on decimated column norms: the finite shadow of non-compactness.

    For each block of two basis indices {2m, 2m+1}, takes the largest of the
    four column norms ||B e_n||, ||L e_n|| (n in the block), each read down
    its oracle's column, then minimizes over blocks. Blocks start late enough
    that every support coefficient can appear, so for nonzero symbols the
    floor stays >= the largest |a_k|: the column norms never decay.
    """
    n_min, _ = phi.support or (0, 0)
    pair_lo = max(0, (1 - n_min) // 2)
    cols = IndexWindow(2 * pair_lo, 2 * max(_PAIR_HI, pair_lo) + 1)
    sums = np.maximum(_column_sums(SLANT_TOEPLITZ, phi, cols), _column_sums(SLANT_HANKEL, phi, cols))
    return math.sqrt(sums.reshape(-1, 2).max(axis=1).min())
