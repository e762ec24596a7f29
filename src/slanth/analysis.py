"""Finite-section verification of the analytic operator properties.

Every "iff the symbol is zero" statement is exercised in its falsifiable
direction: concrete nonzero symbols must produce a quantitative violation at
desk-scale windows, while the zero symbol passes trivially. The module also
carries the default symbol corpus the verification suites run over.
"""

import math
from dataclasses import dataclass

import numpy as np

from .families import (
    SLANT_H_ADJOINT,
    SLANT_H_TOEPLITZ,
    build_compositional,
    build_family,
    entry,
)
from .symbol import (
    ONE,
    ZERO,
    LaurentSymbol,
    coefficient_l2,
    conj_reflect,
    monomial,
    sup_norm,
    symbol_product,
    symbol_sub,
)
from .windowed import (
    P,
    W,
    WSTAR,
    IndexWindow,
    WindowedMatrix,
    WindowError,
    compose,
    compose_chain,
    mult,
)

__all__ = [
    "CORPUS",
    "DefectSummary",
    "coisometry_defect",
    "column_norm_floor",
    "frobenius_of_section",
    "hs_partial_sums",
    "hyponormal_defect",
    "isometry_sum_check",
    "min_hyponormal_defect",
    "norm_bound_check",
    "partial_isometry_identity",
    "section_norm",
    "self_adjoint_distance",
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


@dataclass(frozen=True)
class DefectSummary:
    """A single named quantity with the window it was computed on.

    For residual quantities the verdict is pass iff |value| <= tol; for signed
    margins (norm bound) it is one-sided. "info" marks purely informational
    companions.
    """

    quantity: str
    value: float
    rows: IndexWindow
    cols: IndexWindow
    tol: float
    verdict: str

    def render(self) -> str:
        head = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[self.verdict]
        return (
            f"{head} max_residual={self.value!r} quantity={self.quantity}"
            f" tol={self.tol!r} rows={self.rows} cols={self.cols}\n"
        )


def _residual_summary(quantity: str, value: float, rows, cols, tol: float) -> DefectSummary:
    verdict = "pass" if abs(value) <= tol else "fail"
    return DefectSummary(quantity, value, rows, cols, tol, verdict)


def coisometry_defect(phi: LaurentSymbol, n_max: int, tol: float = 1e-12) -> DefectSummary:
    """Max over n <= n_max of ||(V V*) e_n - e_n||, built compositionally."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    cols = IndexWindow(0, n_max)
    vstar = build_compositional(SLANT_H_ADJOINT, phi, cols)
    v = build_compositional(SLANT_H_TOEPLITZ, phi, vstar.rows)
    prod = compose(v, vstar)
    worst = 0.0
    for n in cols.indices():
        column = np.array(prod.data[:, n - cols.lo])
        if n in prod.rows:
            column[n - prod.rows.lo] -= 1.0
            defect = float(np.linalg.norm(column))
        else:
            defect = math.sqrt(float(np.sum(np.abs(column) ** 2)) + 1.0)
        worst = max(worst, defect)
    return _residual_summary("coisometry_defect", worst, prod.rows, cols, tol)


def isometry_sum_check(phi: LaurentSymbol, tol: float = 1e-12) -> DefectSummary:
    """|sum |a_n|^2 - 1|: necessary for V* to be an isometry, not sufficient."""
    value = abs(coefficient_l2(phi) - 1.0)
    return DefectSummary(
        "coefficient_l2_minus_1", value, IndexWindow.empty(), IndexWindow.empty(), tol, "info"
    )


def partial_isometry_identity(phi: LaurentSymbol, cols: IndexWindow, tol: float = 1e-12) -> DefectSummary:
    """Max entry of (W T_rho W*)(W T_phi K) with rho = 1 - phi*conj(phi).

    Vanishes whenever V_phi is a partial isometry.
    """
    if not cols.is_empty and cols.lo < 0:
        raise WindowError(f"analytic column window required, got {cols}")
    rho = symbol_sub(ONE, symbol_product(phi, conj_reflect(phi)))
    whole = compose_chain([W, P, mult(rho), WSTAR, *SLANT_H_TOEPLITZ.chain(phi)], cols)
    value = float(np.max(np.abs(whole.data))) if whole.data.size else 0.0
    return _residual_summary("partial_isometry_residual", value, whole.rows, whole.cols, tol)


def hs_partial_sums(phi: LaurentSymbol, m_max: int, n_max: int) -> float:
    """Truncated double sum of |a_{2n-m}|^2 + |a_{2n+m+1}|^2.

    Equals the squared Frobenius norm of the slant-h section on rows
    [0, n_max] x columns [0, 2*m_max+1]; it grows without bound for any
    nonzero symbol, which is the finite shadow of V_phi never being
    Hilbert-Schmidt.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    total = 0.0
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            total += abs(phi.coeff(2 * n - m)) ** 2 + abs(phi.coeff(2 * n + m + 1)) ** 2
    return total


def frobenius_of_section(phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> float:
    """Squared Frobenius norm of the slant-h section on the given windows."""
    section = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
    return float(np.sum(np.abs(section.data) ** 2))


def _support_reach(phi: LaurentSymbol) -> int:
    sup = phi.support
    if sup is None:
        return 0
    return max(abs(sup[0]), abs(sup[1]))


def hyponormal_defect(phi: LaurentSymbol, k: int) -> float:
    """||V e_k||^2 - ||V* e_k||^2 from closed-form columns on full-support windows.

    A negative value witnesses non-hyponormality; for every nonzero symbol one
    of k = 0, 1 is negative.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    sup = phi.support
    if sup is None:
        return 0.0
    n_min, n_max = sup
    reach = _support_reach(phi)
    r_v = k + reach + 2
    v_norm2 = sum(abs(entry(SLANT_H_TOEPLITZ, phi, i, k)) ** 2 for i in range(r_v + 1))
    r_s = max(0, 2 * (2 * k - n_min), 2 * (n_max - 2 * k) - 1)
    s_norm2 = sum(abs(entry(SLANT_H_ADJOINT, phi, i, k)) ** 2 for i in range(r_s + 1))
    return float(v_norm2 - s_norm2)


def min_hyponormal_defect(phi: LaurentSymbol) -> float:
    """Convenience check over k in {0, 1}."""
    return min(hyponormal_defect(phi, 0), hyponormal_defect(phi, 1))


def self_adjoint_distance(phi: LaurentSymbol, rows: IndexWindow, cols: IndexWindow) -> float:
    """Max entrywise |V - V*| over a common square window."""
    if rows != cols:
        raise WindowError(f"square comparable windows required, got {rows} x {cols}")
    v = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
    vstar = build_family(SLANT_H_ADJOINT, phi, rows, cols)
    if v.data.size == 0:
        return 0.0
    return float(np.max(np.abs(v.data - vstar.data)))


def section_norm(m: WindowedMatrix, iterations: int = 200, rel_tol: float = 1e-10) -> float:
    """Spectral norm estimate by power iteration on the Gram matrix.

    Deterministic all-ones start; converges from below, which is the safe side
    for an upper-bound check.
    """
    a = m.data
    if a.size == 0:
        return 0.0
    gram = a.conj().T @ a
    v = np.ones(gram.shape[0], dtype=complex) / math.sqrt(gram.shape[0])
    lam = 0.0
    for _ in range(iterations):
        w = gram @ v
        new_lam = float(np.linalg.norm(w))
        if new_lam == 0.0:
            return 0.0
        v = w / new_lam
        if abs(new_lam - lam) <= rel_tol * new_lam:
            lam = new_lam
            break
        lam = new_lam
    return math.sqrt(lam)


def norm_bound_check(
    phi: LaurentSymbol,
    rows: IndexWindow,
    cols: IndexWindow,
    grid_size: int = 4096,
    tol: float = 1e-9,
) -> DefectSummary:
    """Signed margin (section spectral norm) - (grid sup norm); pass iff <= tol.

    Sections of a bounded operator can never exceed its norm, so the margin is
    expected nonpositive up to iteration slack.
    """
    section = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
    value = section_norm(section) - sup_norm(phi, grid_size)
    verdict = "pass" if value <= tol else "fail"
    return DefectSummary("section_norm_minus_sup_norm", value, rows, cols, tol, verdict)


def column_norm_floor(phi: LaurentSymbol, pair_hi: int = 31) -> float:
    """Floor on decimated column norms: the finite shadow of non-compactness.

    For each block of two basis indices {2m, 2m+1}, takes the largest of the
    four column norms ||B e_n||, ||L e_n|| (n in the block), then minimizes
    over blocks. Blocks start late enough that every support coefficient can
    appear, so for nonzero symbols the floor stays >= the largest |a_k|:
    the column norms never decay.
    """
    sup = phi.support
    if sup is None:
        return 0.0
    n_min, _ = sup
    pair_lo = max(0, (-n_min + 1) // 2) if n_min < 0 else 0
    worst = math.inf
    for m in range(pair_lo, pair_hi + 1):
        best = 0.0
        for n in (2 * m, 2 * m + 1):
            b_norm2 = sum(abs(a) ** 2 for k, a in phi.items() if (k - n) % 2 == 0 and k >= -n)
            l_norm2 = sum(abs(a) ** 2 for k, a in phi.items() if (k - n - 1) % 2 == 0 and k >= n + 1)
            best = max(best, b_norm2, l_norm2)
        worst = min(worst, best)
    return math.sqrt(worst)
