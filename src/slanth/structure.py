"""Matrix-pattern predicates, symbol readback, and shift-identity checkers.

Predicates quantify only over index tuples that lie fully inside the supplied
windows; a pass means "no in-window violation". A report whose windows were
too small to contain a single nontrivial relation instance is flagged vacuous.
Witness lists are deterministic: relations are scanned in a fixed order and
ascending index order, capped at a configurable count.
"""

import math
from dataclasses import dataclass

from .families import build_family, compose_chain, extension
from .symbol import LaurentSymbol
from .windowed import (
    U,
    USTAR,
    IndexWindow,
    WindowedMatrix,
    WindowError,
    bilateral_shift,
    compose_z,
    format_entry,
    mult_z,
)

__all__ = [
    "CheckReport",
    "Witness",
    "WITNESS_CAP",
    "check_characterization",
    "check_extension_conditions",
    "check_slant_h_matrix",
    "check_slant_hankel_matrix",
    "check_slant_toeplitz_matrix",
    "extract_symbol",
]

WITNESS_CAP = 16


@dataclass(frozen=True)
class Witness:
    relation: str
    indices: tuple
    lhs: complex
    rhs: complex

    def render(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.relation} ({idx}) lhs={format_entry(self.lhs)} rhs={format_entry(self.rhs)}"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a predicate or identity check."""

    passed: bool
    max_residual: float
    witnesses: tuple
    tol: float
    checked: int = 0

    @property
    def vacuous(self) -> bool:
        return self.checked == 0

    def render(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        first = f"{head} max_residual={self.max_residual!r}"
        if self.passed and self.vacuous:
            first += " vacuous=1"
        return "\n".join([first] + [w.render() for w in self.witnesses]) + "\n"


def _collect(pairs, tol: float, cap: int = WITNESS_CAP) -> CheckReport:
    """Fold (relation, indices, lhs, rhs) instances into a report.

    A non-finite residual is a violation, and a NaN one sticks as the
    maximum, so non-finite input can never pass.
    """
    max_residual = 0.0
    witnesses = []
    checked = 0
    for relation, indices, lhs, rhs in pairs:
        checked += 1
        residual = abs(lhs - rhs)
        if residual > max_residual or math.isnan(residual):
            max_residual = residual
        if not residual <= tol and len(witnesses) < cap:
            witnesses.append(Witness(relation, indices, lhs, rhs))
    return CheckReport(max_residual <= tol, max_residual, tuple(witnesses), tol, checked)


def check_slant_h_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the slant-h pattern relations inside the matrix windows.

    First-column anchors: a[k,0] = a[k+j,4j] and a[k,0] = a[k-j,4j-1];
    first-row anchors: a[0,2k] = a[i,2k+4i].
    """
    if m.rows.is_empty or m.cols.is_empty:
        raise WindowError("slant-h predicate needs nonempty windows")
    if m.rows.lo < 0 or m.cols.lo != 0:
        raise WindowError(f"slant-h predicate needs rows >= 0 and columns from 0, got {m.rows} x {m.cols}")

    def pairs():
        rows, cols = m.rows, m.cols
        for k in rows.indices():
            for j in range(1, cols.hi // 4 + 1):
                if k + j in rows:
                    yield (
                        "a[k,0]=a[k+j,4j]",
                        (k, 0, k + j, 4 * j),
                        m.entry(k, 0),
                        m.entry(k + j, 4 * j),
                    )
        for k in rows.indices():
            for j in range(1, k + 1):
                if k - j in rows and 4 * j - 1 <= cols.hi:
                    yield (
                        "a[k,0]=a[k-j,4j-1]",
                        (k, 0, k - j, 4 * j - 1),
                        m.entry(k, 0),
                        m.entry(k - j, 4 * j - 1),
                    )
        if 0 in rows:
            for k in range(1, cols.hi // 2 + 1):
                for i in rows.indices():
                    if i >= 1 and 2 * k + 4 * i <= cols.hi:
                        yield (
                            "a[0,2k]=a[i,2k+4i]",
                            (0, 2 * k, i, 2 * k + 4 * i),
                            m.entry(0, 2 * k),
                            m.entry(i, 2 * k + 4 * i),
                        )

    return _collect(pairs(), tol, cap)


def check_slant_toeplitz_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the diagonal step a[i,j] = a[i+1,j+2] inside the windows."""
    if m.rows.is_empty or m.cols.is_empty or m.rows.lo < 0 or m.cols.lo < 0:
        raise WindowError(f"slant-toeplitz predicate needs analytic windows, got {m.rows} x {m.cols}")

    def pairs():
        for i in m.rows.indices():
            if i + 1 not in m.rows:
                continue
            for j in m.cols.indices():
                if j + 2 in m.cols:
                    yield "a[i,j]=a[i+1,j+2]", (i, j, i + 1, j + 2), m.entry(i, j), m.entry(i + 1, j + 2)

    return _collect(pairs(), tol, cap)


def check_slant_hankel_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the antidiagonal step a[i,j] = a[i-1,j+2] (i >= 1) inside the windows."""
    if m.rows.is_empty or m.cols.is_empty or m.rows.lo < 0 or m.cols.lo < 0:
        raise WindowError(f"slant-hankel predicate needs analytic windows, got {m.rows} x {m.cols}")

    def pairs():
        for i in m.rows.indices():
            if i < 1 or i - 1 not in m.rows:
                continue
            for j in m.cols.indices():
                if j + 2 in m.cols:
                    yield "a[i,j]=a[i-1,j+2]", (i, j, i - 1, j + 2), m.entry(i, j), m.entry(i - 1, j + 2)

    return _collect(pairs(), tol, cap)


def extract_symbol(m: WindowedMatrix) -> LaurentSymbol:
    """Read the inducing symbol back from a slant-h section.

    Degree 2i comes from column 0, degree 2i+1 from column 1, and negative
    degree k from row 0 at column -2k; every degree recoverable inside the
    windows is read, and the support is trimmed to the nonzero coefficients.
    The matrix is expected to pass check_slant_h_matrix; no cross-validation
    is repeated here.
    """
    if m.rows.is_empty or m.cols.is_empty or m.rows.lo != 0 or m.cols.lo != 0:
        raise WindowError(f"symbol readback needs windows anchored at 0, got {m.rows} x {m.cols}")
    coeffs: dict[int, complex] = {}
    for i in m.rows.indices():
        coeffs[2 * i] = m.entry(i, 0)
    if m.cols.hi >= 1:
        for i in m.rows.indices():
            coeffs[2 * i + 1] = m.entry(i, 1)
    for k in range(-1, -(m.cols.hi // 2) - 1, -1):
        coeffs[k] = m.entry(0, -2 * k)
    return LaurentSymbol(coeffs)


def _identity_pairs(tag: str, lhs: WindowedMatrix, rhs: WindowedMatrix):
    rows = lhs.rows.intersect(rhs.rows)
    cols = lhs.cols.intersect(rhs.cols)
    for i in rows.indices():
        for j in cols.indices():
            yield tag, (i, j), lhs.entry(i, j), rhs.entry(i, j)


def check_characterization(m: WindowedMatrix, cols: IndexWindow, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Check the three shift identities characterizing slant-h sections.

        (a) A.Cz2 = U*.A.Cz2.U2
        (b) U*.A.Mz3.Cz4 = A.Mz3.Cz4.U
        (c) U*.A.e0 = A.Mz3.e0

    `cols` is the identity domain window; the matrix must cover every row and
    column the identities touch for it, which the checker computes and
    enforces up front.
    """
    if m.rows.is_empty or m.rows.lo != 0 or m.rows.hi < 1:
        raise WindowError(f"characterization needs rows 0..R with R >= 1, got {m.rows}")
    if m.cols.is_empty or m.cols.lo != 0:
        raise WindowError(f"characterization needs columns from 0, got {m.cols}")
    if cols.is_empty or cols.lo < 0:
        raise WindowError(f"identity domain must be an analytic window, got {cols}")
    needed = 4 * cols.hi + 7
    if m.cols.hi < needed:
        raise WindowError(f"matrix columns must reach {needed} for identity domain {cols}, got {m.cols}")

    lhs_a = compose_chain([m, compose_z(2)], cols)
    rhs_a = compose_chain([USTAR, m, compose_z(2), mult_z(2)], cols)
    lhs_b = compose_chain([USTAR, m, mult_z(3), compose_z(4)], cols)
    rhs_b = compose_chain([m, mult_z(3), compose_z(4), U], cols)
    e0 = IndexWindow(0, 0)
    lhs_c = compose_chain([USTAR, m.restrict(m.rows, e0)], e0)
    rhs_c = compose_chain([m, mult_z(3)], e0)

    def pairs():
        yield from _identity_pairs("A.Cz2=U*.A.Cz2.U2", lhs_a, rhs_a)
        yield from _identity_pairs("U*.A.Mz3.Cz4=A.Mz3.Cz4.U", lhs_b, rhs_b)
        yield from _identity_pairs("U*.A.e0=A.Mz3.e0", lhs_c, rhs_c)

    return _collect(pairs(), tol, cap)


def check_extension_conditions(a: WindowedMatrix, depth: int, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Check the extension identities for the depth-m continuation of a section.

    The continuation A_m is rebuilt from the extracted symbol on rows >= -m and
    must satisfy, with S(-m) the bilateral back shift,

        (a) Am.Cz2 = S(-m).A.Cz2.Mz(2m)
        (b) U*.Am.Mz3.Cz4 = A.Mz3.Cz4.U
        (c) U*.Am.e0 = A.Mz3.e0

    and agree with the original section on every shared nonnegative row.
    """
    if depth < 0:
        raise ValueError("extension depth must be >= 0")
    if a.rows.is_empty or a.rows.lo != 0 or a.rows.hi < 1:
        raise WindowError(f"extension check needs rows 0..R with R >= 1, got {a.rows}")
    if a.cols.is_empty or a.cols.lo != 0:
        raise WindowError(f"extension check needs columns from 0, got {a.cols}")
    p_hi = min((a.cols.hi - 7) // 4, (a.cols.hi - 4 * depth) // 2)
    if p_hi < 0:
        raise WindowError(f"matrix columns {a.cols} too narrow for the identities at depth {depth}")

    phi = extract_symbol(a)
    am = build_family(extension(depth), phi, IndexWindow(-depth, a.rows.hi), a.cols)
    dom = IndexWindow(0, p_hi)

    lhs_a = compose_chain([am, compose_z(2)], dom)
    rhs_a = compose_chain([bilateral_shift(-depth), a, compose_z(2), mult_z(2 * depth)], dom)
    lhs_b = compose_chain([USTAR, am, mult_z(3), compose_z(4)], dom)
    rhs_b = compose_chain([a, mult_z(3), compose_z(4), U], dom)
    e0 = IndexWindow(0, 0)
    lhs_c = compose_chain([USTAR, am.restrict(am.rows, e0)], e0)
    rhs_c = compose_chain([a, mult_z(3)], e0)

    def pairs():
        yield from _identity_pairs("Am.Cz2=S(-m).A.Cz2.U2m", lhs_a, rhs_a)
        yield from _identity_pairs("U*.Am.Mz3.Cz4=A.Mz3.Cz4.U", lhs_b, rhs_b)
        yield from _identity_pairs("U*.Am.e0=A.Mz3.e0", lhs_c, rhs_c)
        yield from _identity_pairs("Am[i,j]=A[i,j]", am, a)

    return _collect(pairs(), tol, cap)
