"""Matrix-pattern predicates, symbol readback, and shift-identity checkers.

Predicates quantify only over index tuples that lie fully inside the supplied
windows; a pass means "no in-window violation". A report whose windows were
too small to contain a single relation instance is flagged vacuous. Each
relation is checked array-at-a-time: its instances form one group of lhs and
rhs arrays in scan order (relations in a fixed order, indices ascending), and
the witnesses are the first `cap` (default 16) violations in that order.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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


def _collect(groups, tol: float, cap: int = WITNESS_CAP) -> CheckReport:
    """Fold relation groups into a report.

    A group is (relation, lhs, rhs, counts, at): equal-shape arrays holding
    the relation's instances in scan order (C order), `counts[o]` of them at
    outer step o, and `at(o, t)` giving the index tuple of instance t of step
    o; tuples are formed for witnesses only. A non-finite residual is a
    violation, and a NaN one sticks as the maximum, so non-finite input can
    never pass.
    """
    max_residual = 0.0
    witnesses = []
    checked = 0
    for relation, lhs, rhs, counts, at in groups:
        with np.errstate(invalid="ignore", over="ignore"):
            # |lhs - rhs| as abs() of a Python complex computes it; np.abs of a
            # complex array can differ from that in the last bit
            residual = np.hypot(lhs.real - rhs.real, lhs.imag - rhs.imag)
        if not residual.size:
            continue
        checked += residual.size
        peak = float(residual.max())
        if peak > max_residual or math.isnan(peak):
            max_residual = peak
        starts = (np.cumsum(counts) - counts).tolist()
        for p in np.flatnonzero(~(residual <= tol))[: cap - len(witnesses)].tolist():
            o = bisect_right(starts, p) - 1
            witnesses.append(Witness(relation, at(o, p - starts[o]), complex(lhs.flat[p]), complex(rhs.flat[p])))
    return CheckReport(max_residual <= tol, max_residual, tuple(witnesses), tol, checked)


def _group(relation: str, counts, at, pair) -> tuple:
    """Group of a ragged scan with `counts[o]` instances at outer step o.

    `at(o, t)` is the index tuple of instance t of step o and `pair(*at(o, t))`
    its (lhs, rhs); both take Python ints and numpy index arrays alike.
    """
    o, t = np.nonzero(np.arange(max(counts, default=0)) < np.reshape(counts, (-1, 1)))
    return (relation, *pair(*at(o, t)), counts, at)


def _grid(relation: str, lhs: np.ndarray, rhs: np.ndarray, at) -> tuple:
    """Group of a rectangular scan: row o of the blocks is outer step o."""
    return relation, lhs, rhs, np.full(lhs.shape[0], lhs.shape[1]), at


def check_slant_h_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the slant-h pattern relations inside the matrix windows.

    First-column anchors: a[k,0] = a[k+j,4j] and a[k,0] = a[k-j,4j-1];
    first-row anchors: a[0,2k] = a[i,2k+4i]; column-1 anchors:
    a[k,1] = a[k+j,4j-2]; odd-column step: a[i,2n+1] = a[i+1,2n-3] (n >= 2).
    """
    if m.rows.is_empty or m.cols.is_empty:
        raise WindowError("slant-h predicate needs nonempty windows")
    if m.rows.lo < 0 or m.cols.lo != 0:
        raise WindowError(f"slant-h predicate needs rows >= 0 and columns from 0, got {m.rows} x {m.cols}")
    a, r0, n, c = m.data, m.rows.lo, m.rows.size, m.cols.hi
    k = np.arange(n)
    w = max(0, (c - 3) // 2)  # odd columns 2n+1 with n >= 2

    def pair(i, j, p, q):
        return a[i - r0, j], a[p - r0, q]

    def groups():  # lazily, so one relation's arrays are alive at a time
        yield _group("a[k,0]=a[k+j,4j]", np.minimum(c // 4, n - 1 - k),
                     lambda o, t: (r0 + o, 0, r0 + o + t + 1, 4 * t + 4), pair)
        yield _group("a[k,0]=a[k-j,4j-1]", np.minimum(k, (c + 1) // 4),
                     lambda o, t: (r0 + o, 0, r0 + o - t - 1, 4 * t + 3), pair)
        if r0 == 0:
            yield _group("a[0,2k]=a[i,2k+4i]", np.minimum(n - 1, (c - 2 * np.arange(1, c // 2 + 1)) // 4),
                         lambda o, t: (0, 2 * o + 2, t + 1, 2 * o + 4 * t + 6), pair)
        if c >= 1:
            yield _group("a[k,1]=a[k+j,4j-2]", np.minimum((c + 2) // 4, n - 1 - k),
                         lambda o, t: (r0 + o, 1, r0 + o + t + 1, 4 * t + 2), pair)
        yield _grid("a[i,2n+1]=a[i+1,2n-3]", a[:-1, 5 : 2 * w + 4 : 2], a[1:, 1 : 2 * w : 2],
                    lambda o, t: (r0 + o, 2 * t + 5, r0 + o + 1, 2 * t + 1))

    return _collect(groups(), tol, cap)


def check_slant_toeplitz_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the diagonal step a[i,j] = a[i+1,j+2] inside the windows."""
    if m.rows.lo < 0 or m.cols.lo < 0:  # an empty window is 0:-1, so it passes and holds no instance
        raise WindowError(f"slant-toeplitz predicate needs analytic windows, got {m.rows} x {m.cols}")
    a, i, j = m.data, m.rows.lo, m.cols.lo
    group = _grid("a[i,j]=a[i+1,j+2]", a[:-1, :-2], a[1:, 2:], lambda o, t: (i + o, j + t, i + o + 1, j + t + 2))
    return _collect([group], tol, cap)


def check_slant_hankel_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the antidiagonal step a[i,j] = a[i-1,j+2] (i >= 1) inside the windows."""
    if m.rows.lo < 0 or m.cols.lo < 0:  # an empty window is 0:-1, so it passes and holds no instance
        raise WindowError(f"slant-hankel predicate needs analytic windows, got {m.rows} x {m.cols}")
    a, i, j = m.data, m.rows.lo + 1, m.cols.lo
    group = _grid("a[i,j]=a[i-1,j+2]", a[1:, :-2], a[:-1, 2:], lambda o, t: (i + o, j + t, i + o - 1, j + t + 2))
    return _collect([group], tol, cap)


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


def _identity(tag: str, lhs: WindowedMatrix, rhs: WindowedMatrix) -> tuple:
    """Group comparing two sections entry by entry on their shared windows."""
    rows = lhs.rows.intersect(rhs.rows)
    cols = lhs.cols.intersect(rhs.cols)
    return _grid(tag, lhs.restrict(rows, cols).data, rhs.restrict(rows, cols).data,
                 lambda o, t: (rows.lo + o, cols.lo + t))


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

    groups = [
        _identity("A.Cz2=U*.A.Cz2.U2", lhs_a, rhs_a),
        _identity("U*.A.Mz3.Cz4=A.Mz3.Cz4.U", lhs_b, rhs_b),
        _identity("U*.A.e0=A.Mz3.e0", lhs_c, rhs_c),
    ]
    return _collect(groups, tol, cap)


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

    groups = [
        _identity("Am.Cz2=S(-m).A.Cz2.U2m", lhs_a, rhs_a),
        _identity("U*.Am.Mz3.Cz4=A.Mz3.Cz4.U", lhs_b, rhs_b),
        _identity("U*.Am.e0=A.Mz3.e0", lhs_c, rhs_c),
        _identity("Am[i,j]=A[i,j]", am, a),
    ]
    return _collect(groups, tol, cap)
