"""Matrix-pattern predicates, symbol readback, and shift-identity checkers.

Predicates quantify only over index tuples that lie fully inside the supplied
windows; a pass means "no in-window violation". A report whose windows were
too small to contain a single relation instance is flagged vacuous. Each
relation is checked array-at-a-time, as one group (relation, lhs, rhs, at):
equal-shape arrays holding the relation's instances in scan order (relations
in a fixed order, indices ascending, C order), and `at(p)` giving the index
tuple of instance p, formed for witnesses only. The witnesses are the first
`cap` (default 16) violations in that order.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .families import _coefficients, build_family, extension
from .symbol import LaurentSymbol, SymbolParseError
from .windowed import (
    U,
    USTAR,
    IndexWindow,
    WindowedMatrix,
    WindowError,
    bilateral_shift,
    compose_chain,
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
    "slant_hankel_perp_check",
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
    """Fold (relation, lhs, rhs, at) groups into a report.

    A non-finite residual is a violation, and a NaN one sticks as the
    maximum, so non-finite input can never pass.
    """
    max_residual = 0.0
    witnesses = []
    checked = 0
    for relation, lhs, rhs, at in groups:
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
        for p in np.flatnonzero(~(residual <= tol))[: cap - len(witnesses)].tolist():
            witnesses.append(Witness(relation, at(p), complex(lhs.flat[p]), complex(rhs.flat[p])))
    return CheckReport(max_residual <= tol, max_residual, tuple(witnesses), checked)


def _group(relation: str, counts, at, pair) -> tuple:
    """Group of a ragged scan with `counts[o]` instances at outer step o.

    `at(o, t)` is the index tuple of instance t of step o and `pair(*at(o, t))`
    its (lhs, rhs); both take Python ints and numpy index arrays alike.
    """
    o, t = np.nonzero(np.arange(max(counts, default=0)) < np.reshape(counts, (-1, 1)))
    return relation, *pair(*at(o, t)), lambda p: at(int(o[p]), int(t[p]))


def _grid(relation: str, lhs: np.ndarray, rhs: np.ndarray, at) -> tuple:
    """Group of a rectangular scan: `at(o, t)` is the index tuple of block entry (o, t)."""
    return relation, lhs, rhs, lambda p: at(*divmod(p, lhs.shape[1]))


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


def _step(m: WindowedMatrix, name: str, relation: str, di: int, tol: float, cap: int) -> CheckReport:
    """Verify the step a[i,j] = a[i+di,j+2], di = +-1, inside the windows."""
    if m.rows.lo < 0 or m.cols.lo < 0:  # an empty window is 0:-1, so it passes and holds no instance
        raise WindowError(f"{name} predicate needs analytic windows, got {m.rows} x {m.cols}")
    a, i, j = m.data, m.rows.lo + (di < 0), m.cols.lo
    lhs, rhs = (a[:-1], a[1:]) if di > 0 else (a[1:], a[:-1])
    group = _grid(relation, lhs[:, :-2], rhs[:, 2:], lambda o, t: (i + o, j + t, i + o + di, j + t + 2))
    return _collect([group], tol, cap)


def check_slant_toeplitz_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the diagonal step a[i,j] = a[i+1,j+2] inside the windows."""
    return _step(m, "slant-toeplitz", "a[i,j]=a[i+1,j+2]", 1, tol, cap)


def check_slant_hankel_matrix(m: WindowedMatrix, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Verify the antidiagonal step a[i,j] = a[i-1,j+2] (i >= 1) inside the windows."""
    return _step(m, "slant-hankel", "a[i,j]=a[i-1,j+2]", -1, tol, cap)


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


def _shift_identities(tags, left: WindowedMatrix, a: WindowedMatrix, dom: IndexWindow, shift, power: int):
    """Groups of (a) left.Cz2 = shift.A.Cz2.Mz(power), (b) U*.left.Mz3.Cz4 = A.Mz3.Cz4.U
    and (c) U*.left.e0 = A.Mz3.e0, with A = `a`; (a) and (b) on `dom`, (c) on e0."""
    e0 = IndexWindow(0, 0)
    chains = [
        ([left, compose_z(2)], [shift, a, compose_z(2), mult_z(power)], dom),
        ([USTAR, left, mult_z(3), compose_z(4)], [a, mult_z(3), compose_z(4), U], dom),
        ([USTAR, left.restrict(left.rows, e0)], [a, mult_z(3)], e0),
    ]
    for tag, (lhs, rhs, cols) in zip(tags, chains):
        yield _identity(tag, compose_chain(lhs, cols), compose_chain(rhs, cols))


def _identity_windows(m: WindowedMatrix, what: str) -> None:
    """An identity check reads rows 0..R, R >= 1, and columns from 0."""
    if m.rows.is_empty or m.rows.lo != 0 or m.rows.hi < 1:
        raise WindowError(f"{what} needs rows 0..R with R >= 1, got {m.rows}")
    if m.cols.is_empty or m.cols.lo != 0:
        raise WindowError(f"{what} needs columns from 0, got {m.cols}")


def check_characterization(m: WindowedMatrix, cols: IndexWindow, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Check the three shift identities characterizing slant-h sections.

        (a) A.Cz2 = U*.A.Cz2.U2
        (b) U*.A.Mz3.Cz4 = A.Mz3.Cz4.U
        (c) U*.A.e0 = A.Mz3.e0

    `cols` is the identity domain window; the matrix must cover every row and
    column the identities touch for it, which the checker computes and
    enforces up front.
    """
    _identity_windows(m, "characterization")
    if cols.is_empty or cols.lo < 0:
        raise WindowError(f"identity domain must be an analytic window, got {cols}")
    needed = 4 * cols.hi + 7
    if m.cols.hi < needed:
        raise WindowError(f"matrix columns must reach {needed} for identity domain {cols}, got {m.cols}")
    tags = ("A.Cz2=U*.A.Cz2.U2", "U*.A.Mz3.Cz4=A.Mz3.Cz4.U", "U*.A.e0=A.Mz3.e0")
    return _collect(_shift_identities(tags, m, m, cols, USTAR, 2), tol, cap)


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
    _identity_windows(a, "extension check")
    p_hi = min((a.cols.hi - 7) // 4, (a.cols.hi - 4 * depth) // 2)
    if p_hi < 0:
        raise WindowError(f"matrix columns {a.cols} too narrow for the identities at depth {depth}")

    try:
        am = build_family(extension(depth), extract_symbol(a), IndexWindow(-depth, a.rows.hi), a.cols)
    except SymbolParseError:  # a non-finite entry read back leaves A_m, and so every identity, undefined
        return CheckReport(False, math.nan, ())
    tags = ("Am.Cz2=S(-m).A.Cz2.U2m", "U*.Am.Mz3.Cz4=A.Mz3.Cz4.U", "U*.Am.e0=A.Mz3.e0")
    groups = _shift_identities(tags, am, a, IndexWindow(0, p_hi), bilateral_shift(-depth), 2 * depth)
    return _collect([*groups, _identity("Am[i,j]=A[i,j]", am, a)], tol, cap)


def slant_hankel_perp_check(phi: LaurentSymbol, idx_max: int, tol: float = 1e-12, cap: int = WITNESS_CAP) -> CheckReport:
    """Conditions for a slant-Hankel operator to carry the slant-h pattern.

    Two sub-results folded into one report: (i) the coefficient shift
    relations, checked for all parameters whose coefficient indices stay
    within idx_max; (ii) membership, phi = sum_{n<=0} a_n z^n + a_2 z^2,
    i.e. the coefficients at degree 1 and at every degree >= 3 vanish.
    """
    if idx_max < 0:
        raise ValueError("idx_max must be >= 0")
    c = partial(_coefficients, phi)
    j = np.arange(max(0, (idx_max - 4) // 2 + 1))
    odd = [n for n, _ in phi.items() if n == 1 or n >= 3]
    groups = [
        _group("a[2m+2j+7]=a[2m+2j+1]", (idx_max - 7 - 2 * np.arange((idx_max - 7) // 2 + 1)) // 2 + 1,
               lambda m, j: (m, j), lambda m, j: (c(2 * m + 2 * j + 7), c(2 * m + 2 * j + 1))),
        _group("a[4m+2j+6]=a[4m+2j+8]", (idx_max - 8 - 4 * np.arange((idx_max - 8) // 4 + 1)) // 2 + 1,
               lambda m, j: (m, j), lambda m, j: (c(4 * m + 2 * j + 6), c(4 * m + 2 * j + 8))),
        ("a[2j+4]=a[2j+3]", c(2 * j + 4), c(2 * j + 3), lambda p: (p,)),
        ("a[n]=0(n=1|n>=3)", c(np.array(odd, dtype=int)), np.zeros(len(odd), complex), lambda p: (odd[p],)),
    ]
    return _collect(groups, tol, cap)
