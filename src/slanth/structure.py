"""The pattern predicate of every family, symbol readback, and shift-identity checkers.

A family's pattern, read from its record, is that entries of one degree
`Family.degree(i, j)` are equal; the slant-h and slant step predicates are
`check_pattern` of their family.

Predicates quantify only over index tuples that lie fully inside the supplied
windows; a pass means "no in-window violation". A report whose windows were
too small to contain a single relation instance is flagged vacuous. Checks
run array-at-a-time, one group (relation, lhs, rhs, at) per relation or row
block: equal-shape arrays holding its instances in scan order (relations in
a fixed order, indices ascending, C order), and `at(p)` giving the index
tuple of instance p, formed for witnesses only. The witnesses are the first
`WITNESS_CAP` (16) violations in that order, read when a report is folded.
"""

import math
from dataclasses import dataclass

import numpy as np

from .families import SLANT_H_TOEPLITZ, SLANT_HANKEL, SLANT_TOEPLITZ, Family, _degree_bounds, build_family, extension
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
    "check_pattern",
    "check_slant_h_matrix",
    "check_slant_hankel_matrix",
    "check_slant_toeplitz_matrix",
    "extract_symbol",
]

WITNESS_CAP = 16

# Cells per row block of check_pattern, in whole rows (at least one): its scratch stays a few hundred KB.
_BLOCK = 1 << 14


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


@np.errstate(invalid="ignore", over="ignore")
def _residual(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """|lhs - rhs| per instance, flat, as abs() of a Python complex computes it: the hypot of the parts.

    hypot is formed only where a part of lhs - rhs is nonzero (NaN
    included); elsewhere the residual is the real part, a zero whose sign
    no comparison reads. np.abs of a complex array can differ from hypot
    in the last bit.
    """
    re, im = np.ravel(lhs.real - rhs.real), np.ravel(lhs.imag - rhs.imag)
    return np.hypot(re, im, out=re, where=(re != 0) | (im != 0))


def _collect(groups, tol: float) -> CheckReport:
    """Fold (relation, lhs, rhs, at) groups into a report.

    An instance's residual is |lhs - rhs| (see _residual). A non-finite
    residual is a violation, and a NaN one sticks as the maximum, so
    non-finite input can never pass.
    """
    max_residual, witnesses, checked = 0.0, [], 0
    for relation, lhs, rhs, at in groups:
        residual = _residual(lhs, rhs)
        if not residual.size:
            continue
        checked += residual.size
        peak = float(residual.max())
        if peak > max_residual or math.isnan(peak):
            max_residual = peak
        for p in np.flatnonzero(~(residual <= tol))[: WITNESS_CAP - len(witnesses)].tolist():
            witnesses.append(Witness(relation, at(p), complex(lhs.flat[p]), complex(rhs.flat[p])))
    return CheckReport(max_residual <= tol, max_residual, tuple(witnesses), checked)


def _anchors(kind: Family, m: WindowedMatrix) -> tuple:
    """The least degree `lo` of `kind` on the windows, each degree's anchor, and a lazy scan of the row blocks.

    The anchor of degree lo + d is its first entry in C order, as a flat
    position `first[d]`, m.data.size where the windows hold no entry of it.
    Rows are read in blocks of about `_BLOCK` cells; the scan yields, per
    block, the anchors and positions (head, later) of the entries that are
    not their degree's anchor, and `first` is complete once it is exhausted.
    Each block records the first position of every degree it meets by
    np.minimum.at, which, unlike a fancy-index store, keeps the least of
    repeated writes.
    """
    lo, hi = _degree_bounds(kind, m.rows, m.cols)
    width = m.cols.size
    first = np.full(hi - lo + 1, m.data.size)
    rows, cols = m.rows.index_array(), m.cols.index_array()
    step = max(1, _BLOCK // max(1, width))

    def blocks():  # lazily, so one block's arrays are alive at a time
        for top in range(0, m.rows.size if width else 0, step):
            slot = np.ravel(kind.degree(rows[top : top + step, None], cols) - lo)
            position = np.arange(top * width, top * width + slot.size)
            np.minimum.at(first, slot, position)
            head = first.take(slot)
            later = np.flatnonzero(head != position)
            yield head.take(later), later + top * width

    return lo, first, blocks()


def check_pattern(kind: Family, m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """Verify `kind`'s pattern inside the windows: entries of one degree `kind.degree(i, j)` are equal.

    Each entry is compared with its degree's anchor (see _anchors), which a
    witness (i,j,p,q) names first.
    """
    flat, width = m.data.ravel(), m.cols.size

    def at(p):
        return m.rows.lo + p // width, m.cols.lo + p % width

    groups = (("a[i,j]=a[p,q]", flat.take(head), flat.take(later),
               lambda p, head=head, later=later: (*at(int(head[p])), *at(int(later[p]))))
              for head, later in _anchors(kind, m)[2])
    return _collect(groups, tol)


def check_slant_h_matrix(m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """check_pattern of the slant-h-toeplitz family."""
    return check_pattern(SLANT_H_TOEPLITZ, m, tol)


def check_slant_toeplitz_matrix(m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """check_pattern of the slant-toeplitz family."""
    return check_pattern(SLANT_TOEPLITZ, m, tol)


def check_slant_hankel_matrix(m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """check_pattern of the slant-hankel family."""
    return check_pattern(SLANT_HANKEL, m, tol)


def extract_symbol(m: WindowedMatrix) -> LaurentSymbol:
    """Read the inducing symbol back from a slant-h section: each degree the windows hold, at its anchor.

    The support is trimmed to the nonzero coefficients. The matrix is
    expected to pass check_slant_h_matrix; no cross-validation is repeated.
    """
    lo, first, blocks = _anchors(SLANT_H_TOEPLITZ, m)
    for _ in blocks:  # the scan completes `first`
        pass
    held = np.flatnonzero(first < m.data.size)
    return LaurentSymbol(dict(zip((held + lo).tolist(), m.data.ravel().take(first[held]).tolist())))


def _identity(tag: str, lhs: WindowedMatrix, rhs: WindowedMatrix) -> tuple:
    """Group comparing two sections entry by entry on their shared windows."""
    rows, cols = lhs.rows.intersect(rhs.rows), lhs.cols.intersect(rhs.cols)
    return (tag, lhs.restrict(rows, cols).data, rhs.restrict(rows, cols).data,
            lambda p: (rows.lo + p // cols.size, cols.lo + p % cols.size))


def _shift_identities(tags, left: WindowedMatrix, a: WindowedMatrix, dom: IndexWindow, shift, power: int):
    """Groups of the identities (a)-(e) of check_extension_conditions with `left` for Am, `a` for A, `shift` for
    S(-m) and `power` for 2m: (c) and (e) on e0, the others on `dom`."""
    e0 = IndexWindow(0, 0)
    chains = [
        ([left, compose_z(2)], [shift, a, compose_z(2), mult_z(power)], dom),
        ([USTAR, left, mult_z(3), compose_z(4)], [a, mult_z(3), compose_z(4), U], dom),
        ([USTAR, left.restrict(left.rows, e0)], [a, mult_z(3)], e0),
        ([USTAR, left, mult_z(1), compose_z(4)], [a, mult_z(1), compose_z(4), U], dom),
        ([USTAR, left, mult_z(2)], [a, mult_z(1)], e0),
    ]
    for tag, (lhs, rhs, cols) in zip(tags, chains):
        yield _identity(tag, compose_chain(lhs, cols), compose_chain(rhs, cols))


def _identity_domain(m: WindowedMatrix, power: int, what: str) -> IndexWindow:
    """0:p, the widest domain on which the identities, with Mz(power) in (a), read only the section's columns 0..C:
    p = min((C-7)//4, (C-2*power)//2), as (b) reads column 4p+7 and (a) column 2p+2*power. Rows are 0..R, R >= 1."""
    p = min((m.cols.hi - 7) // 4, (m.cols.hi - 2 * power) // 2)
    if m.rows.lo != 0 or m.rows.hi < 1 or m.cols.lo != 0 or p < 0:  # an empty window is 0:-1
        raise WindowError(f"{what} needs rows 0..R, R >= 1, and columns 0..C, C >= {max(7, 2 * power)};"
                          f" got rows {m.rows} and columns {m.cols}")
    return IndexWindow(0, p)


def check_characterization(m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """Check the five shift identities characterizing slant-h sections on the domain 0:(C-7)//4 of columns 0..C.

        (a) A.Cz2 = U*.A.Cz2.U2
        (b) U*.A.Mz3.Cz4 = A.Mz3.Cz4.U
        (c) U*.A.e0 = A.Mz3.e0
        (d) U*.A.Mz.Cz4 = A.Mz.Cz4.U
        (e) U*.A.Mz2.e0 = A.Mz.e0
    """
    dom = _identity_domain(m, 2, "characterization")
    tags = ("A.Cz2=U*.A.Cz2.U2", "U*.A.Mz3.Cz4=A.Mz3.Cz4.U", "U*.A.e0=A.Mz3.e0",
            "U*.A.Mz.Cz4=A.Mz.Cz4.U", "U*.A.Mz2.e0=A.Mz.e0")
    return _collect(_shift_identities(tags, m, m, dom, USTAR, 2), tol)


def check_extension_conditions(a: WindowedMatrix, depth: int, tol: float = 1e-12) -> CheckReport:
    """Check the extension identities for the depth-m continuation of a section.

    The continuation A_m is rebuilt from the extracted symbol on rows >= -m and
    must satisfy, with S(-m) the bilateral back shift,

        (a) Am.Cz2 = S(-m).A.Cz2.Mz(2m)
        (b) U*.Am.Mz3.Cz4 = A.Mz3.Cz4.U
        (c) U*.Am.e0 = A.Mz3.e0
        (d) U*.Am.Mz.Cz4 = A.Mz.Cz4.U
        (e) U*.Am.Mz2.e0 = A.Mz.e0

    on the domain _identity_domain derives, and agree with the original section
    on every shared nonnegative row.
    """
    if depth < 0:
        raise ValueError("extension depth must be >= 0")
    dom = _identity_domain(a, 2 * depth, "extension check")
    try:
        am = build_family(extension(depth), extract_symbol(a), IndexWindow(-depth, a.rows.hi), a.cols)
    except SymbolParseError:  # a non-finite entry read back leaves A_m, and so every identity, undefined
        return CheckReport(False, math.nan, ())
    tags = ("Am.Cz2=S(-m).A.Cz2.U2m", "U*.Am.Mz3.Cz4=A.Mz3.Cz4.U", "U*.Am.e0=A.Mz3.e0",
            "U*.Am.Mz.Cz4=A.Mz.Cz4.U", "U*.Am.Mz2.e0=A.Mz.e0")
    groups = _shift_identities(tags, am, a, dom, bilateral_shift(-depth), 2 * depth)
    return _collect([*groups, _identity("Am[i,j]=A[i,j]", am, a)], tol)
