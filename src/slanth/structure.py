"""The pattern predicate of every family, symbol readback, and shift-identity checkers.

A family's pattern, read from its record, is that entries of one degree
`Family.degree(i, j)` are equal; the slant-h and slant step predicates are
`check_pattern` of their family. The pattern checks and the readback scan a
section's row blocks once, in order (see windowed.RowBlocks): a dense
section's are slices of its data, and a file's are tokenized as they are
read, so no dense section of the file is built. Their scratch is one block
and a table of the degrees the windows hold.

Predicates quantify only over index tuples that lie fully inside the supplied
windows; a pass means "no in-window violation". A report whose windows were
too small to contain a single relation instance is flagged vacuous. Checks
run array-at-a-time, one group (relation, lhs, rhs, at) per relation or row
block: equal-shape arrays holding its instances in scan order (relations in
a fixed order, indices ascending, C order), and `at(p)` giving the index
tuple of instance p, formed for witnesses only. The witnesses are the first
`WITNESS_CAP` (16) violations in that order, read when a report is folded.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .families import SLANT_H_TOEPLITZ, SLANT_HANKEL, SLANT_TOEPLITZ, Family, _degree_pieces, build_family, extension
from .symbol import LaurentSymbol, SymbolParseError
from .windowed import (
    U,
    USTAR,
    IndexWindow,
    RowBlocks,
    WindowedMatrix,
    WindowError,
    _triplets,
    bilateral_shift,
    compose_chain,
    compose_z,
    format_entry,
    mult_z,
    row_blocks,
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
    "extract_checked",
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
    """Fold (relation, lhs, rhs, at[, count]) groups into a report.

    An instance's residual is |lhs - rhs| (see _residual). A non-finite
    residual is a violation, and a NaN one sticks as the maximum, so
    non-finite input can never pass. A group with a count stands for that
    many instances: its own, and others of residual 0 that pass.
    """
    max_residual, witnesses, checked = 0.0, [], 0
    for relation, lhs, rhs, at, *count in groups:
        residual = _residual(lhs, rhs)
        checked += count[0] if count else residual.size
        if not residual.size:
            continue
        peak = float(residual.max())
        if peak > max_residual or math.isnan(peak):
            max_residual = peak
        for p in np.flatnonzero(~(residual <= tol))[: WITNESS_CAP - len(witnesses)].tolist():
            witnesses.append(Witness(relation, at(p), complex(lhs.flat[p]), complex(rhs.flat[p])))
    return CheckReport(max_residual <= tol, max_residual, tuple(witnesses), checked)


def _slots(kind: Family, rows: IndexWindow, cols: IndexWindow) -> tuple:
    """The anchor table's layout on the windows: its runs of degrees (lo, hi), laid end to end, and the offset that
    takes a degree to its slot, one int, or a 2 x 2 table by (row parity, column parity).

    The runs are the parity pieces' degree intervals (see _degree_pieces)
    merged, so a window on far columns, whose even and odd columns hold
    degrees far apart, gets a table of about the degrees it holds.
    """
    pieces = _degree_pieces(kind, rows, cols)
    runs = []
    for lo, hi in sorted(pieces.values()):
        if runs and lo <= runs[-1][1] + 1:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    shift, size = np.zeros((2, 2), dtype=np.int64), 0
    for lo, hi in runs:
        for piece, (low, _) in pieces.items():
            if lo <= low <= hi:  # wrapped into int64: a degree plus it, in int64, is the slot
                shift[piece] = (size - lo + 2**63) % 2**64 - 2**63
        size += hi - lo + 1
    return runs, shift[next(iter(pieces))] if len(runs) == 1 else shift


# A pattern scan: the anchor table's runs of degrees; per slot, its anchor's
# flat position (`absent` where the windows hold no entry of it) and value;
# and the lazy scan of the row blocks, which completes the table.
_Scan = namedtuple("_Scan", "runs first anchor absent blocks")


def _anchors(kind: Family, m) -> _Scan:
    """The pattern scan of `kind` over a section or its row blocks.

    The anchor of a degree is its first entry in C order. Per block the scan
    finds the first entry of each degree that no earlier block held, records
    its position and value, and yields the block's first flat position, its
    entries' slots and values, and where its new anchors are.
    """
    rows, cols, blocks = m if isinstance(m, RowBlocks) else row_blocks(m)
    # the first block is read before the tables are made, so that a file too short for the windows it names
    # fails as it did when it was loaded, before tables sized by those windows are filled
    read = list(itertools.islice(blocks, 1))
    try:
        runs, shift = _slots(kind, rows, cols)
        row_index, col_index = rows.index_array(), cols.index_array()
    except WindowError:
        for _ in blocks:  # a malformed or non-finite cell of a file is reported first, as when it is loaded
            pass
        raise
    width, absent, size = cols.size, rows.size * cols.size, sum(hi - lo + 1 for lo, hi in runs)
    first, anchor = np.full(size, absent), np.zeros(size, dtype=complex)

    def scan():  # lazily, so one block's arrays are alive at a time
        seen = 0
        for top, block in itertools.chain(read, blocks):
            seen += block.shape[0]
            i = row_index[top : top + block.shape[0], None]
            offset = shift if np.ndim(shift) == 0 else shift[i % 2, col_index % 2]
            slot = np.ravel(kind.degree(i, col_index) + offset)
            values = np.ravel(block)
            fresh = np.flatnonzero(first.take(slot) == absent)  # entries of degrees no earlier block held
            held, at = np.unique(slot[fresh], return_index=True)  # and each such degree's first entry here
            new = fresh[at]
            first[held], anchor[held] = new + top * width, values[new]
            yield top * width, slot, values, new
        if seen != (rows.size if width else 0):  # an iterator read before yields nothing: never a vacuous pass
            raise ValueError(f"row blocks of {rows} x {cols} hold {seen} rows; they are read once")

    return _Scan(runs, first, anchor, absent, scan())


def _pattern_groups(scan: _Scan, rows: IndexWindow, cols: IndexWindow, tol: float):
    """The scan's blocks as groups of one relation, each entry but the anchors against its degree's anchor.

    Where tol >= 0 an entry equal to its anchor, whose residual is 0, passes,
    and only the others are folded; the group counts them all.
    """
    def at(p):
        return rows.lo + p // cols.size, cols.lo + p % cols.size

    for base, slot, values, new in scan.blocks:
        lhs = scan.anchor.take(slot)
        if tol >= 0:
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan, kept
                parts = values.view(float) - lhs.view(float) != 0
            keep = parts.view(np.uint16) != 0  # either part of an entry differs: its two bools as one word
        else:
            keep = np.ones(slot.size, dtype=bool)
        keep[new] = False
        later = np.flatnonzero(keep)
        yield ("a[i,j]=a[p,q]", lhs.take(later), values.take(later),
               lambda p, base=base, later=later, slot=slot: (*at(int(scan.first[slot[later[p]]])),
                                                            *at(base + int(later[p]))),
               slot.size - new.size)


def check_pattern(kind: Family, m, tol: float = 1e-12) -> CheckReport:
    """Verify `kind`'s pattern inside the windows: entries of one degree `kind.degree(i, j)` are equal.

    m is a section, or the row blocks of one (a file's, see
    windowed.stream_matrix). Each entry is compared with its degree's anchor
    (see _anchors), which a witness (i,j,p,q) names first.
    """
    return _collect(_pattern_groups(_anchors(kind, m), m.rows, m.cols, tol), tol)


def check_slant_h_matrix(m, tol: float = 1e-12) -> CheckReport:
    """check_pattern of the slant-h-toeplitz family."""
    return check_pattern(SLANT_H_TOEPLITZ, m, tol)


def check_slant_toeplitz_matrix(m, tol: float = 1e-12) -> CheckReport:
    """check_pattern of the slant-toeplitz family."""
    return check_pattern(SLANT_TOEPLITZ, m, tol)


def check_slant_hankel_matrix(m, tol: float = 1e-12) -> CheckReport:
    """check_pattern of the slant-hankel family."""
    return check_pattern(SLANT_HANKEL, m, tol)


def _readback(scan: _Scan) -> LaurentSymbol:
    """Each degree the windows hold, at its anchor, from an exhausted scan; trimmed to the nonzero coefficients."""
    degrees = np.concatenate([np.arange(hi - lo + 1, dtype=np.int64) + lo for lo, hi in scan.runs] or [[]])
    held = scan.first < scan.absent
    return LaurentSymbol(dict(zip(degrees[held].tolist(), scan.anchor[held].tolist())))


def extract_symbol(m) -> LaurentSymbol:
    """Read the inducing symbol back from a slant-h section, or its row blocks: each degree the windows hold, at
    its anchor.

    The matrix is expected to pass check_slant_h_matrix; no cross-validation
    is repeated.
    """
    scan = _anchors(SLANT_H_TOEPLITZ, m)
    for _ in scan.blocks:  # the scan completes the anchor table
        pass
    return _readback(scan)


def extract_checked(m, tol: float = 1e-12) -> tuple:
    """check_slant_h_matrix of a section or its row blocks, and extract_symbol where it passes, else None: one scan."""
    scan = _anchors(SLANT_H_TOEPLITZ, m)
    report = _collect(_pattern_groups(scan, m.rows, m.cols, tol), tol)
    return report, _readback(scan) if report.passed else None


def _identity(tag: str, lhs: WindowedMatrix, rhs: WindowedMatrix) -> tuple:
    """Group comparing two sections entry by entry on their shared windows."""
    rows, cols = lhs.rows.intersect(rhs.rows), lhs.cols.intersect(rhs.cols)
    return (tag, lhs.restrict(rows, cols).data, rhs.restrict(rows, cols).data,
            lambda p: (rows.lo + p // cols.size, cols.lo + p % cols.size))


def _shift_identities(tags, left: WindowedMatrix, a: WindowedMatrix, dom: IndexWindow, shift, power: int):
    """Groups of the identities (a)-(e) of check_extension_conditions with `left` for Am, `a` for A, `shift` for
    S(-m) and `power` for 2m: (c) and (e) on e0, the others on `dom`. Each section enters the chains as its
    triplets, formed once; (c) reads Am's column 0 alone."""
    e0 = IndexWindow(0, 0)
    at = _triplets(a)
    lt = at if left is a else _triplets(left)
    chains = [
        ([lt, compose_z(2)], [shift, at, compose_z(2), mult_z(power)], dom),
        ([USTAR, lt, mult_z(3), compose_z(4)], [at, mult_z(3), compose_z(4), U], dom),
        ([USTAR, left.restrict(left.rows, e0)], [at, mult_z(3)], e0),
        ([USTAR, lt, mult_z(1), compose_z(4)], [at, mult_z(1), compose_z(4), U], dom),
        ([USTAR, lt, mult_z(2)], [at, mult_z(1)], e0),
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
