"""The pattern predicate of every family, symbol readback, and shift-identity checkers.

A family's pattern, read from its record, is that entries of one degree
`Family.degree(i, j)` are equal; the slant-h and slant step predicates are
`check_pattern` of their family. The pattern checks and the readback read
one scan (see _scan) of a section's row blocks (see windowed.row_blocks):
blocks of zeros that its triplets are put into, so its cells are not built.
Its scratch is one block and a table of the degrees the windows hold. The
shift identities are pairs of index maps (see _identities), each read from a
section's cells, which `data` builds, in row blocks before the next; the
cells are built before the windows are judged.

Predicates quantify only over index tuples that lie fully inside the supplied
windows; a pass means "no in-window violation". A report whose windows were
too small to contain a single relation instance is flagged vacuous. Checks
run array-at-a-time, one group (relation, lhs, rhs, at, count) per row block
of a pattern and per shift identity: equal-shape arrays holding its
instances in scan order (relations in a fixed order, indices ascending, C
order), where tol >= 0 only those whose residual is not 0; `at(p)` giving
the index tuple of instance p, formed for witnesses only; and the count of
instances the group stands for. The witnesses are the first `WITNESS_CAP`
(16) violations in that order, read when a report is folded.
"""

import math
from collections import namedtuple

import numpy as np

from .families import SLANT_H_TOEPLITZ, Family, _degree_pieces, build_family, extension
from .symbol import LaurentSymbol, SymbolParseError
from . import windowed
from .windowed import IndexWindow, WindowedMatrix, WindowError, format_entry, row_blocks

__all__ = [
    "CheckReport",
    "Witness",
    "WITNESS_CAP",
    "check_characterization",
    "check_extension_conditions",
    "check_pattern",
    "check_slant_h_matrix",
    "extract_checked",
    "extract_symbol",
]

WITNESS_CAP = 16


class Witness(namedtuple("Witness", "relation indices lhs rhs")):
    __slots__ = ()

    def render(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.relation} ({idx}) lhs={format_entry(self.lhs)} rhs={format_entry(self.rhs)}"


class CheckReport(namedtuple("CheckReport", "passed max_residual witnesses checked", defaults=(0,))):
    """Outcome of a predicate or identity check."""

    __slots__ = ()

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
    """Fold (relation, lhs, rhs, at, count) groups into a report.

    An instance's residual is |lhs - rhs| (see _residual). A non-finite
    residual is a violation, and a NaN one sticks as the maximum, so
    non-finite input can never pass. A group stands for `count` instances:
    its own, and others of residual 0 that pass.
    """
    max_residual, witnesses, checked = 0.0, [], 0
    for relation, lhs, rhs, at, count in groups:
        residual = _residual(lhs, rhs)
        checked += count
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
    runs, shift = [], np.zeros((2, 2), dtype=np.int64)
    for parities, piece in sorted(_degree_pieces(kind, rows, cols).items(), key=lambda item: item[1][:2]):
        if not runs or piece.lo > runs[-1][1] + 1:  # a run opens after the slots of those before it
            size = sum(hi - lo + 1 for lo, hi in runs)
            runs.append([piece.lo, piece.hi])
        runs[-1][1] = max(runs[-1][1], piece.hi)
        shift[parities] = (size - runs[-1][0] + 2**63) % 2**64 - 2**63  # in int64: a degree plus it is the slot
    return runs, shift[parities] if len(runs) == 1 else shift


def _kept(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """The instances a check folds: all of them, but where tol >= 0 those whose residual is 0 pass and are left out.

    An instance is kept when a part of lhs - rhs is nonzero: NaN too, so two
    equal infinite entries (inf - inf is nan) are kept, and fail.
    """
    if not tol >= 0:
        return np.ones(lhs.shape, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        return ((lhs - rhs).view(float) != 0).view(np.uint16) != 0  # either part differs: its two bools as one word


def _scan(kind: Family, m: WindowedMatrix, tol: float | None) -> tuple:
    """The pattern scan of `kind` over a section's row blocks: its groups, lazily, and `readback()`.

    The anchor of a degree is its first entry in C order. Each block records
    the anchors of the degrees no earlier block held, and yields its group:
    each entry but the anchors against its degree's anchor, where tol >= 0
    only those not equal to it (see _kept), counting them all; where tol is
    None it records the anchors alone and yields nothing. readback(), once the
    groups are exhausted, is each degree the windows hold, at its anchor,
    trimmed to the nonzero coefficients.
    """
    rows, cols, blocks = m.rows, m.cols, row_blocks(m)  # the section's size is judged here, before any table
    runs, shift = _slots(kind, rows, cols)
    # an empty window gives no block, so no index array is built of the other, however wide
    row_index, col_index = (rows.index_array(), cols.index_array()) if rows.size * cols.size else ((), ())
    width, absent, size = cols.size, rows.size * cols.size, sum(hi - lo + 1 for lo, hi in runs)
    first, anchor = np.full(size, absent), np.zeros(size, dtype=complex)  # per slot: its anchor's position, value

    def at(p):
        return rows.lo + p // width, cols.lo + p % width

    def groups():  # lazily, so one block's arrays are alive at a time
        for top, block in blocks:
            i = row_index[top : top + block.shape[0], None]
            offset = shift if np.ndim(shift) == 0 else shift[i % 2, col_index % 2]
            slot = np.ravel(kind.degree(i, col_index) + offset)
            values = np.ravel(block)
            fresh = np.flatnonzero(first.take(slot) == absent)  # entries of degrees no earlier block held
            held, new = np.unique(slot[fresh], return_index=True)  # and each such degree's first entry here
            new = fresh[new]
            first[held], anchor[held] = new + top * width, values[new]
            if tol is None:
                continue
            lhs = anchor.take(slot)
            keep = _kept(lhs, values, tol)
            keep[new] = False
            later = np.flatnonzero(keep)
            yield ("a[i,j]=a[p,q]", lhs.take(later), values.take(later),
                   lambda p, base=top * width, later=later, slot=slot: (*at(int(first[slot[later[p]]])),
                                                                      *at(base + int(later[p]))),
                   slot.size - new.size)

    def readback() -> LaurentSymbol:
        degrees = np.concatenate([np.arange(hi - lo + 1, dtype=np.int64) + lo for lo, hi in runs] or [[]])
        held = first < absent
        return LaurentSymbol(dict(zip(degrees[held].tolist(), anchor[held].tolist())))

    return groups(), readback


def check_pattern(kind: Family, m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """Verify `kind`'s pattern inside the windows: entries of one degree `kind.degree(i, j)` are equal.

    The section's cells are not built. Each entry is compared with its
    degree's anchor (see _scan), which a witness (i,j,p,q) names first.
    """
    return _collect(_scan(kind, m, tol)[0], tol)


def check_slant_h_matrix(m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """check_pattern of the slant-h-toeplitz family."""
    return check_pattern(SLANT_H_TOEPLITZ, m, tol)


def extract_symbol(m: WindowedMatrix) -> LaurentSymbol:
    """Read the inducing symbol back from a slant-h section: each degree held, at its anchor.

    The matrix is expected to pass check_slant_h_matrix; the scan records the
    anchors without comparing any entry with them.
    """
    groups, readback = _scan(SLANT_H_TOEPLITZ, m, None)
    for _ in groups:  # the scan fills the anchor table and compares nothing
        pass
    return readback()


def extract_checked(m: WindowedMatrix, tol: float = 1e-12) -> tuple:
    """check_slant_h_matrix of a section, and extract_symbol where it passes, else None: one scan."""
    groups, readback = _scan(SLANT_H_TOEPLITZ, m, tol)
    report = _collect(groups, tol)
    return report, readback() if report.passed else None


# The shift identities as entry pairs, one row each: its tag in check_characterization (None: the extension
# check's alone) and in check_extension_conditions, then each side's index map as (row offset r, column step s,
# column offset c). Instance (i, j) compares L[i + r, s*j + c] with A[i + r', s'*j + c'], where L is A_m in the
# extension check at depth m and A in the characterization, which is the depth-1 form (U* is S(-1) on rows >= 0).
# Every (i, j), j >= 0, whose two entries lie in the windows is an instance; a column step 0 reads one column.
def _identities(m: int) -> tuple:
    return (
        ("A.Cz2=U*.A.Cz2.U2", "Am.Cz2=S(-m).A.Cz2.U2m", (0, 2, 0), (m, 2, 4 * m)),
        ("U*.A.Mz3.Cz4=A.Mz3.Cz4.U", "U*.Am.Mz3.Cz4=A.Mz3.Cz4.U", (1, 4, 3), (0, 4, 7)),
        ("U*.A.e0=A.Mz3.e0", "U*.Am.e0=A.Mz3.e0", (1, 0, 0), (0, 0, 3)),
        ("U*.A.Mz.Cz4=A.Mz.Cz4.U", "U*.Am.Mz.Cz4=A.Mz.Cz4.U", (1, 4, 1), (0, 4, 5)),
        ("U*.A.Mz2.e0=A.Mz.e0", "U*.Am.Mz2.e0=A.Mz.e0", (1, 0, 2), (0, 0, 1)),
        (None, "Am[i,j]=A[i,j]", (0, 1, 0), (0, 1, 0)),
    )


def _pair_groups(pairs, left: WindowedMatrix, a: WindowedMatrix, tol: float):
    """One group per (tag, left map, right map) of `pairs` (see _identities): its instances in C order of (i, j).

    Each pair folds its instances in row blocks of about `_BLOCK` cells before
    the next pair is read. Where tol >= 0 only those whose residual is not 0
    are kept (see _kept); each group counts them all.
    """
    step = max(1, windowed._BLOCK // a.cols.size)
    for tag, *maps in pairs:
        sides = [(m, *f) for m, f in zip((left, a), maps)]
        top, bottom = max(m.rows.lo - r for m, r, _, _ in sides), min(m.rows.hi - r for m, r, _, _ in sides)
        n = min((m.cols.hi - c) // s + 1 if s else 1 for m, _, s, c in sides)
        kept = [], [], []
        for t in range(top, bottom + 1, step):
            stop = min(t + step, bottom + 1)
            l, r = (m.data[t + r - m.rows.lo : stop + r - m.rows.lo, c : c + s * (n - 1) + 1 : s or 1]
                    for m, r, s, c in sides)
            keep = _kept(l, r, tol)
            for part, new in zip(kept, (l[keep], r[keep], np.flatnonzero(keep) + (t - top) * n)):
                part.append(new)
        lhs, rhs, at = map(np.concatenate, kept)
        yield (tag, lhs, rhs, lambda p, top=top, n=n, at=at: (top + int(at[p]) // n, int(at[p]) % n),
               (bottom - top + 1) * n)


def _identity_windows(m: WindowedMatrix, power: int, what: str) -> None:
    """Refuse a section whose rows are not 0..R, R >= 1, or whose columns are not 0..C with C >= 7 and C >= 2*power,
    where power is the power of U in identity (a): 2 in the characterization, 2m in the extension check."""
    if m.rows.lo != 0 or m.rows.hi < 1 or m.cols.lo != 0 or m.cols.hi < max(7, 2 * power):  # empty is 0:-1
        raise WindowError(f"{what} needs rows 0..R, R >= 1, and columns 0..C, C >= {max(7, 2 * power)};"
                          f" got rows {m.rows} and columns {m.cols}")


def check_characterization(m: WindowedMatrix, tol: float = 1e-12) -> CheckReport:
    """Check the five shift identities characterizing slant-h sections, as entry pairs (see _identities).

        (a) A.Cz2 = U*.A.Cz2.U2
        (b) U*.A.Mz3.Cz4 = A.Mz3.Cz4.U
        (c) U*.A.e0 = A.Mz3.e0
        (d) U*.A.Mz.Cz4 = A.Mz.Cz4.U
        (e) U*.A.Mz2.e0 = A.Mz.e0
    """
    m.data  # its cells, which the identities read: their size is judged before the windows
    _identity_windows(m, 2, "characterization")
    pairs = [(tag, *maps) for tag, _, *maps in _identities(1) if tag]
    return _collect(_pair_groups(pairs, m, m, tol), tol)


def check_extension_conditions(a: WindowedMatrix, depth: int, tol: float = 1e-12) -> CheckReport:
    """Check the extension identities for the depth-m continuation of a section.

    The continuation A_m is rebuilt from the extracted symbol on rows >= -m and
    must satisfy, with S(-m) the bilateral back shift,

        (a) Am.Cz2 = S(-m).A.Cz2.U2m
        (b) U*.Am.Mz3.Cz4 = A.Mz3.Cz4.U
        (c) U*.Am.e0 = A.Mz3.e0
        (d) U*.Am.Mz.Cz4 = A.Mz.Cz4.U
        (e) U*.Am.Mz2.e0 = A.Mz.e0

    as entry pairs (see _identities), and agree with the original section on
    every shared nonnegative row.
    """
    a.data  # its cells, which the identities read: their size is judged before the windows or the depth
    if depth < 0:
        raise ValueError("extension depth must be >= 0")
    _identity_windows(a, 2 * depth, "extension check")
    try:
        am = build_family(extension(depth), extract_symbol(a), IndexWindow(-depth, a.rows.hi), a.cols)
    except SymbolParseError:  # a non-finite entry read back leaves A_m, and so every identity, undefined
        return CheckReport(False, math.nan, ())
    pairs = [(tag, *maps) for _, tag, *maps in _identities(depth)]
    return _collect(_pair_groups(pairs, am, a, tol), tol)
