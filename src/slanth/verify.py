"""Named desk-scale verification suites.

Each check pins its own windows and tolerances and returns (passed, detail).
The CLI `verify` command runs them by name or all together; the test suite
asserts them one by one. Checks are deterministic: fixed corpora, fixed
iteration orders, fixed windows.
"""

import numpy as np

from .analysis import (
    CORPUS,
    column_norm_floor,
    frobenius_of_section,
    norm_bound_check,
)
from .families import (
    COMPOSITIONAL_KINDS,
    SLANT_HANKEL,
    SLANT_H_TOEPLITZ,
    SLANT_TOEPLITZ,
    build_compositional,
    build_family,
    extension,
)
from .expr import eval_expr, parse_expr
from .structure import (
    check_characterization,
    check_extension_conditions,
    check_slant_h_matrix,
    extract_symbol,
)
from .symbol import ONE, LaurentSymbol, coefficient_l2, conj_reflect, symbol_product, symbol_sub
from .windowed import IndexWindow, WindowedMatrix

__all__ = ["CHECKS", "run", "perturbed"]

_NONZERO = [(label, phi) for label, phi in CORPUS if not phi.is_zero]
_GENERIC = dict(CORPUS)["2z^-1+3+5z+7z^2"]

# The degree grid of the slant-h section continued to depth 2, on rows -2..5 and columns 0..6:
# GOLDEN[r][c] is the degree whose coefficient sits at row r - 2, column c. A continuation to a
# lesser depth, the section itself included, holds the same degrees on the rows it shares with it.
GOLDEN = [
    [-4, -3, -5, -2, -6, -1, -7],
    [-2, -1, -3, 0, -4, 1, -5],
    [0, 1, -1, 2, -2, 3, -3],
    [2, 3, 1, 4, 0, 5, -1],
    [4, 5, 3, 6, 2, 7, 1],
    [6, 7, 5, 8, 4, 9, 3],
    [8, 9, 7, 10, 6, 11, 5],
    [10, 11, 9, 12, 8, 13, 7],
]


def perturbed(m: WindowedMatrix, i: int, j: int, delta=1.0) -> WindowedMatrix:
    """Copy of a section with its entry (i, j) shifted by delta; a WindowError for an entry outside its windows."""
    m.entry(i, j)  # refuses (i, j) outside the windows, which the index below would wrap or overrun
    data = np.array(m.data)
    data[i - m.rows.lo, j - m.cols.lo] += delta
    return WindowedMatrix(m.rows, m.cols, data)


def check_oracle():
    """Closed forms, extension depths 1-3 too, equal the compositional builder bit for bit for every corpus symbol."""
    cols = IndexWindow(0, 33)
    worst, same, combos = 0.0, True, 0
    for _, phi in CORPUS:
        for kind in (*COMPOSITIONAL_KINDS, *map(extension, (1, 2, 3))):
            oracle = build_compositional(kind, phi, cols)
            # the oracle's rows hold every nonzero row, so the closed form must vanish on the rows it adds
            rows = oracle.rows.hull(IndexWindow(-kind.depth, 8))
            primary, expected = build_family(kind, phi, rows, cols).data, oracle.embed(rows, cols).data
            worst = max(worst, float(np.max(np.abs(primary - expected), initial=0.0)))
            # uint64 views: zero signs and last bits count
            same &= np.array_equal(primary.view(np.uint64), expected.view(np.uint64))
            combos += 1
    return same, f"max_dev={worst!r} combos={combos}"


def check_golden():
    """Leading blocks, read as whole closed-form sections, match the rows of the degree grid index for index."""
    # injective coefficients so a matching value pins the degree
    probe = LaurentSymbol({n: complex(n, 1) for n in range(-7, 14)})
    golden = np.array([[probe.coeff(d) for d in line] for line in GOLDEN])
    for kind, rows in ((SLANT_H_TOEPLITZ, IndexWindow(0, 4)), (extension(1), IndexWindow(-1, 5)),
                       (extension(2), IndexWindow(-2, 5))):
        block = build_family(kind, probe, rows, IndexWindow(0, 6)).data
        wrong = np.argwhere(block != golden[rows.lo + 2 : rows.hi + 3])
        if wrong.size:  # the first in reading order
            return False, f"mismatch at kind={kind.name} ({rows.lo + wrong[0, 0]},{wrong[0, 1]})"
    return True, "blocks=3"


def check_roundtrip():
    """Symbol -> section -> symbol is the identity for supports within reach."""
    wide = LaurentSymbol({n: complex(1, n) for n in range(-16, 17)})
    candidates = [phi for _, phi in CORPUS] + [wide]
    rows, cols = IndexWindow(0, 8), IndexWindow(0, 33)
    for phi in candidates:
        recovered = extract_symbol(build_family(SLANT_H_TOEPLITZ, phi, rows, cols))
        if recovered != phi:
            return False, f"roundtrip failed for {phi!r}"
    return True, f"symbols={len(candidates)}"


def check_predicates():
    """Sections pass both the pattern predicate and the shift identities;
    unit perturbations are caught by both with witnesses."""
    rows, cols = IndexWindow(0, 10), IndexWindow(0, 39)
    worst = 0.0
    for _, phi in CORPUS:
        section = build_family(SLANT_H_TOEPLITZ, phi, rows, cols)
        pattern = check_slant_h_matrix(section, 1e-12)
        identities = check_characterization(section, 1e-12)
        if not (pattern.passed and identities.passed):
            return False, f"clean section rejected for {phi!r}"
        worst = max(worst, pattern.max_residual, identities.max_residual)
    section = build_family(SLANT_H_TOEPLITZ, _GENERIC, rows, cols)
    for spot in ((0, 0), (1, 4)):
        bad = perturbed(section, *spot)
        pattern = check_slant_h_matrix(bad, 1e-12)
        identities = check_characterization(bad, 1e-12)
        if pattern.passed or not pattern.witnesses:
            return False, f"pattern check missed perturbation at {spot}"
        if identities.passed or not identities.witnesses:
            return False, f"identity check missed perturbation at {spot}"
    return True, f"max_residual={worst!r}"


def check_interleaving():
    """Even/odd columns interleave the slant-toeplitz and slant-hankel operators: V W* = B and V U W* = L."""
    even, odd = parse_expr("V(phi) . W* - B(phi)"), parse_expr("V(phi) . U . W* - L(phi)")
    for _, phi in CORPUS:
        # column n of the two differences is column 2n, then 2n + 1, of V against column n of B, then of L
        nonzero = [(eval_expr(e, IndexWindow(0, 16), {"phi": phi}).data != 0).any(axis=0) for e in (even, odd)]
        wrong = np.flatnonzero(np.stack(nonzero, axis=1))
        if wrong.size:  # the first column of V in order
            return False, f"{('even', 'odd')[wrong[0] % 2]} column {wrong[0]} mismatch for {phi!r}"
    return True, f"symbols={len(CORPUS)}"


def check_coisometry():
    """Coisometry family: V V* = P, coefficient sum 1, and (W T_rho W*) V = 0, rho = 1 - |phi|^2, V as its chain."""
    defect, partial = parse_expr("V(phi) . V*(phi) - P"), parse_expr("W . P . M(rho) . W* . W . P . M(phi) . K")
    worst = 0.0
    for label in ("1", "z", "z^3", "(1+z)/sqrt2"):  # in CORPUS order
        phi = dict(CORPUS)[label]
        symbols = {"phi": phi, "rho": symbol_sub(ONE, symbol_product(phi, conj_reflect(phi)))}
        residuals = (
            # one norm per column: a norm along an axis sums in another order
            max(float(np.linalg.norm(column)) for column in eval_expr(defect, IndexWindow(0, 16), symbols).data.T),
            abs(coefficient_l2(phi) - 1.0),
            float(np.max(np.abs(eval_expr(partial, IndexWindow(0, 12), symbols).data), initial=0.0)),
        )
        worst = max(worst, *residuals)
        if max(residuals) > 1e-12:
            return False, f"residual {max(residuals)!r} for {label}"
    return True, f"max_residual={worst!r}"


def check_negatives():
    """Every nonzero corpus symbol yields the expected quantitative violations: V*V - VV* has a negative diagonal
    entry at 0 or 1, V - V* a nonzero entry."""
    hyponormal, self_adjoint = parse_expr("V*(phi) . V(phi) - V(phi) . V*(phi)"), parse_expr("V(phi) - V*(phi)")
    for label, phi in _NONZERO:
        # entry (k, k) is ||V e_k||^2 - ||V* e_k||^2; a row outside the section's rows is zero
        gap = eval_expr(hyponormal, IndexWindow(0, 1), {"phi": phi})
        if min(gap.entry(k, k).real if k in gap.rows else 0.0 for k in (0, 1)) >= -1e-12:
            return False, f"no hyponormality violation for {label}"
        if np.max(np.abs(eval_expr(self_adjoint, IndexWindow(0, 16), {"phi": phi}).data), initial=0.0) <= 1e-6:
            return False, f"no self-adjointness violation for {label}"
        slant = build_family(SLANT_TOEPLITZ, phi, IndexWindow(0, 8), IndexWindow(0, 33))
        report = check_slant_h_matrix(slant, 1e-12)
        if report.passed or not report.witnesses:
            return False, f"slant-toeplitz section passed the slant-h pattern for {label}"
        growth = [
            frobenius_of_section(phi, IndexWindow(0, n - 1), IndexWindow(0, 4 * n))
            for n in (8, 16, 32)
        ]
        if growth[1] - growth[0] < 0.5 or growth[2] - growth[1] < 0.5:
            return False, f"frobenius growth stalled for {label}: {growth}"
        largest = max(abs(a) for _, a in phi.items())
        if column_norm_floor(phi) < largest - 1e-12:
            return False, f"column norms decayed for {label}"
    return True, f"symbols={len(_NONZERO)}"


def check_perp():
    """Slant-hankel sections pass the slant-h pattern and the characterization only when they vanish: z^-1 passes
    both, z^-1+z^2 fails both with witnesses."""
    rows, cols = IndexWindow(0, 10), IndexWindow(0, 39)
    for label, zero in (("z^-1", True), ("z^-1+z^2", False)):
        section = build_family(SLANT_HANKEL, dict(CORPUS)[label], rows, cols)
        for check in (check_slant_h_matrix, check_characterization):
            report = check(section)
            if report.passed != zero or not (zero or report.witnesses):
                return False, f"{label} {'failed' if zero else 'passed'} {check.__name__}"
    return True, "cases=2"


def check_norm_bound():
    """Section spectral norms stay below the symbol sup norm."""
    rows, cols = IndexWindow(0, 32), IndexWindow(0, 129)
    worst = -float("inf")
    for label, phi in CORPUS:
        section, sup = norm_bound_check(phi, rows, cols)
        margin = section - sup
        worst = max(worst, margin)
        if margin > 1e-6:
            return False, f"norm bound violated for {label}: {margin!r}"
    return True, f"max_margin={worst!r}"


def check_extension():
    """Extension identities hold, and the depth-0..2 sections on rows -d..8 are the depth-3 section's rows."""
    a = build_family(SLANT_H_TOEPLITZ, _GENERIC, IndexWindow(0, 16), IndexWindow(0, 67))
    cols = IndexWindow(0, 20)
    deepest = build_family(extension(3), _GENERIC, IndexWindow(-3, 8), cols)
    worst = 0.0
    for depth in (0, 1, 2):
        report = check_extension_conditions(a, depth, 1e-12)
        worst = max(worst, report.max_residual)
        if not report.passed:
            return False, f"identities failed at depth {depth}"
        rows = IndexWindow(-depth, 8)
        section = build_family(extension(depth), _GENERIC, rows, cols)
        wrong = np.argwhere(section.data != deepest.restrict(rows, cols).data)
        if wrong.size:
            return False, f"depth-dependent entry at ({rows.lo + wrong[0, 0]},{wrong[0, 1]})"
    return True, f"max_residual={worst!r}"


CHECKS = [
    ("oracle", check_oracle),
    ("golden", check_golden),
    ("roundtrip", check_roundtrip),
    ("predicates", check_predicates),
    ("interleaving", check_interleaving),
    ("coisometry", check_coisometry),
    ("negatives", check_negatives),
    ("perp", check_perp),
    ("norm-bound", check_norm_bound),
    ("extension", check_extension),
]


def run(out, names=None) -> int:
    """Run the named checks (all when names is falsy), a line each to `out`; 0 iff everything passed."""
    table = dict(CHECKS)
    selected = list(names) if names else [name for name, _ in CHECKS]
    failures = 0
    for name in selected:
        if name not in table:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(table)}")
        ok, detail = table[name]()
        out.write(f"{'PASS' if ok else 'FAIL'} {name} {detail}\n")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
