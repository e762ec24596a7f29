"""Seeded inputs and CLI command sequences of the benchmark workloads.

A workload turns a `random.Random` into one pass: a list of `Command`s, each
the arguments of one `python -m slanth` call, the exit code a correct program
returns, and what the correctness gate (gate.py) checks in its output. The
same pass runs as CLI children (run.py) and in process (replay.py).

This module uses the standard library only, so the in-process replay can
import it before it imports numpy or slanth.
"""

import math
import os
from dataclasses import dataclass, field

# Windows are "lo:hi" with hi inclusive, as the CLI takes them.
DESK_ROWS, DESK_COLS = (0, 8), (0, 33)
LARGE_ROWS, LARGE_COLS = (0, 512), (0, 2049)
ORACLE_COLS = (0, 2048)
SMOKE_ROWS, SMOKE_COLS, SMOKE_ORACLE_COLS = (0, 16), (0, 65), (0, 64)

ORACLE_CHAIN = "W . P . M(phi) . K"
VERIFY_SUITES = (
    "oracle",
    "golden",
    "roundtrip",
    "predicates",
    "interleaving",
    "coisometry",
    "negatives",
    "perp",
    "norm-bound",
    "extension",
)
KINDS = ("build", "check", "extract", "norm", "verify")


@dataclass(frozen=True)
class Command:
    """One CLI call of a pass.

    `expect` names the gate check and its inputs; `perturb` is
    (source, target, row, col, delta): before the call, target is written as
    a copy of the source dump with that one entry shifted by delta.
    """

    kind: str
    argv: tuple
    exit_code: int
    expect: dict = field(default_factory=dict)
    perturb: tuple | None = None


def window_text(window) -> str:
    return f"{window[0]}:{window[1]}"


def random_symbol(rng, lo: int, hi: int) -> dict:
    """Coefficients on every degree lo..hi, uniform in the square [-3, 3]^2."""
    return {n: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for n in range(lo, hi + 1)}


def symbol_text(coeffs: dict) -> str:
    """Inline `n:re+imi` symbol text; repr floats read back exactly."""

    def one(c: complex) -> str:
        sign = "-" if math.copysign(1.0, c.imag) < 0 else "+"
        return f"{c.real!r}{sign}{abs(c.imag)!r}i"

    return ", ".join(f"{n}:{one(c)}" for n, c in sorted(coeffs.items()))


def _slant_h_chain(name: str, coeffs: dict, rows, cols) -> list:
    """build -> check slant-h -> check characterization -> extract on one symbol."""
    symbol = f"phi={symbol_text(coeffs)}"
    matrix, sym = f"{name}.mat", f"{name}.sym"
    section = {"gate": "section", "path": matrix, "coeffs": coeffs, "rows": rows, "cols": cols}
    return [
        Command(
            "build",
            ("build", "--family", "slant-h-toeplitz", "--symbol", symbol,
             "--rows", window_text(rows), "--cols", window_text(cols), "--out", matrix),
            0,
            section,
        ),
        Command("check", ("check", "slant-h", "--matrix", matrix), 0, {"gate": "pass"}),
        Command("check", ("check", "characterization", "--matrix", matrix), 0, {"gate": "pass"}),
        Command(
            "extract",
            ("extract", "--matrix", matrix, "--out", sym),
            0,
            {"gate": "symbol", "path": sym, "coeffs": coeffs},
        ),
    ]


def desk(rng, smoke: bool) -> list:
    """verify --all, then the slant-h chain at 8x33 on three seeded symbols."""
    commands = [Command("verify", ("verify", "--all"), 0, {"gate": "verify"})]
    for k in range(1 if smoke else 3):
        # support inside the degrees an 8x33 section reads back (-16..15)
        lo, hi = rng.randint(-6, 0), rng.randint(1, 7)
        commands += _slant_h_chain(f"desk{k}", random_symbol(rng, lo, hi), DESK_ROWS, DESK_COLS)
    return commands


def closed_form_large(rng, smoke: bool) -> list:
    """The slant-h chain at 512x2049, then a perturbed copy that must fail."""
    rows, cols = (SMOKE_ROWS, SMOKE_COLS) if smoke else (LARGE_ROWS, LARGE_COLS)
    lo = rng.randint(-8, 0)
    coeffs = random_symbol(rng, lo, lo + rng.randint(4, 12))
    commands = _slant_h_chain("large", coeffs, rows, cols)
    # The entry (i, 4q) with q <= i is the far end of the first anchor relation
    # a[i-q, 0] = a[i, 4q], so the pattern predicate constrains it.
    q = rng.randint(1, min(rows[1], cols[1] // 4))
    i = rng.randint(q, rows[1])
    delta = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    commands.append(
        Command(
            "check",
            ("check", "slant-h", "--matrix", "perturbed.mat"),
            1,
            {"gate": "fail", "entry": (i, 4 * q)},
            perturb=("large.mat", "perturbed.mat", i, 4 * q, delta),
        )
    )
    return commands


def oracle_large(rng, smoke: bool) -> list:
    """Oracle build, oracle predicate and section norm on a narrow and a wide symbol."""
    cols = SMOKE_ORACLE_COLS if smoke else ORACLE_COLS
    norm_rows, norm_cols = (SMOKE_ROWS, SMOKE_COLS) if smoke else (LARGE_ROWS, LARGE_COLS)
    commands = []
    for name, span in (("narrow", 4), ("wide", 64)):
        lo = rng.randint(-span // 2, 0)
        coeffs = random_symbol(rng, lo, lo + span)
        symbol = f"phi={symbol_text(coeffs)}"
        matrix = f"{name}.mat"
        commands += [
            Command(
                "build",
                ("build", "--expr", ORACLE_CHAIN, "--symbol", symbol,
                 "--window", window_text(cols), "--out", matrix),
                0,
                {"gate": "section", "path": matrix, "coeffs": coeffs, "rows": None, "cols": cols},
            ),
            Command(
                "check",
                ("check", "slant-h", "--expr", "V(phi)", "--symbol", symbol,
                 "--window", window_text(cols)),
                0,
                {"gate": "pass"},
            ),
            Command(
                "norm",
                ("norm", "--symbol", symbol,
                 "--rows", window_text(norm_rows), "--cols", window_text(norm_cols)),
                0,
                {"gate": "norm", "coeffs": coeffs, "rows": norm_rows, "cols": norm_cols},
            ),
        ]
    return commands


WORKLOADS = {
    "desk": desk,
    "closed-form-large": closed_form_large,
    "oracle-large": oracle_large,
}

# Largest dense array a pass allocates, as (rows, cols) of complex128: the
# section itself, or the C x C Gram matrix a section norm iterates on (on
# desk, the 130-column sections of `verify norm-bound`).
LARGEST_OPERAND = {
    "desk": (130, 130),
    "closed-form-large": (LARGE_ROWS[1] + 1, LARGE_COLS[1] + 1),
    "oracle-large": (LARGE_COLS[1] + 1, LARGE_COLS[1] + 1),
}


def perturb_dump(source: str, target: str, row: int, col: int, delta: complex) -> None:
    """Copy a matrix dump with the entry at absolute (row, col) shifted by delta.

    Any older target is removed first. If the source is not a dump holding
    that entry, this raises ValueError and leaves no target, so the check
    that reads the target fails.
    """
    with open(source, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if os.path.exists(target):
        os.remove(target)
    try:
        k_rows = next(k for k, line in enumerate(lines) if line.startswith("rows "))
        k_cols = next(k for k, line in enumerate(lines) if line.startswith("cols "))
        line_no = max(k_rows, k_cols) + 1 + row - int(lines[k_rows].split()[1])
        cells = lines[line_no].split(" ")
        c = col - int(lines[k_cols].split()[1])
        re_text, im_text = cells[c].split(":")
        value = complex(float(re_text), float(im_text)) + delta
    except (StopIteration, IndexError, ValueError) as exc:
        raise ValueError(f"{source} holds no entry ({row}, {col}): {exc!r}") from None
    cells[c] = f"{value.real!r}:{value.imag!r}"
    lines[line_no] = " ".join(cells)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
