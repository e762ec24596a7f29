"""Correctness gate, independent of the code under test.

Every check here re-derives the expected output with numpy from the seeded
coefficients: the slant-h degree map a_{2i-n} (column j = 2n) and
a_{2i+n+1} (column j = 2n+1), the symbol's values on the circle grid, and
the spectral norm of the section. Dumps and reports are parsed here too;
nothing from slanth is imported.
"""

import math
import os

import numpy as np

from workloads import VERIFY_SUITES

SECTION_TOL = 1e-13  # oracle and closed form must agree to this
REPORT_TOL = 1e-12  # the CLI's default --tol
NORM_GRID = 4096  # the CLI's default --grid


def slant_h_map(coeffs: dict, rows, cols) -> np.ndarray:
    """Slant-h section of the symbol on absolute windows (lo, hi), hi inclusive."""
    i = np.arange(rows[0], rows[1] + 1)[:, None]
    j = np.arange(cols[0], cols[1] + 1)[None, :]
    n = j // 2
    degree = np.where(j % 2 == 0, 2 * i - n, 2 * i + n + 1)
    lo, hi = min(coeffs), max(coeffs)
    table = np.array([coeffs.get(d, 0j) for d in range(lo, hi + 1)], dtype=complex)
    inside = (degree >= lo) & (degree <= hi)
    return np.where(inside, table[np.clip(degree - lo, 0, hi - lo)], 0j)


def read_dump(path: str):
    """Parse a matrix dump: ((rows lo, hi), (cols lo, hi), complex array)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    tag_r, *rows = lines[0].split()
    tag_c, *cols = lines[1].split()
    if (tag_r, tag_c) != ("rows", "cols"):
        raise ValueError("dump headers are not 'rows lo hi' / 'cols lo hi'")
    rows, cols = (int(rows[0]), int(rows[1])), (int(cols[0]), int(cols[1]))
    n_rows, n_cols = rows[1] - rows[0] + 1, cols[1] - cols[0] + 1
    body = lines[2:]
    if len(body) != max(n_rows, 0):
        raise ValueError(f"dump has {len(body)} data lines for {n_rows} rows")
    data = np.empty((len(body), n_cols), dtype=complex)
    for r, line in enumerate(body):
        parts = np.array(line.replace(":", " ").split(), dtype=np.float64)
        if parts.size != 2 * n_cols:
            raise ValueError(f"dump row {r} has {parts.size // 2} entries for {n_cols} columns")
        data[r] = parts[0::2] + 1j * parts[1::2]
    return rows, cols, data


def _check_section(expect: dict, workdir: str):
    rows, cols, data = read_dump(os.path.join(workdir, expect["path"]))
    if cols != tuple(expect["cols"]):
        return f"section columns {cols} != {expect['cols']}"
    if expect["rows"] is not None and rows != tuple(expect["rows"]):
        return f"section rows {rows} != {expect['rows']}"
    if rows[1] < rows[0]:
        return "section has no rows"
    deviation = float(np.max(np.abs(data - slant_h_map(expect["coeffs"], rows, cols))))
    if deviation > SECTION_TOL:
        return f"section deviates from the slant-h map by {deviation!r}"
    if expect["rows"] is None:
        # an oracle dump must hold every nonzero row: the closed form on the
        # analytic rows it reaches is zero beyond the dumped window
        # (every degree in rows past `reach` exceeds the support)
        reach = (max(expect["coeffs"]) + cols[1] // 2) // 2 + 1
        beyond = slant_h_map(expect["coeffs"], (rows[1] + 1, max(rows[1], reach)), cols)
        if rows[0] > 0:
            beyond = np.vstack([beyond, slant_h_map(expect["coeffs"], (0, rows[0] - 1), cols)])
        if np.any(beyond != 0):
            return "oracle dump misses nonzero rows of the closed form"
    return None


def _report_lines(stdout: str, verdict: str):
    lines = stdout.splitlines()
    if len(lines) < 2 or lines[0] != "#fmt 1" or not lines[1].startswith(f"{verdict} max_residual="):
        return None, f"expected a {verdict} report, got {stdout[:120]!r}"
    return lines, None


def _check_pass(stdout: str):
    lines, problem = _report_lines(stdout, "PASS")
    if problem:
        return problem
    if len(lines) != 2 or "vacuous=1" in lines[1]:
        return f"PASS report is vacuous or lists witnesses: {stdout[:120]!r}"
    residual = float(lines[1].split("=", 1)[1])
    if not residual <= REPORT_TOL:
        return f"PASS report with max_residual {residual!r}"
    return None


def _check_fail(expect: dict, stdout: str):
    lines, problem = _report_lines(stdout, "FAIL")
    if problem:
        return problem
    entry = tuple(expect["entry"])
    for witness in lines[2:]:
        indices = tuple(int(x) for x in witness.split("(", 1)[1].split(")", 1)[0].split(","))
        if entry in (indices[:2], indices[2:4]):
            return None
    return f"no witness names the perturbed entry {entry}"


def _check_symbol(expect: dict, workdir: str):
    with open(os.path.join(workdir, expect["path"]), "r", encoding="utf-8") as handle:
        text = handle.read()
    got = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        n, re_text, im_text = line.split()
        got[int(n)] = complex(float(re_text), float(im_text))
    if got != expect["coeffs"]:
        return "extracted symbol differs from the generated one"
    return None


def _check_norm(expect: dict, stdout: str):
    lines = stdout.splitlines()
    if len(lines) != 4 or not lines[3].startswith("PASS "):
        return f"expected a passing norm report, got {stdout[:160]!r}"
    section = float(lines[1].removeprefix("# section_norm="))
    sup = float(lines[2].removeprefix("# sup_norm="))
    coeffs = expect["coeffs"]
    z = np.exp(2j * np.pi * np.arange(NORM_GRID) / NORM_GRID)
    values = sum(a * z**n for n, a in coeffs.items())
    want_sup = float(np.max(np.abs(values)))
    if abs(sup - want_sup) > 1e-12 * want_sup:
        return f"sup_norm {sup!r} != grid maximum {want_sup!r}"
    a = slant_h_map(coeffs, expect["rows"], expect["cols"])
    true_norm = math.sqrt(float(np.max(np.linalg.eigvalsh(a @ a.conj().T))))
    # power iteration from the all-ones vector never falls below its first step
    ones = np.ones(a.shape[1]) / math.sqrt(a.shape[1])
    floor = math.sqrt(float(np.linalg.norm(a.conj().T @ (a @ ones))))
    if not floor * (1 - 1e-9) <= section <= true_norm * (1 + 1e-9):
        return f"section_norm {section!r} outside [{floor!r}, {true_norm!r}]"
    return None


def _check_verify(stdout: str):
    lines = stdout.splitlines()
    names = [line.split()[1] if len(line.split()) > 1 else "" for line in lines]
    if names != list(VERIFY_SUITES) or not all(line.startswith("PASS ") for line in lines):
        return f"verify output is not one PASS line per suite: {stdout[:200]!r}"
    return None


def check(command, exit_code: int, stdout: str, workdir: str):
    """None if the command's exit code and outputs are right, else the problem."""
    if exit_code != command.exit_code:
        return f"exit code {exit_code}, expected {command.exit_code}"
    expect = command.expect
    try:
        kind = expect["gate"]
        if kind == "section":
            return _check_section(expect, workdir)
        if kind == "pass":
            return _check_pass(stdout)
        if kind == "fail":
            return _check_fail(expect, stdout)
        if kind == "symbol":
            return _check_symbol(expect, workdir)
        if kind == "norm":
            return _check_norm(expect, stdout)
        if kind == "verify":
            return _check_verify(stdout)
        return f"unknown gate {kind!r}"
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
