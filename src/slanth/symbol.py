"""Finitely supported Laurent symbols (trigonometric polynomials) on the circle.

A symbol sum_n a_n z^n is stored sparsely as a map from integer degree to
complex coefficient. Exact zeros are dropped on construction, so the support
bounds are always tight; the zero symbol has empty support. Instances are
immutable and every operation here is a pure function, safe to share across
threads without synchronization.
"""

import cmath
import re

import numpy as np

__all__ = [
    "LaurentSymbol",
    "SymbolParseError",
    "ZERO",
    "ONE",
    "coefficient_l2",
    "conj_reflect",
    "dump_symbol_file",
    "load_symbol_file",
    "monomial",
    "parse_symbol",
    "sup_norm",
    "symbol_add",
    "symbol_product",
    "symbol_scale",
    "symbol_sub",
]


class SymbolParseError(ValueError):
    """Malformed symbol text, a duplicate, non-integer or past-int64 degree, or a non-finite coefficient."""


class LaurentSymbol:
    """Sparse complex Fourier coefficients with tight support bounds."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=None):
        coeffs = {}
        for n, a in (coefficients or {}).items():
            if isinstance(n, bool) or not isinstance(n, int):
                raise SymbolParseError(f"degree {n!r} is not an integer")
            if not -(2**63) <= n < 2**63:  # no section can hold it: numpy's int64 degrees would wrap
                raise SymbolParseError(f"degree {n} is past int64")
            a = complex(a)
            if not cmath.isfinite(a):
                raise SymbolParseError(f"coefficient of degree {n} is not finite")
            if a != 0:
                coeffs[n] = a
        self._coeffs = coeffs

    def coeff(self, n: int) -> complex:
        """Coefficient a_n; zero outside the support."""
        return self._coeffs.get(n, 0j)

    def items(self):
        """Nonzero (degree, coefficient) pairs in ascending degree order."""
        return sorted(self._coeffs.items())

    def items_between(self, lo: int, hi: int):
        """The pairs of `items` with lo <= degree <= hi; only those are sorted."""
        return sorted((n, a) for n, a in self._coeffs.items() if lo <= n <= hi)

    @property
    def support(self):
        """(n_min, n_max) of the nonzero coefficients, or None for zero."""
        if not self._coeffs:
            return None
        return (min(self._coeffs), max(self._coeffs))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __repr__(self):
        body = ", ".join(f"{n}: {a}" for n, a in self.items())
        return f"LaurentSymbol({{{body}}})"


ZERO = LaurentSymbol({})
ONE = LaurentSymbol({0: 1})


def monomial(n: int, value=1) -> LaurentSymbol:
    return LaurentSymbol({n: value})


_BARE_IMAG = re.compile(r"(?<![\d.])j")


def _parse_complex(text: str) -> complex:
    """Parse 're', 'imi', or 're+imi' with 'i' as the imaginary unit."""
    s = text.replace(" ", "")
    if not s:
        raise SymbolParseError(f"empty coefficient in term {text!r}")
    s = _BARE_IMAG.sub("1j", s.replace("i", "j"))
    try:
        return complex(s)
    except ValueError:
        raise SymbolParseError(f"malformed coefficient {text.strip()!r}") from None


def parse_symbol(text: str) -> LaurentSymbol:
    """Parse the inline 'n:coeff, n:coeff, ...' symbol syntax.

    Coefficients may be real ('2', '0.5') or complex ('2+3i', '-i').
    Duplicate degrees are rejected.
    """
    if not text or not text.strip():
        raise SymbolParseError("empty symbol text")
    coeffs = {}
    for raw in text.split(","):
        term = raw.strip()
        if not term:
            raise SymbolParseError("empty term in symbol text")
        head, sep, tail = term.partition(":")
        if not sep:
            raise SymbolParseError(f"missing ':' in term {term!r}")
        try:
            n = int(head.strip())
        except ValueError:
            raise SymbolParseError(f"degree {head.strip()!r} is not an integer") from None
        if n in coeffs:
            raise SymbolParseError(f"duplicate degree {n}")
        coeffs[n] = _parse_complex(tail)
    return LaurentSymbol(coeffs)


def conj_reflect(phi: LaurentSymbol) -> LaurentSymbol:
    """Coefficients of the complex conjugate symbol: result a_n = conj(a_{-n})."""
    return LaurentSymbol({-n: a.conjugate() for n, a in phi.items()})


def symbol_product(phi: LaurentSymbol, psi: LaurentSymbol) -> LaurentSymbol:
    """Convolution product: coefficient at n is sum_k a_k b_{n-k}."""
    out: dict[int, complex] = {}
    for n, a in phi.items():
        for m, b in psi.items():
            out[n + m] = out.get(n + m, 0j) + a * b
    return LaurentSymbol(out)


def symbol_add(phi: LaurentSymbol, psi: LaurentSymbol) -> LaurentSymbol:
    out = dict(phi.items())
    for n, b in psi.items():
        out[n] = out.get(n, 0j) + b
    return LaurentSymbol(out)


def symbol_scale(factor, phi: LaurentSymbol) -> LaurentSymbol:
    return LaurentSymbol({n: factor * a for n, a in phi.items()})


def symbol_sub(phi: LaurentSymbol, psi: LaurentSymbol) -> LaurentSymbol:
    return symbol_add(phi, symbol_scale(-1, psi))


# overflow leaves inf, which the norm reports, and writes nothing to stderr
@np.errstate(over="ignore", invalid="ignore")
def _grid_values(phi: LaurentSymbol, grid_size: int) -> np.ndarray:
    z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    values = np.zeros(grid_size, dtype=complex)
    for n, a in phi.items():
        # z**n drifts off the circle as |n| grows; past the grid, n mod grid_size is the same power
        values += a * z ** (n if -grid_size < n < grid_size else n % grid_size)
    return values


# Most grid points sampled, 16 MB of complex values: a larger grid size is a
# usage error raised before anything is allocated, not numpy's own error.
_MAX_GRID = 2**20


def sup_norm(phi: LaurentSymbol, grid_size: int = 4096) -> float:
    """Max of |phi| over grid_size equispaced circle points.

    A lower bound for the true sup norm, exact in the grid limit and adequate
    for trigonometric polynomials sampled far beyond their degree.
    """
    if not 1 <= grid_size <= _MAX_GRID:
        raise ValueError(f"grid size {grid_size} is not between 1 and {_MAX_GRID}")
    if phi.is_zero:
        return 0.0
    return float(np.max(np.abs(_grid_values(phi, grid_size))))


def coefficient_l2(phi: LaurentSymbol) -> float:
    """Sum of |a_n|^2 over the support."""
    return float(sum(abs(a) ** 2 for _, a in phi.items()))


def dump_symbol_file(phi: LaurentSymbol) -> str:
    """Render the 'n re im' one-coefficient-per-line file format."""
    lines = ["#fmt 1"]
    for n, a in phi.items():
        lines.append(f"{n} {a.real!r} {a.imag!r}")
    return "\n".join(lines) + "\n"


def load_symbol_file(text: str) -> LaurentSymbol:
    """Parse the 'n re im' file format; '#' lines are comments, and a leading byte-order mark is dropped."""
    coeffs: dict[int, complex] = {}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise SymbolParseError(f"line {lineno}: expected 'n re im'")
        try:
            n = int(parts[0])
        except ValueError:
            raise SymbolParseError(f"line {lineno}: degree {parts[0]!r} is not an integer") from None
        try:
            value = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise SymbolParseError(f"line {lineno}: malformed coefficient") from None
        if n in coeffs:
            raise SymbolParseError(f"line {lineno}: duplicate degree {n}")
        coeffs[n] = value
    return LaurentSymbol(coeffs)
