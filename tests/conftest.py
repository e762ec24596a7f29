import random

import numpy as np
import pytest

from slanth import LaurentSymbol


def random_symbol(rng: random.Random, span: int = 6, density: float = 0.7) -> LaurentSymbol:
    """Seeded random symbol with support inside [-span, span]."""
    coeffs = {}
    for n in range(-span, span + 1):
        if rng.random() < density:
            coeffs[n] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    return LaurentSymbol(coeffs)


def gaussian_symbol(rng: random.Random, degrees) -> LaurentSymbol:
    """Seeded symbol of one to five terms on `degrees`, with Gaussian-integer coefficients, so every sum is exact."""
    picked = rng.sample(degrees, rng.randint(1, min(5, len(degrees))))
    return LaurentSymbol({n: complex(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3)) for n in picked})


def eval_on_grid(phi: LaurentSymbol, grid_size: int) -> np.ndarray:
    """Independent pointwise evaluation of the symbol on the circle grid."""
    z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    total = np.zeros(grid_size, dtype=complex)
    for n, a in phi.items():
        total = total + a * z**n
    return total


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
