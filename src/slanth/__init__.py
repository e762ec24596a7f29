"""Exact finite sections of slant, flip, and shuffle Toeplitz-type operators
on the analytic sequence space, with predicate checkers, identity verifiers,
and a batch CLI.

The package re-exports the public names (`__all__`) of each library module;
`slanth.verify` and `slanth.cli` are imported by name.
"""

from . import analysis, expr, families, structure, symbol, windowed
from .analysis import *
from .expr import *
from .families import *
from .structure import *
from .symbol import *
from .windowed import *

__all__ = [name for module in (analysis, expr, families, structure, symbol, windowed) for name in module.__all__]

__version__ = "0.1.0"
