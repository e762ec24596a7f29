"""Exact finite sections of slant, flip, and shuffle Toeplitz-type operators
on the analytic sequence space, with predicate checkers, identity verifiers,
and a batch CLI.
"""

from .analysis import (
    CORPUS,
    coisometry_defect,
    column_norm_floor,
    frobenius_of_section,
    hyponormal_defect,
    min_hyponormal_defect,
    norm_bound_check,
    partial_isometry_identity,
    section_norm,
    self_adjoint_distance,
)
from .expr import eval_expr, parse_expr, print_expr
from .families import (
    COMPOSITIONAL_KINDS,
    HANKEL,
    H_TOEPLITZ,
    SLANT_HANKEL,
    SLANT_H_ADJOINT,
    SLANT_H_TOEPLITZ,
    SLANT_TOEPLITZ,
    TOEPLITZ,
    Family,
    build_compositional,
    build_family,
    extension,
)
from .structure import (
    CheckReport,
    Witness,
    check_characterization,
    check_extension_conditions,
    check_pattern,
    check_slant_h_matrix,
    extract_checked,
    extract_symbol,
)
from .symbol import (
    ONE,
    ZERO,
    LaurentSymbol,
    SymbolParseError,
    coefficient_l2,
    conj_reflect,
    dump_symbol_file,
    load_symbol_file,
    monomial,
    parse_symbol,
    sup_norm,
    symbol_add,
    symbol_product,
    symbol_scale,
    symbol_sub,
)
from .windowed import (
    IndexWindow,
    RowBlocks,
    WindowError,
    WindowedMatrix,
    adjoint,
    build_elementary,
    compose,
    dump_matrix,
    load_matrix,
    row_blocks,
    stream_matrix,
)

__version__ = "0.1.0"
