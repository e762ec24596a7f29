"""Batch command line front end.

Commands: build (family or expression to a matrix dump), check (predicate on
a matrix file or expression), extract (matrix file to symbol file), verify
(named verification suites), norm (section norm against the symbol sup norm).

Exit codes: 0 pass, 1 check failed, 2 usage or parse error, 3 window or
exactness error. Identical inputs produce byte-identical outputs.
"""

import argparse
import os
import sys

from . import verify as verify_mod
from .analysis import norm_bound_check
from .expr import eval_expr, parse_expr
from .families import COMPOSITIONAL_KINDS, build_family, extension
from .structure import (
    check_characterization,
    check_extension_conditions,
    check_slant_h_matrix,
    check_slant_hankel_matrix,
    check_slant_toeplitz_matrix,
    extract_symbol,
)
from .symbol import (
    SymbolParseError,
    dump_symbol_file,
    load_symbol_file,
    parse_symbol,
    sup_norm,
)
from .windowed import IndexWindow, WindowError, dump_matrix, load_matrix

_FAMILIES = {kind.name: kind for kind in COMPOSITIONAL_KINDS}

_PREDICATES = ("slant-h", "slant-toeplitz", "slant-hankel", "characterization", "extension")


def _parse_window(text: str) -> IndexWindow:
    head, sep, tail = text.partition(":")
    if not sep:
        raise SymbolParseError(f"window {text!r} must be lo:hi")
    try:
        return IndexWindow(int(head), int(tail))
    except ValueError:
        raise SymbolParseError(f"window {text!r} must be lo:hi with integers") from None


def _load_symbol_value(value: str):
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as handle:
            return load_symbol_file(handle.read())
    return parse_symbol(value)


def _symbol_table(pairs) -> dict:
    table = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SymbolParseError(f"--symbol expects name=<file|inline>, got {item!r}")
        if name in table:
            raise SymbolParseError(f"--symbol {name!r} is given more than once")
        table[name] = _load_symbol_value(value)
    return table


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _expr_section(args, symbols):
    if args.window is None:
        raise SymbolParseError("--expr requires --window lo:hi")
    return eval_expr(parse_expr(args.expr), _parse_window(args.window), symbols)


def _matrix_from_args(args, symbols):
    if args.matrix:
        with open(args.matrix, "r", encoding="utf-8") as handle:
            return load_matrix(handle.read())
    if args.expr:
        return _expr_section(args, symbols)
    raise SymbolParseError("supply --matrix FILE or --expr TEXT")


def _cmd_build(args) -> int:
    symbols = _symbol_table(args.symbol)
    if args.family:
        if args.rows is None or args.cols is None:
            raise SymbolParseError("--family requires --rows and --cols")
        if args.family == "extension":
            kind = extension(args.m if args.m is not None else 1)
        else:
            kind = _FAMILIES[args.family]
        if len(symbols) != 1:
            raise SymbolParseError("--family requires exactly one --symbol")
        (phi,) = symbols.values()
        matrix = build_family(kind, phi, _parse_window(args.rows), _parse_window(args.cols))
    elif args.expr:
        matrix = _expr_section(args, symbols)
    else:
        raise SymbolParseError("supply --family NAME or --expr TEXT")
    _write_output(dump_matrix(matrix), args.out)
    return 0


def _cmd_check(args) -> int:
    symbols = _symbol_table(args.symbol)
    matrix = _matrix_from_args(args, symbols)
    tol = args.tol
    if args.predicate == "slant-h":
        report = check_slant_h_matrix(matrix, tol)
    elif args.predicate == "slant-toeplitz":
        report = check_slant_toeplitz_matrix(matrix, tol)
    elif args.predicate == "slant-hankel":
        report = check_slant_hankel_matrix(matrix, tol)
    elif args.predicate == "characterization":
        if args.cols is not None:
            dom = _parse_window(args.cols)
        else:
            dom = IndexWindow(0, max(0, (matrix.cols.hi - 7) // 4))
        report = check_characterization(matrix, dom, tol)
    else:
        depth = args.m if args.m is not None else 1
        report = check_extension_conditions(matrix, depth, tol)
    _write_output("#fmt 1\n" + report.render(), args.out)
    return 0 if report.passed else 1


def _cmd_extract(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as handle:
        matrix = load_matrix(handle.read())
    report = check_slant_h_matrix(matrix, args.tol)
    if not report.passed:
        sys.stdout.write("#fmt 1\n" + report.render())
        return 1
    _write_output(dump_symbol_file(extract_symbol(matrix)), args.out)
    return 0


def _cmd_norm(args) -> int:
    symbols = _symbol_table(args.symbol)
    if len(symbols) != 1:
        raise SymbolParseError("norm requires exactly one --symbol")
    (phi,) = symbols.values()
    rows = _parse_window(args.rows) if args.rows else IndexWindow(0, 32)
    cols = _parse_window(args.cols) if args.cols else IndexWindow(0, 129)
    summary = norm_bound_check(phi, rows, cols, args.grid, args.tol)
    sup = sup_norm(phi, args.grid)
    text = (
        "#fmt 1\n"
        f"# section_norm={summary.value + sup!r}\n"
        f"# sup_norm={sup!r}\n" + summary.render()
    )
    _write_output(text, args.out)
    return 0 if summary.verdict != "fail" else 1


def _cmd_verify(args) -> int:
    names = None if args.all else args.names
    if not names and not args.all:
        raise SymbolParseError("name at least one check or pass --all")
    return verify_mod.run(names)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slanth",
        description="Exact finite sections of slant and h-shuffled Toeplitz type operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, symbol=True, tol=True):
        if symbol:
            p.add_argument("--symbol", action="append", metavar="NAME=VALUE",
                           help="named symbol, inline 'n:coeff,...' or a coefficient file")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, default=1e-12)

    build = sub.add_parser("build", help="build a section and dump it")
    add_common(build, tol=False)
    build.add_argument("--family", choices=sorted([*_FAMILIES, "extension"]))
    build.add_argument("--m", type=int, help="extension depth for --family extension")
    build.add_argument("--rows", metavar="LO:HI")
    build.add_argument("--cols", metavar="LO:HI")
    build.add_argument("--expr", metavar="TEXT")
    build.add_argument("--window", metavar="LO:HI", help="input window for --expr")
    build.set_defaults(func=_cmd_build)

    check = sub.add_parser("check", help="run a predicate and report witnesses")
    check.add_argument("predicate", choices=_PREDICATES)
    add_common(check)
    check.add_argument("--matrix", metavar="FILE")
    check.add_argument("--expr", metavar="TEXT")
    check.add_argument("--window", metavar="LO:HI")
    check.add_argument("--cols", metavar="LO:HI", help="identity domain for characterization")
    check.add_argument("--m", type=int, help="depth for the extension predicate")
    check.set_defaults(func=_cmd_check)

    extract = sub.add_parser("extract", help="read the symbol back from a section file")
    extract.add_argument("--matrix", metavar="FILE", required=True)
    add_common(extract, symbol=False)
    extract.set_defaults(func=_cmd_extract)

    norm = sub.add_parser("norm", help="compare the section norm with the symbol sup norm")
    add_common(norm)
    norm.add_argument("--rows", metavar="LO:HI")
    norm.add_argument("--cols", metavar="LO:HI")
    norm.add_argument("--grid", type=int, default=4096)
    norm.set_defaults(func=_cmd_norm, tol=1e-9)

    verify = sub.add_parser("verify", help="run the named verification suites")
    verify.add_argument("names", nargs="*", metavar="NAME")
    verify.add_argument("--all", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WindowError, MemoryError) as exc:
        sys.stderr.write(f"window error: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:  # parse errors are ValueErrors too
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
