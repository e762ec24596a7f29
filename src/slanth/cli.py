"""Batch command line front end.

Commands: build (family or expression to a matrix dump), check (predicate on
a matrix file or expression), extract (matrix file to symbol file), verify
(named verification suites), norm (section norm against the symbol sup norm).

Exit codes: 0 pass, 1 check failed, 2 usage, parse or output error, 3 window
or exactness error. Identical inputs produce byte-identical outputs.
"""

import argparse
import os
import sys

from . import verify as verify_mod
from .analysis import norm_bound_check
from .expr import eval_expr, parse_expr
from .families import COMPOSITIONAL_KINDS, SLANT_H_TOEPLITZ, build_family, extension
from .structure import check_characterization, check_extension_conditions, check_pattern, extract_checked
from .symbol import (
    SymbolParseError,
    dump_symbol_file,
    load_symbol_file,
    parse_symbol,
)
from .windowed import IndexWindow, WindowError, dump_matrix, stream_matrix

_FAMILIES = {kind.name: kind for kind in COMPOSITIONAL_KINDS}

# The pattern predicates, each the pattern of its family: they scan a file's rows as they are read, and the
# identity checks build its cells.
_CHECKS = {"slant-h": SLANT_H_TOEPLITZ, **_FAMILIES}
_PREDICATES = (*_CHECKS, "characterization", "extension")


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


def _stdout():
    if sys.stdout is None:  # file descriptor 1 is closed, or failed to flush
        raise OSError("stdout is closed")
    return sys.stdout


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        _stdout().write(text)


def _expr_section(args, symbols):
    if args.window is None:
        raise SymbolParseError("--expr requires --window lo:hi")
    return eval_expr(parse_expr(args.expr), _parse_window(args.window), symbols)


def _read_matrix(path: str):
    """The section of the matrix file at path, read as bytes."""
    with open(path, "rb") as handle:
        return stream_matrix(handle.read())


def _matrix_from_args(args, symbols):
    if args.matrix:
        return _read_matrix(args.matrix)
    if args.expr:
        return _expr_section(args, symbols)
    raise SymbolParseError("supply --matrix FILE or --expr TEXT")


def _cmd_build(args) -> int:
    symbols = _symbol_table(args.symbol)
    if args.family:
        if args.rows is None or args.cols is None:
            raise SymbolParseError("--family requires --rows and --cols")
        kind = extension(args.m) if args.family == "extension" else _FAMILIES[args.family]
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
    if args.predicate == "extension":
        report = check_extension_conditions(matrix, args.m, args.tol)
    elif args.predicate == "characterization":
        report = check_characterization(matrix, args.tol)
    else:
        report = check_pattern(_CHECKS[args.predicate], matrix, args.tol)
    _write_output("#fmt 1\n" + report.render(), args.out)
    return 0 if report.passed else 1


def _cmd_extract(args) -> int:
    report, phi = extract_checked(_read_matrix(args.matrix), args.tol)
    if not report.passed:
        _stdout().write("#fmt 1\n" + report.render())
        return 1
    _write_output(dump_symbol_file(phi), args.out)
    return 0


def _cmd_norm(args) -> int:
    symbols = _symbol_table(args.symbol)
    if len(symbols) != 1:
        raise SymbolParseError("norm requires exactly one --symbol")
    (phi,) = symbols.values()
    rows = _parse_window(args.rows) if args.rows else IndexWindow(0, 32)
    cols = _parse_window(args.cols) if args.cols else IndexWindow(0, 129)
    section, sup = norm_bound_check(phi, rows, cols, args.grid)
    margin = section - sup
    passed = margin <= args.tol  # a NaN margin fails
    text = (
        f"#fmt 1\n# section_norm={section!r}\n# sup_norm={sup!r}\n"
        f"{'PASS' if passed else 'FAIL'} max_residual={margin!r}"
        f" quantity=section_norm_minus_sup_norm tol={args.tol!r} rows={rows} cols={cols}\n"
    )
    _write_output(text, args.out)
    return 0 if passed else 1


def _cmd_verify(args) -> int:
    if not args.names and not args.all:
        raise SymbolParseError("name at least one check or pass --all")
    # --all runs every suite once each name given is known: run alone, the first unknown name is the error
    names = [name for name in args.names if name not in dict(verify_mod.CHECKS)][:1] if args.all else args.names
    return verify_mod.run(_stdout(), names)


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
    source = build.add_mutually_exclusive_group()
    source.add_argument("--family", choices=sorted([*_FAMILIES, "extension"]))
    build.add_argument("--m", type=int, default=1, help="extension depth for --family extension")
    build.add_argument("--rows", metavar="LO:HI")
    build.add_argument("--cols", metavar="LO:HI")
    source.add_argument("--expr", metavar="TEXT")
    build.add_argument("--window", metavar="LO:HI", help="input window for --expr")
    build.set_defaults(func=_cmd_build)

    check = sub.add_parser("check", help="run a predicate and report witnesses")
    check.add_argument("predicate", choices=_PREDICATES)
    add_common(check)
    source = check.add_mutually_exclusive_group()
    source.add_argument("--matrix", metavar="FILE")
    source.add_argument("--expr", metavar="TEXT")
    check.add_argument("--window", metavar="LO:HI")
    check.add_argument("--m", type=int, default=1, help="depth for the extension predicate")
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
        code = args.func(args)
    except (WindowError, MemoryError) as exc:
        sys.stderr.write(f"window error: {exc}\n")
        code = 3
    # parse errors are ValueErrors too, and integers past int64 (a degree, a power) OverflowErrors
    except (ValueError, OSError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 2
    try:  # what the command wrote, before an error too
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        sys.stdout = None  # as if closed, so that the exit does not write, and report, the bytes left in it again
        if code < 2:  # an output error, unless the command's own error is already reported
            sys.stderr.write(f"error: {exc}\n")
            code = 2
    return code


def run():
    """Entry point: `main`, which flushed stdout, then an exit past finalization (mostly numpy's teardown),
    unless a tracer or profiler (coverage, cProfile, a debugger) needs its exit hooks."""
    code = main()  # a usage error or an uncaught exception never returns here
    monitoring = getattr(sys, "monitoring", None)  # where cProfile and coverage attach from Python 3.12
    if sys.gettrace() or sys.getprofile() or (monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    if sys.stderr:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
