"""Small operator-expression language for composing sections.

Grammar (whitespace-insensitive; composition binds tighter than subtraction):

    expr   := chain ('-' chain)*
    chain  := term ('.' term)*
    term   := NUMBER? atom | '(' expr ')'
    atom   := NAME [ '(' args ')' ]

Atoms: W W* K K* J P U U* S(k) Cz(k) Mz(k) M(name) T(name) H(name) B(name)
L(name) Sh(name) V(name) V*(name) A(m,name). Names refer to symbols supplied
in the evaluation table. Evaluation propagates windows from the user-supplied
input window through the rightmost atom leftwards, refusing any composition
that would lose exactness. Every operand has the input window as its columns
and holds every nonzero row of them, so subtraction zero-embeds both operands
on the hull of their row windows.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .families import COMPOSITIONAL_KINDS, build_compositional, build_extension_natural
from .windowed import (
    Elementary,
    IndexWindow,
    WindowedMatrix,
    WindowError,
    _dense,
    _images,
    _product,
    _scaled,
    mult,
)

__all__ = [
    "Atom",
    "Compose",
    "Diff",
    "ExprParseError",
    "Scaled",
    "UnknownSymbolError",
    "eval_expr",
    "parse_expr",
    "print_expr",
]


class ExprParseError(ValueError):
    """Expression syntax error; carries the 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"col {column}: {message}")
        self.column = column


class UnknownSymbolError(ValueError):
    """A named symbol was not supplied in the evaluation table."""


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Scaled:
    factor: float
    node: Atom


@dataclass(frozen=True)
class Compose:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


_FAMILY_ATOMS = {kind.atom: kind for kind in COMPOSITIONAL_KINDS}
# elementary atoms are named like their `Elementary`, integer argument as power
_BARE = frozenset({"W", "W*", "K", "K*", "J", "P", "U", "U*"})
_INT_ARG = frozenset({"S", "Cz", "Mz"})
_NAME_ARG = frozenset({"M"} | set(_FAMILY_ATOMS))
_EXTENSION = "A"
_ATOMS = _BARE | _INT_ARG | _NAME_ARG | {_EXTENSION}

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*\*?)"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<punct>[().,\-]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            column = len(text) - len(stripped) + 1
            raise ExprParseError(f"unexpected character {stripped[0]!r}", column)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_punct(self, value: str):
        kind, text, column = self.peek()
        if kind != "punct" or text != value:
            raise ExprParseError(f"expected {value!r}", column)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, column = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected trailing {text!r}", column)
        return node

    def expr(self):
        node = self.chain()
        while self.peek()[:2] == ("punct", "-"):
            self.advance()
            node = Diff(node, self.chain())
        return node

    def chain(self):
        node = self.term()
        while self.peek()[:2] == ("punct", "."):
            self.advance()
            node = Compose(node, self.term())
        return node

    def term(self):
        kind, text, column = self.peek()
        if kind == "punct" and text == "(":
            self.advance()
            node = self.expr()
            kind, text, column = self.peek()
            if kind != "punct" or text != ")":
                raise ExprParseError("unbalanced parentheses", column)
            self.advance()
            return node
        if kind == "number":
            self.advance()
            if not math.isfinite(float(text)):
                raise ExprParseError(f"scale factor {text!r} is not finite", column)
            return Scaled(float(text), self.atom())
        return self.atom()

    def atom(self):
        kind, text, column = self.advance()
        if kind != "name":
            raise ExprParseError("expected an atom name", column)
        if text not in _ATOMS:
            raise ExprParseError(f"unknown atom {text!r}", column)
        args = ()
        has_args = self.peek()[:2] == ("punct", "(")
        if text in _BARE:
            if has_args:
                raise ExprParseError(f"{text} takes no arguments", self.peek()[2])
            return Atom(text)
        if not has_args:
            raise ExprParseError(f"{text} requires arguments", self.peek()[2])
        self.advance()
        if text in _INT_ARG:
            args = (self.int_arg(),)
        elif text in _NAME_ARG:
            args = (self.name_arg(),)
        else:
            depth = self.int_arg()
            self.expect_punct(",")
            args = (depth, self.name_arg())
        kind, tail, column = self.peek()
        if kind != "punct" or tail != ")":
            raise ExprParseError("unbalanced parentheses", column)
        self.advance()
        return Atom(text, args)

    def int_arg(self) -> int:
        negative = False
        if self.peek()[:2] == ("punct", "-"):
            self.advance()
            negative = True
        kind, text, column = self.advance()
        if kind != "number" or not re.fullmatch(r"\d+", text):
            raise ExprParseError("expected an integer argument", column)
        value = int(text)
        return -value if negative else value

    def name_arg(self) -> str:
        kind, text, column = self.advance()
        if kind != "name":
            raise ExprParseError("expected a symbol name", column)
        return text


def parse_expr(text: str):
    """Parse expression text to an AST; raises ExprParseError with a column."""
    return _Parser(text).parse()


def print_expr(node) -> str:
    """Canonical text for an AST; parse_expr(print_expr(n)) == n."""
    if isinstance(node, Atom):
        if not node.args:
            return node.name
        return f"{node.name}({','.join(str(a) for a in node.args)})"
    if isinstance(node, Scaled):
        return f"{node.factor!r} {print_expr(node.node)}"
    if isinstance(node, Compose):
        left = print_expr(node.left)
        right = print_expr(node.right)
        if isinstance(node.left, Diff):
            left = f"({left})"
        # parsing is left-associative, so right-nested children need parens
        if isinstance(node.right, (Diff, Compose)):
            right = f"({right})"
        return f"{left} . {right}"
    if isinstance(node, Diff):
        left = print_expr(node.left)
        right = print_expr(node.right)
        if isinstance(node.right, Diff):
            right = f"({right})"
        return f"{left} - {right}"
    raise TypeError(f"not an expression node: {node!r}")


def _resolve(symbols: dict, name: str):
    if name not in symbols:
        raise UnknownSymbolError(f"symbol {name!r} is not defined")
    return symbols[name]


def eval_expr(node, window: IndexWindow, symbols: dict) -> WindowedMatrix:
    """Exact section of the expression, windows propagated from `window`."""
    return _dense(_eval(node, window, symbols))


@np.errstate(over="ignore", invalid="ignore")  # inf - inf is left to the checks, as in _product
def _eval(node, window: IndexWindow, symbols: dict):
    """`eval_expr` before the final densify: chains of elementaries are triplets, all else dense."""
    if isinstance(node, Diff):
        left = eval_expr(node.left, window, symbols)
        right = eval_expr(node.right, window, symbols)
        rows = left.rows.hull(right.rows)
        return WindowedMatrix._of(rows, window, left.embed(rows, window).data - right.embed(rows, window).data)
    if isinstance(node, Compose):
        right = _eval(node.right, window, symbols)
        left = _eval(node.left, right.rows, symbols)
        return _product(left, right)
    if isinstance(node, Scaled):
        return _scaled(_eval(node.node, window, symbols), node.factor)
    if isinstance(node, Atom):
        if node.name == "M":
            return _images(mult(_resolve(symbols, node.args[0])), window)
        if node.name in _FAMILY_ATOMS:
            return build_compositional(_FAMILY_ATOMS[node.name], _resolve(symbols, node.args[0]), window)
        if node.name == _EXTENSION:
            depth, name = node.args
            if depth < 0:
                raise WindowError("extension depth must be >= 0")
            return build_extension_natural(depth, _resolve(symbols, name), window)
        return _images(Elementary(node.name, *node.args), window)
    raise TypeError(f"not an expression node: {node!r}")
