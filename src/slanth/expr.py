"""Small operator-expression language for composing sections.

Grammar (whitespace-insensitive; composition binds tighter than subtraction):

    expr   := chain ('-' chain)*
    chain  := term ('.' term)*
    term   := NUMBER? atom | '(' expr ')'
    atom   := NAME [ '(' args ')' ]
    NUMBER := D+ ('.' D+)? ([eE] [+-]? D+)?, D an ASCII digit 0-9 only

Atoms: W W* K K* J P U U* S(k) Cz(k) Mz(k) M(name) T(name) H(name) B(name)
L(name) Sh(name) V(name) V*(name) A(m,name), each one row of `_ATOMS`, which
the parser and the evaluator read. Names refer to symbols supplied in the
evaluation table. Every family atom, A(m,name) too, is built by its family's
compositional oracle. A chain is one n-ary `Compose` and a difference one
n-ary `Diff`, each a tuple of at least 2 terms folded by one loop, left
associative: ((a . b) . c) and ((a - b) - c); a chain is compose_chain of its
terms, the fold of the library's chains. Only a parenthesised term nests a
node, so evaluation recurses once per parenthesis level. Evaluation
propagates windows from the user-supplied input window through the rightmost
atom leftwards, refusing any composition that would lose exactness. Every
operand has the input window as its columns and holds every nonzero row of
them, so a difference subtracts the operands' triplets on the hull of their
row windows.
"""

import math
import re
from collections import namedtuple
from functools import partial

from .families import COMPOSITIONAL_KINDS, build_compositional, extension
from .windowed import (
    Elementary,
    IndexWindow,
    WindowedMatrix,
    _difference,
    _scaled,
    build_elementary,
    compose_chain,
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


class _Node(tuple):
    """A node equals only a node of its own class: a Compose and a Diff of the same terms differ."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Atom(_Node, namedtuple("Atom", "name args", defaults=((),))):
    __slots__ = ()


class Scaled(_Node, namedtuple("Scaled", "factor node")):
    __slots__ = ()


class Compose(_Node, namedtuple("Compose", "terms")):
    __slots__ = ()


class Diff(_Node, namedtuple("Diff", "terms")):
    __slots__ = ()


def _resolve(symbols: dict, name: str):
    if name not in symbols:
        raise UnknownSymbolError(f"symbol {name!r} is not defined")
    return symbols[name]


def _elementary(name: str):
    return lambda window, symbols, *power: build_elementary(Elementary(name, *power), window)


def _family(kind):
    return lambda window, symbols, name: build_compositional(kind, _resolve(symbols, name), window)


# Each atom's argument kinds, `int` or `str` (a symbol name), and the builder of its section on a window from the
# symbol table and its arguments. An elementary atom is named like its `Elementary`, its integer the power; A checks
# its depth before it resolves its name, so a negative depth is the error even where the name is not defined.
_ATOMS = {
    **{name: ((), _elementary(name)) for name in ("W", "W*", "K", "K*", "J", "P", "U", "U*")},
    **{name: ((int,), _elementary(name)) for name in ("S", "Cz", "Mz")},
    "M": ((str,), lambda window, symbols, name: build_elementary(Elementary("M", 0, _resolve(symbols, name)), window)),
    **{kind.atom: ((str,), _family(kind)) for kind in COMPOSITIONAL_KINDS},
    "A": ((int, str), lambda window, symbols, depth, name: _family(extension(depth))(window, symbols, name)),
}

# every character that is not blank is a token: one of the first three, or `bad`
_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*\*?)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<punct>[().,\-])|(?P<bad>\S))"
)


# Deepest parenthesis nesting parsed: each level takes three parser frames,
# so 200 stay far inside Python's recursion limit.
_MAX_NESTING = 200


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, column = match.lastgroup, match.start(match.lastgroup) + 1
        if kind == "bad":
            raise ExprParseError(f"unexpected character {match[kind]!r}", column)
        tokens.append((kind, match[kind], column))
    return [*tokens, ("end", "", len(text) + 1)]


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.pos, self.depth = _tokenize(text), 0, 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, value: str) -> bool:
        """Consume the next token if it is the punctuation `value`, and say whether it was."""
        taken = self.peek()[:2] == ("punct", value)
        self.pos += taken
        return taken

    def expect_punct(self, value: str, message: str | None = None):
        if not self.accept(value):
            raise ExprParseError(message or f"expected {value!r}", self.peek()[2])

    def parse(self):
        node = self.expr()
        kind, text, column = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected trailing {text!r}", column)
        return node

    def expr(self, separators: str = "-."):
        """Operands joined by the first separator, a Diff at '-' and a Compose at '.', each parsed at the rest."""
        operand = partial(self.expr, separators[1:]) if len(separators) > 1 else self.term
        terms = [operand()]
        while self.accept(separators[0]):
            terms.append(operand())
        return (Diff if separators[0] == "-" else Compose)(tuple(terms)) if len(terms) > 1 else terms[0]

    def term(self):
        kind, text, column = self.peek()
        if self.accept("("):
            if self.depth == _MAX_NESTING:
                raise ExprParseError(f"parentheses nested deeper than {_MAX_NESTING}", column)
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.expect_punct(")", "unbalanced parentheses")
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
        kinds, args, opened = _ATOMS[text][0], [], self.peek()[2]
        if self.accept("(") != bool(kinds):
            raise ExprParseError(f"{text} {'requires' if kinds else 'takes no'} arguments", opened)
        if kinds:
            for arg in kinds:
                if args:
                    self.expect_punct(",")
                args.append(self.int_arg() if arg is int else self.name_arg())
            self.expect_punct(")", "unbalanced parentheses")
        return Atom(text, tuple(args))

    def int_arg(self) -> int:
        start, negative = self.peek()[2], self.accept("-")
        kind, text, column = self.advance()
        if kind != "number" or not re.fullmatch(r"[0-9]+", text):
            raise ExprParseError("expected an integer argument", column)
        value = -int(text) if negative else int(text)
        if not -(2**63) <= value < 2**63:  # numpy's int64 indices would not hold it
            raise ExprParseError(f"integer argument {value} is past int64", start)
        return value

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
    if isinstance(node, (Compose, Diff)):
        # a term keeps its own node only in parentheses: a Diff, or a Compose inside a Compose
        texts = (f"({print_expr(t)})" if isinstance(t, (Diff, type(node))) else print_expr(t) for t in node.terms)
        return (" . " if isinstance(node, Compose) else " - ").join(texts)
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(node, window: IndexWindow, symbols: dict) -> WindowedMatrix:
    """Exact section of the expression, windows propagated from `window`."""
    if isinstance(node, Diff):
        first, *rest = node.terms
        total = eval_expr(first, window, symbols)
        for term in rest:  # ((a - b) - c), each term evaluated when it is reached
            total = _difference(total, eval_expr(term, window, symbols))
        return total
    if isinstance(node, Compose):
        return compose_chain([partial(eval_expr, term, symbols=symbols) for term in node.terms], window)
    if isinstance(node, Scaled):
        return _scaled(eval_expr(node.node, window, symbols), node.factor)
    if isinstance(node, Atom) and node.name in _ATOMS:
        return _ATOMS[node.name][1](window, symbols, *node.args)
    raise TypeError(f"not an expression node: {node!r}")
