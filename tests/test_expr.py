import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slanth import (
    SLANT_H_TOEPLITZ,
    TOEPLITZ,
    IndexWindow,
    LaurentSymbol,
    WindowError,
    build_compositional,
    build_family,
    eval_expr,
    extension,
    parse_expr,
    parse_symbol,
    print_expr,
    symbol_sub,
)
from slanth.windowed import P, W, WindowedMatrix, build_elementary, compose
from slanth.expr import Atom, Compose, Diff, ExprParseError, Scaled, UnknownSymbolError

GENERIC = parse_symbol("-1:2, 0:3, 1:5, 2:7")
TABLE = {"phi": GENERIC}


class TestParse:
    def test_single_atom(self):
        assert parse_expr("W") == Atom("W")

    def test_chain_of_four(self):
        node = parse_expr("W . P . M(phi) . K")
        assert node == Compose((Atom("W"), Atom("P"), Atom("M", ("phi",)), Atom("K")))

    def test_difference_of_chains(self):
        node = parse_expr("U* . V(phi) . Cz(2) . Mz(2) - V(phi) . Cz(2)")
        assert isinstance(node, Diff) and len(node.terms) == 2
        assert all(isinstance(term, Compose) for term in node.terms)
        assert Compose(node.terms) != node  # the same terms, another class

    def test_parentheses_and_scalar(self):
        node = parse_expr("2.5 W . (K* . K)")
        assert node == Compose((Scaled(2.5, Atom("W")), Compose((Atom("K*"), Atom("K")))))

    def test_negative_integer_argument(self):
        assert parse_expr("S(-2)") == Atom("S", (-2,))

    def test_extension_atom(self):
        assert parse_expr("A(2, phi)") == Atom("A", (2, "phi"))

    @pytest.mark.parametrize(
        "text",
        ["Q", "W(2)", "Cz", "Cz(x)", "(W . K", "W . ", "V()", "A(phi)", "2", "W K"],
    )
    def test_rejects(self, text):
        with pytest.raises(ExprParseError):
            parse_expr(text)

    @pytest.mark.parametrize("text, column", [("1e400 W", 1), ("W . 2e999 K", 5)])
    def test_rejects_non_finite_factor(self, text, column):
        with pytest.raises(ExprParseError, match="is not finite") as info:
            parse_expr(text)
        assert info.value.column == column

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("@", "unexpected character '@'", 1),
            ("W\t@", "unexpected character '@'", 3),
            ("W . é", "unexpected character 'é'", 5),
            ("W . ", "expected an atom name", 5),
            ("2", "expected an atom name", 2),
            ("W . Bogus", "unknown atom 'Bogus'", 5),
            ("W(1)", "W takes no arguments", 2),
            ("S", "S requires arguments", 2),
            ("V . W", "V requires arguments", 3),
            ("S(x)", "expected an integer argument", 3),
            ("S(-x)", "expected an integer argument", 4),
            ("Cz(2.5)", "expected an integer argument", 4),
            ("A(phi)", "expected an integer argument", 3),
            ("M(2)", "expected a symbol name", 3),
            ("A(2, 3)", "expected a symbol name", 6),
            ("A(2 phi)", "expected ','", 5),
            ("(W . K", "unbalanced parentheses", 7),
            ("S(2", "unbalanced parentheses", 4),
            ("S(2,3)", "unbalanced parentheses", 4),
            ("V(phi", "unbalanced parentheses", 6),
            ("W K", "unexpected trailing 'K'", 3),
            ("W)", "unexpected trailing ')'", 2),
            ("(" * 201 + "P" + ")" * 201, "parentheses nested deeper than 200", 201),
            ("W . 2e999 K", "scale factor '2e999' is not finite", 5),
            ("S(\u0663)", "unexpected character '\u0663'", 3),  # an Arabic-Indic three: numbers are ASCII digits
            ("\uff12 W", "unexpected character '\uff12'", 1),  # a fullwidth two
            ("S(99999999999999999999)", "integer argument 99999999999999999999 is past int64", 3),
            ("S(9223372036854775808)", "integer argument 9223372036854775808 is past int64", 3),
            ("Mz(-9223372036854775809)", "integer argument -9223372036854775809 is past int64", 4),
            ("W . Cz(99999999999999999999)", "integer argument 99999999999999999999 is past int64", 8),
            ("A(99999999999999999999,phi)", "integer argument 99999999999999999999 is past int64", 3),
        ],
    )
    def test_error_message_and_column(self, text, message, column):
        with pytest.raises(ExprParseError) as info:
            parse_expr(text)
        assert (str(info.value), info.value.column) == (f"col {column}: {message}", column)

    def test_int64_ends_are_integer_arguments(self):
        assert parse_expr("S(-9223372036854775808)") == Atom("S", (-(2**63),))
        assert parse_expr("Mz(9223372036854775807)") == Atom("Mz", (2**63 - 1,))

    def test_error_carries_column(self):
        with pytest.raises(ExprParseError) as info:
            parse_expr("W . Bogus")
        assert "col 5" in str(info.value)

    def test_nesting_cap(self):
        assert parse_expr("(" * 199 + "P . (W)" + ")" * 199) == Compose((Atom("P"), Atom("W")))  # 200 deep
        # past the cap a parse error at the first parenthesis too many, not a RecursionError
        with pytest.raises(ExprParseError, match="nested deeper than 200") as info:
            parse_expr("(" * 1000 + "P" + ")" * 1000)
        assert info.value.column == 201
        with pytest.raises(ExprParseError) as info:
            parse_expr("P . " + "(P . " * 201 + "P" + ")" * 201)
        assert info.value.column == 5 + 5 * 200


names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True)
small_ints = st.integers(-5, 5)
atoms = st.one_of(
    st.sampled_from(["W", "W*", "K", "K*", "J", "P", "U", "U*"]).map(Atom),
    st.builds(lambda name, k: Atom(name, (k,)), st.sampled_from(["S", "Cz", "Mz"]), small_ints),
    st.builds(lambda name, sym: Atom(name, (sym,)), st.sampled_from(["M", "T", "H", "B", "L", "Sh", "V", "V*"]), names),
    st.builds(lambda m, sym: Atom("A", (m, sym)), small_ints, names),
)
# factors print as repr and carry no sign; exponents and 0.0 included
factors = st.one_of(st.sampled_from([0.0, 1e-300, 2.5e16, 5e-324]), st.floats(min_value=0.0, allow_infinity=False))
terms = st.one_of(atoms, st.builds(Scaled, factors, atoms))
ast_nodes = st.recursive(
    terms,
    lambda inner: st.builds(Compose, st.lists(inner, min_size=2, max_size=4).map(tuple))
    | st.builds(Diff, st.lists(inner, min_size=2, max_size=4).map(tuple)),
    max_leaves=8,
)


class TestPrintRoundtrip:
    def test_hand_cases(self):
        for text in [
            "W",
            "W . P . M(phi) . K",
            "U* . V(phi) . Cz(2) . Mz(2) - V(phi) . Cz(2)",
            "2.5 W . (K* . K)",
            "A(1,phi) - A(2,phi) - V(phi)",
            "(W . P) . K",
            "(W - P) - K",
            "W - (P - K) . U",
        ]:
            node = parse_expr(text)
            assert parse_expr(print_expr(node)) == node

    @settings(deadline=None, max_examples=300)
    @given(ast_nodes)
    def test_random_asts(self, node):
        assert parse_expr(print_expr(node)) == node


class TestEval:
    def test_split_inverse_identity(self):
        got = eval_expr(parse_expr("K* . K"), IndexWindow(0, 7), {})
        assert got.rows == IndexWindow(0, 7)
        assert np.array_equal(got.data, np.eye(8))

    def test_chain_matches_compositional_builder(self):
        window = IndexWindow(0, 9)
        got = eval_expr(parse_expr("W . P . M(phi) . K"), window, TABLE)
        want = build_compositional(SLANT_H_TOEPLITZ, GENERIC, window)
        assert got.rows == want.rows and got.cols == want.cols
        assert np.array_equal(got.data, want.data)

    def test_family_atom_matches_family_builder(self):
        window = IndexWindow(0, 9)
        got = eval_expr(parse_expr("V(phi)"), window, TABLE)
        want = build_family(SLANT_H_TOEPLITZ, GENERIC, got.rows, window)
        assert np.array_equal(got.data, want.data)

    def test_self_difference_vanishes(self):
        got = eval_expr(parse_expr("V(phi) - V(phi)"), IndexWindow(0, 9), TABLE)
        assert not np.any(got.data)

    def test_shift_identity_difference_vanishes(self):
        text = "U* . V(phi) . Cz(2) . Mz(2) - V(phi) . Cz(2)"
        got = eval_expr(parse_expr(text), IndexWindow(0, 5), TABLE)
        assert got.data.size > 0
        assert np.max(np.abs(got.data)) == 0.0

    def test_extension_atom(self):
        got = eval_expr(parse_expr("A(2, phi)"), IndexWindow(0, 6), TABLE)
        want = build_compositional(extension(2), GENERIC, IndexWindow(0, 6))
        assert got.rows == want.rows
        assert np.array_equal(got.data, want.data)

    def test_scalar(self):
        window = IndexWindow(0, 9)
        scaled = eval_expr(parse_expr("2 V(phi)"), window, TABLE)
        plain = eval_expr(parse_expr("V(phi)"), window, TABLE)
        assert np.array_equal(scaled.data, 2 * plain.data)

    def test_unresolved_symbol(self):
        with pytest.raises(UnknownSymbolError):
            eval_expr(parse_expr("V(psi)"), IndexWindow(0, 4), TABLE)

    def test_subtraction_window_mismatch(self):
        # W lands on rows 0:2 and P on rows 0:4; both are zero-embedded on the hull
        window = IndexWindow(0, 4)
        got = eval_expr(parse_expr("W - P"), window, {})
        w = build_elementary(W, window).embed(IndexWindow(0, 4), window)
        p = build_elementary(P, window)
        assert got.rows == IndexWindow(0, 4) and got.cols == window
        assert np.array_equal(got.data, w.data - p.data)

    def test_subtraction_on_disjoint_row_windows(self):
        a, b = parse_symbol("0:1"), parse_symbol("3:1")
        window = IndexWindow(0, 3)
        got = eval_expr(parse_expr("T(a) - T(b)"), window, {"a": a, "b": b})
        want = build_compositional(TOEPLITZ, symbol_sub(a, b), window)
        assert got.rows == want.rows == IndexWindow(0, 6) and got.cols == want.cols
        assert got.data.tobytes() == want.data.tobytes()

    def test_negative_depth_is_the_error_before_an_unknown_name(self):
        with pytest.raises(ValueError, match="extension depth must be >= 0"):
            eval_expr(parse_expr("A(-1, chi)"), IndexWindow(0, 4), TABLE)

    def test_composition_power_must_be_positive(self):
        with pytest.raises(ValueError):
            eval_expr(parse_expr("Cz(0)"), IndexWindow(0, 4), {})

    def test_analytic_guard_propagates(self):
        with pytest.raises(WindowError):
            eval_expr(parse_expr("J"), IndexWindow(-2, 3), {})


@np.errstate(over="ignore", invalid="ignore")
def reference_eval(node, window, symbols):
    """The recursive evaluator the flat folds replaced: a chain or a difference is its head and its last term.

    Its difference subtracts the operands' cells, zero-embedded on the hull of
    their rows, as that evaluator did; atoms are left to `eval_expr`.
    """
    if not isinstance(node, (Compose, Diff)):
        return eval_expr(node, window, symbols)
    *head, last = node.terms
    head = head[0] if len(head) == 1 else type(node)(tuple(head))
    if isinstance(node, Diff):
        left = reference_eval(head, window, symbols)
        right = reference_eval(last, window, symbols)
        rows = left.rows.hull(right.rows)
        return WindowedMatrix(rows, window, left.embed(rows, window).data - right.embed(rows, window).data)
    right = reference_eval(last, window, symbols)
    return compose(reference_eval(head, right.rows, symbols), right)


# Atoms whose rows stay within their symbol's span of their columns; atoms that
# double them (V*, K*, W*, Cz) would outgrow memory in a chain of 50. An
# unknown symbol, a negative depth and a family atom on rows below 0 (which M
# and A leave) raise, and 1e300 overflows, so exceptions and non-finite
# entries are compared too. Terms are drawn from one list: drawing each from
# its own strategy takes several times as long.
REF_ATOMS = [
    *(Atom(name, (sym,)) for name in ["M", "T", "H", "B", "L", "Sh", "V"] for sym in ["phi", "psi"]),
    *(Atom("A", (depth, "phi")) for depth in range(4)),
    *map(Atom, ["P", "W", "U*"]),
    Atom("S", (2,)),
]
REF_TERMS = [*REF_ATOMS, *(Scaled(f, a) for f in (0.0, 2.5, 1e300) for a in REF_ATOMS[::3])]
ref_symbols = st.dictionaries(
    st.integers(-1, 4), st.builds(complex, st.sampled_from([0.5, -1.0, 3.0, 1e300]), st.sampled_from([0.0, -2.0])),
    min_size=1, max_size=4,
).map(LaurentSymbol)


@st.composite
def ref_nodes(draw):
    """1 to 50 terms, cut into chains and differences nested up to 3 parentheses deep."""
    size = draw(st.integers(1, 50))
    terms = draw(st.lists(st.sampled_from(REF_TERMS), min_size=size, max_size=size))
    if draw(st.integers(0, 7)) == 0:  # one term that raises
        terms[draw(st.integers(0, size - 1))] = draw(st.sampled_from([Atom("V", ("chi",)), Atom("A", (-1, "phi"))]))

    def group(items, level):
        if len(items) == 1:
            return items[0]
        kind = draw(st.sampled_from([Compose, Diff]))
        if level == 3:
            return kind(tuple(items))
        cuts = sorted(draw(st.sets(st.integers(1, len(items) - 1), min_size=1, max_size=5)))
        return kind(tuple(group(items[a:b], level + 1) for a, b in zip([0, *cuts], [*cuts, len(items)])))

    return group(terms, 0)


@settings(deadline=None, max_examples=500)
@given(ref_nodes(), st.integers(0, 3), st.integers(0, 8), ref_symbols, ref_symbols)
def test_flat_folds_match_recursive_reference(node, lo, size, phi, psi):
    window, table = IndexWindow(lo, lo + size), {"phi": phi, "psi": psi}
    try:
        want = reference_eval(node, window, table)
    except ValueError as exc:  # UnknownSymbolError and WindowError are ValueErrors
        with pytest.raises(type(exc)) as info:
            eval_expr(node, window, table)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = eval_expr(node, window, table)
    assert got.rows == want.rows and got.cols == want.cols
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


# 65 terms each: on 0:256, M(phi) . M(psi) meets 11 products an output entry on average
WIDE_PHI = LaurentSymbol({n: complex((n * 37 % 101) / 17, (n * 53 % 89) / -13) for n in range(-32, 33)})
WIDE_PSI = LaurentSymbol({n: complex((n * 29 % 97) / 11, (n * 61 % 83) / 7) for n in range(-32, 33)})
WINDOW_ATOMS = [
    *map(Atom, ["P", "W", "U*"]),
    *(Atom("S", (k,)) for k in (-3, 2)),
    *(Atom(name, (sym,)) for name in ["M", "T", "V", "B"] for sym in ["phi", "psi"]),
]
# small symbols, and wide ones whose products on a narrow window meet many times on each entry
window_symbols = st.one_of(
    ref_symbols,
    st.builds(
        lambda lo, coeffs: LaurentSymbol({lo + n: a for n, a in enumerate(coeffs)}),
        st.integers(-24, 4),
        st.lists(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)), min_size=9, max_size=49),
    ),
)


class TestWindowIndependence:
    """An entry of a product depends on the operator alone: a section is the block of any wider one."""

    @staticmethod
    def assert_block(small, large):
        large = large.restrict(small.rows, small.cols)
        assert np.array_equal(large.data.view(np.uint64), small.data.view(np.uint64))

    def test_product_of_wide_symbols(self):
        node, table = parse_expr("M(phi) . M(psi)"), {"phi": WIDE_PHI, "psi": WIDE_PSI}
        small = eval_expr(node, IndexWindow(0, 256), table)
        assert small.rows == IndexWindow(-64, 320)
        self.assert_block(small, eval_expr(node, IndexWindow(0, 1023), table))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.sampled_from(WINDOW_ATOMS), min_size=1, max_size=4), st.integers(0, 12), st.integers(0, 48),
           window_symbols, window_symbols)
    def test_nested_windows(self, atoms, n, more, phi, psi):
        node, table = Compose(tuple(atoms)) if len(atoms) > 1 else atoms[0], {"phi": phi, "psi": psi}
        try:
            large = eval_expr(node, IndexWindow(0, n + more), table)
        except WindowError:
            return
        self.assert_block(eval_expr(node, IndexWindow(0, n), table), large)
