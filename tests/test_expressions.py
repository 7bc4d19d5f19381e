import gc
import math
import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphreg import complexmath as cm
from graphreg import expressions as ex
from graphreg.errors import ExprSyntaxError


def test_parse_basic_shapes():
    assert ex.parse_expression("1/x") == ("/", ex.num(1.0), ex.VAR)
    assert ex.parse_expression("exp(i/x)/x") == (
        "/", ("call", "exp", ("/", ex.I, ex.VAR)), ex.VAR)
    assert ex.parse_expression("x*sqrt(1+sin(x)^2)") == (
        "*", ex.VAR, ("call", "sqrt", ("+", ex.num(1.0),
                                       ("pow", ("call", "sin", ex.VAR), 2))))


def test_any_identifier_is_the_variable():
    assert ex.parse_expression("w/(1+abs(w)^2)") == ex.parse_expression(
        "x/(1+abs(x)^2)")


def test_mixed_variables_rejected():
    with pytest.raises(ExprSyntaxError):
        ex.parse_expression("x + y")


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse_expression("1+*2")
    assert err.value.position == 2


@pytest.mark.parametrize("text, position", [
    ("1" * 400 + "+x", 0),                         # a literal past binary64
    ("2+" + "9" * 200 + "*" + "9" * 200, 202),     # a product folded to inf
    ("x-" + "9" * 308 + "*10", 310),               # the same past the variable
])
def test_non_finite_number_is_refused_where_it_arises(text, position):
    with pytest.raises(ExprSyntaxError, match="not finite") as err:
        ex.parse_expression(text)
    assert err.value.position == position


def test_depth_bound_holds_exactly_at_max_depth():
    k = ex.MAX_DEPTH
    for text in ("(" * k + "x" + ")" * k, "sqrt(" * (k - 1) + "x" + ")" * (k - 1),
                 "+".join(["x"] * k), "-" * (k - 1) + "x"):
        assert ex.depth(ex.parse_expression(text)) <= k
    for text, what in (("(" * (k + 1) + "x" + ")" * (k + 1), "parentheses"),
                       ("+".join(["x"] * (k + 1)), "expression"),
                       ("-" * k + "x", "expression")):
        with pytest.raises(ExprSyntaxError, match=f"{what} nest"):
            ex.parse_expression(text)


def test_depth_counts_levels_without_recursion():
    # far past the interpreter's recursion limit, and shared operands
    # counted once per level
    chain = ex.VAR
    for _ in range(100_000):
        chain = ex.add(chain, ex.ONE)
    assert ex.depth(chain) == 100_001
    t = ex.VAR
    for _ in range(60):
        t = ex.mul(ex.conj(t), t)
    assert ex.depth(t) == 121


@pytest.mark.parametrize("text", [
    "1/x", "exp(i/x)/x", "x*sqrt(1+sin(x)^2)", "(2+3*i)*x", "x^-2",
    "1-x-2", "-x+1", "abs(x)^2/(1+abs(x)^2)", "conj(x)*x", "1/(1-0.99*x)",
    "(2+i)*x", "(2-i)*x", "--x", "0.00001*x",
])
def test_round_trip(text):
    ast = ex.parse_expression(text)
    printed = ex.to_string(ast)
    assert ex.parse_expression(printed) == ast
    assert ex.to_string(ex.parse_expression(printed)) == printed


def _asts(max_depth=4):
    """Random ASTs; every binary node keeps a variable on one side and no
    negation holds a literal, so constant folding cannot rewrite the
    tree."""
    leaf = st.one_of(
        st.just(ex.VAR),
        st.floats(0.0, 9.0).map(lambda v: ex.num(round(v, 3))),
        st.just(ex.I),
        # numbers whose repr has an exponent, which the grammar lacks
        st.sampled_from([0.00001, 5e-324, 1e16, 1e300]).map(ex.num),
    )

    def extend(children):
        var_side = st.just(ex.VAR)
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), var_side, children).map(tuple),
            st.tuples(st.sampled_from("+-*/"), children, var_side).map(tuple),
            st.tuples(children, st.integers(-3, 3)).map(
                lambda p: ("pow", p[0], p[1])),
            st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(
                lambda p: ("call", p[0], p[1])),
            children.filter(lambda c: c[0] != "num").map(lambda c: ("neg", c)),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@given(_asts())
def test_round_trip_random_ast(ast):
    printed = ex.to_string(ast)
    assert ex.to_string(ex.parse_expression(printed)) == printed


def _same_value(a: complex, b: complex) -> bool:
    """Equal parts, NaN matching NaN; == lets a zero part differ in sign."""
    return all(x == y or (x != x and y != y)
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_asts())
def test_printed_ast_reads_back_as_the_same_function(ast):
    points = [-2.0, -0.3, 0.7, 1.9]
    got = ex.evaluate(ex.parse_expression(ex.to_string(ast)), points)
    want = ex.evaluate(ast, points)
    assert all(map(_same_value, got, want)), (ex.to_string(ast), got, want)


def test_negated_power_prints_in_parentheses():
    # unary minus binds tighter than ^, so -x^2 would read as (-x)^2
    ast = ex.parse_expression("-(x^2)")
    assert ex.to_string(ast) == "-(x^2)"
    assert ex.evaluate(ex.parse_expression(ex.to_string(ast)), 2.0) == -4
    assert ex.to_string(ex.parse_expression("(-x)^2")) == "(-x)^2"


def test_evaluate_matches_numpy():
    ast = ex.parse_expression("x*sqrt(1+sin(x)^2)")
    xs = np.linspace(-3, 3, 7)
    expect = xs * np.sqrt(1 + np.sin(xs) ** 2)
    assert np.allclose(ex.evaluate(ast, xs), expect)
    ast2 = ex.parse_expression("exp(i/x)")
    assert abs(abs(complex(ex.evaluate(ast2, 0.37))) - 1.0) < 1e-14


def test_evaluate_division_by_zero_silent():
    vals = ex.evaluate(ex.parse_expression("1/x"), np.array([0.0, 2.0]))
    assert np.isinf(np.abs(vals[0])) or np.isnan(vals[0])
    assert vals[1] == 0.5


def test_abs2_is_real():
    ast = ex.abs2(ex.parse_expression("exp(i/x)*x"))
    vals = ex.evaluate(ast, np.linspace(0.1, 1, 20))
    assert np.abs(vals.imag).max() < 1e-15
    assert np.allclose(vals.real, np.linspace(0.1, 1, 20) ** 2)


# -- the list evaluator against numpy ----------------------------------------------

# a pole, subnormal and tiny arguments, the switch of exp, sin and cos from
# cmath's formulas to glibc's scaled ones near 709, and arguments whose
# squares, products and exponentials overflow
POINTS = [0.0, -0.0, 5e-324, 1e-300, 1e-10, 0.5, -0.75, 1.0, 2.5, -3.0, 40.0,
          700.0, 709.5, -711.0, 1e5, 1.4e154, 1e200, 1e308, -1e308]
CONSTANTS = (1.0, 2.0, 0.5, 3.25, -1.5, 1j, -1j, 2 - 1.5j)
EPS = 2.0 ** -52


def _random_asts(depth=4, ops="+-*/", powers=range(-4, 5), functions=ex.FUNCTIONS):
    """ASTs of depth at most ``depth`` over the whole grammar, or over the
    given binary operators, integer powers and functions."""
    leaf = st.one_of(st.just(ex.VAR), st.sampled_from(CONSTANTS).map(ex.num))
    if depth == 0:
        return leaf
    child = _random_asts(depth - 1, ops, powers, functions)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(ops), child, child),
        st.tuples(st.just("neg"), child),
        st.tuples(st.just("pow"), child, st.sampled_from(powers)),
        st.tuples(st.just("call"), st.sampled_from(functions), child),
    )


def _bits(z):
    """The two parts of z bit for bit, every NaN counted as one."""
    return tuple("nan" if v != v else v.hex() for v in (z.real, z.imag))


def _near(a, b, ulps=4) -> bool:
    """The same NaN and infinity in each part, and the finite parts within
    ``ulps`` ulps of the larger modulus."""
    def kind(v):
        return "nan" if v != v else v if abs(v) == math.inf else "finite"

    parts = ((a.real, b.real), (a.imag, b.imag))
    if [kind(x) for x, _ in parts] != [kind(y) for _, y in parts]:
        return False
    scale = max([abs(v) for pair in parts for v in pair if math.isfinite(v)],
                default=0.0)
    return all(abs(x - y) <= ulps * EPS * scale
               for x, y in parts if math.isfinite(x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_asts(ops="+-/", powers=[-4, -3, -1, 0, 1, 3, 4],
                    functions=("exp", "sin", "cos", "sqrt", "conj")))
def test_list_evaluator_is_numpy_bit_for_bit_without_products(ast):
    # with no complex product, square or modulus, every operation of the
    # list path is numpy's to the last bit, at poles and overflow too
    got = ex.evaluate(ast, POINTS)
    want = ex.evaluate(ast, np.array(POINTS)).tolist()
    assert [_bits(z) for z in got] == [_bits(complex(z)) for z in want]


def _subtrees(ast):
    for operand in ex._operands(ast):
        yield from _subtrees(operand)
    yield ast


def _overflowing_terms(a, b) -> bool:
    """Whether a term of the product a·b of finite numbers overflows:
    numpy's SIMD loop fuses one term into the other's rounding on CPUs
    with FMA, so its part can be ±inf or finite where the separately
    rounded terms give nan or ±inf."""
    parts = (a.real, a.imag, b.real, b.imag)
    return all(map(math.isfinite, parts)) and any(
        abs(u * v) == math.inf
        for u, v in ((a.real, b.real), (a.imag, b.imag),
                     (a.real, b.imag), (a.imag, b.real)))


# the list path's operation and numpy's for each binary operator
BINARY = {"+": (operator.add, np.add), "-": (operator.sub, np.subtract),
          "*": (operator.mul, np.multiply), "/": (cm.div, np.divide)}


def _node_values(node):
    """(operand pairs, list path values, numpy values) of the operation at
    ``node``, both applied to the list path's values of its operands."""
    kind = node[0]
    if kind in BINARY:
        a = ex.evaluate(node[1], POINTS)
        b = ex.evaluate(node[2], POINTS)
        listed, ufunc = BINARY[kind]
        with np.errstate(all="ignore"):
            want = ufunc(np.array(a), np.array(b)).tolist()
        return list(zip(a, b)), list(map(listed, a, b)), want
    # the same operation on the operand's values as the points
    if kind == "call":
        a, op = ex.evaluate(node[2], POINTS), ("call", node[1], ex.VAR)
    else:
        a, op = ex.evaluate(node[1], POINTS), (kind, ex.VAR, *node[2:])
    return list(zip(a, a)), ex.evaluate(op, a), ex.evaluate(op, np.array(a)).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_asts())
def test_list_evaluator_agrees_with_numpy_node_by_node(ast):
    # each node's operation, on the values the list path gives its
    # operands: bit for bit but for numpy's complex product, square and
    # modulus, whose fused multiply-adds agree to a few ulps
    for node in _subtrees(ast):
        if node[0] in ("num", "var"):
            continue
        fused = (node[0] == "*" or node[0] == "pow" and node[2] == 2
                 or node[:2] == ("call", "abs"))
        for (x, y), got, want in zip(*_node_values(node)):
            want = complex(want)
            if not fused:
                assert _bits(got) == _bits(want), (ex.to_string(node), x, got, want)
            elif node[0] == "call" or not _overflowing_terms(x, y):
                assert _near(got, want), (ex.to_string(node), x, y, got, want)


# -- the walk: the recursive printer and substitution it replaced, as references ------


def to_string_reference(ast, _prec=0) -> str:
    kind = ast[0]
    if kind == "num":
        return ex._fmt_complex(ast[1])
    if kind == "var":
        return "x"
    if kind in "+-*/":
        p = ex._PREC[kind]
        left = to_string_reference(ast[1], p)
        right = to_string_reference(ast[2], p + 1)
        s = f"{left}{kind}{right}"
        return f"({s})" if p < _prec else s
    if kind == "neg":
        s = f"-{to_string_reference(ast[1], ex._PREC['neg'])}"
        return f"({s})" if ex._PREC["neg"] < _prec else s
    if kind == "pow":
        # only an atom is a base: -x^2 reads as (-x)^2
        base = to_string_reference(ast[1], ex._PREC["atom"])
        s = f"{base}^{ast[2]}"
        return f"({s})" if ex._PREC["pow"] < _prec else s
    if kind == "call":
        return f"{ast[1]}({to_string_reference(ast[2])})"
    raise ValueError(f"bad AST node {ast!r}")


def substitute_reference(ast, replacement):
    kind = ast[0]
    if kind == "var":
        return replacement
    if kind == "num":
        return ast
    if kind in ("+", "-", "*", "/"):
        return (kind, substitute_reference(ast[1], replacement),
                substitute_reference(ast[2], replacement))
    if kind == "neg":
        return ("neg", substitute_reference(ast[1], replacement))
    if kind == "pow":
        return ("pow", substitute_reference(ast[1], replacement), ast[2])
    if kind == "call":
        return ("call", ast[1], substitute_reference(ast[2], replacement))
    raise ValueError(f"bad AST node {ast!r}")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_asts(), _random_asts(depth=2))
def test_walk_prints_and_substitutes_as_the_recursions_did(ast, replacement):
    assert ex.to_string(ast) == to_string_reference(ast)
    assert ex.substitute(ast, replacement) == substitute_reference(ast, replacement)


def test_shared_operand_is_visited_once():
    t = ex.parse_expression("exp(i/x)/x")
    calls = []
    visits = dict(ex._PRINT, call=lambda node, env, a: calls.append(node) or
                  ex._PRINT["call"](node, env, a))
    assert ex._walk(ex.abs2(t), visits, None, {}, None)[0] == (
        "conj(exp(i/x)/x)*(exp(i/x)/x)")
    # conj and exp: the exp inside the shared t is printed once
    assert [node[1] for node in calls] == ["exp", "conj"]


def _matrix_symbols_a_entry():
    from graphreg.matrix_symbols import matrix_symbol_op, oscillating_column_example

    (_, _, piece), = matrix_symbol_op(*oscillating_column_example()).a[0, 0].pieces
    return piece


def test_array_evaluation_leaves_no_reference_cycle():
    piece = _matrix_symbols_a_entry()
    xs = np.linspace(0.5, 4.0, 8)
    gc.disable()
    try:
        gc.collect()
        ex.evaluate(piece, xs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_matrix_symbol_transform_stays_below_a_mebibyte():
    from graphreg.matrix_symbols import matrix_symbol_op, oscillating_column_example

    example = oscillating_column_example()
    tracemalloc.start()
    try:
        matrix_symbol_op(*example)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# -- exact polynomial expansion -----------------------------------------------------


def _polynomial_asts(depth=3):
    """Polynomial ASTs: + - *, unary minus, powers 0 to 4 and division by
    nonzero constants, over CONSTANTS (i among them)."""
    constant = st.sampled_from(CONSTANTS).map(ex.num)
    leaf = st.one_of(st.just(ex.VAR), constant)
    if depth == 0:
        return leaf
    child = _polynomial_asts(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), child, child),
        st.tuples(st.just("neg"), child),
        st.tuples(st.just("pow"), child, st.integers(0, 4)),
        st.tuples(st.just("/"), child, constant),
    )


def _majorant(ast) -> float:
    """The AST evaluated at |z| = 1 with each constant by its modulus and
    every sign made +: a bound on every value the evaluation forms."""
    kind = ast[0]
    if kind == "num":
        return abs(ast[1])
    if kind == "var":
        return 1.0
    if kind in "+-*":
        a, b = _majorant(ast[1]), _majorant(ast[2])
        return a * b if kind == "*" else a + b
    if kind == "/":
        return _majorant(ast[1]) / abs(ast[2][1])
    if kind == "neg":
        return _majorant(ast[1])
    return _majorant(ast[1]) ** ast[2]


CIRCLE = [complex(math.cos(2 * math.pi * k / 7), math.sin(2 * math.pi * k / 7))
          for k in range(7)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polynomial_asts())
def test_expansion_agrees_with_evaluation_on_the_circle(ast):
    coeffs = ex.poly_coefficients(ast, 64)
    assert len(coeffs) == 1 or coeffs[-1] != 0
    scale = _majorant(ast)
    for z, value in zip(CIRCLE, ex.evaluate(ast, CIRCLE)):
        horner = 0j
        for c in reversed(coeffs):
            horner = horner * z + c
        assert abs(horner - value) <= 64 * EPS * scale, (ex.to_string(ast), z)


@pytest.mark.parametrize("text, coeffs", [
    ("1-z", [1, -1]),
    ("1+z^2", [1, 0, 1]),
    ("(1-z)^3", [1, -3, 3, -1]),
    ("(z-0.5)^6", [0.015625, -0.1875, 0.9375, -2.5, 3.75, -3, 1]),
    ("(z-2)^12", [4096, -24576, 67584, -112640, 126720, -101376, 59136,
                  -25344, 7920, -1760, 264, -24, 1]),
    ("(1+i*z)/(2+i)", [0.4 - 0.2j, 0.2 + 0.4j]),
    ("1-1.00000005*z", [1, -1.00000005]),
    ("z^3-z^3+2", [2]),
    ("z-z", [0]),
])
def test_expansion_is_exact(text, coeffs):
    got = ex.poly_coefficients(ex.parse_expression(text), 24)
    assert got == [complex(c) for c in coeffs]


# the constructs that are not polynomial operations are refused through the
# CLI in tests/test_cli.py; these are the bounds on what a polynomial may reach
@pytest.mark.parametrize("text, message", [
    ("z^25", "degree 25 exceeds max_poly_degree = 24"),
    ("(z^5)*(z^20)", "degree 25 exceeds max_poly_degree = 24"),
    # a constant's power counts its exponent as a degree
    ("2^25", "degree 25 exceeds max_poly_degree = 24"),
    ("(((1.0000000000000002^24)^24)^24)^24", "needs more than 52450 bits"),
    ("((2^24)^24)^2", "overflows binary64"),
])
def test_expansion_refuses_what_outgrows_its_bounds(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ex.poly_coefficients(ex.parse_expression(text), 24)
