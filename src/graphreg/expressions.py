"""Closed-form expression language for symbols.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)?
    atom   := '-'* (number | 'i' | variable | func '(' expr ')' | '(' expr ')')
    func   in {exp, sin, cos, sqrt, conj, abs}

ASTs are plain nested tuples, hashable and comparable with ``==``:
``('num', complex)``, ``('var',)``, ``('+', a, b)``, ``('-', a, b)``,
``('*', a, b)``, ``('/', a, b)``, ``('pow', a, n)``, ``('call', name, a)``
and ``('neg', a)``.  Any identifier that is not a function name is accepted
as the variable, so both ``1/x`` and ``w/(1+abs(w)^2)`` parse; an expression
may use only one variable name.

Every consumer of an AST is a table of per-kind visits on one bottom-up
walk, ``_walk``, which visits each node once per call: the list and the
ndarray evaluators (``evaluate``), printing (``to_string``), substitution
(``substitute``) and exact polynomial expansion (``poly_coefficients``).
A new reading of the AST adds a table, not a recursion.
"""

from __future__ import annotations

import cmath
import math
import operator
import re

from . import gaussian as gq
from .config import FLOAT_BITS
from .errors import ExprSyntaxError
from .gaussian import Gaussian

FUNCTIONS = ("exp", "sin", "cos", "sqrt", "conj", "abs")

# the deepest an expression may nest, in parentheses and calls and in its
# AST: the parser takes five Python frames a parenthesis and ``_walk`` one
# a level, far inside the interpreter's recursion limit
MAX_DEPTH = 100

_TOKEN = re.compile(
    r"\s*(?:(?P<float>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)


def num(value) -> tuple:
    return ("num", complex(value))


VAR = ("var",)
ONE = num(1.0)
ZERO = num(0.0)
I = num(1j)


def add(a, b):
    return ("+", a, b)


def sub(a, b):
    return ("-", a, b)


def mul(a, b):
    return ("*", a, b)


def div(a, b):
    return ("/", a, b)


def call(name: str, a):
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    return ("call", name, a)


def conj(a):
    return call("conj", a)


def abs2(a):
    """|a|^2 as conj(a)*a; stays exactly real-nonnegative pointwise."""
    return mul(conj(a), a)


def _tokenize(text: str):
    tokens, pos, nesting = [], 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("float") is not None:
            tokens.append(("number", m.group("float"), m.start("float")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
            nesting += (m.group("op") == "(") - (m.group("op") == ")")
            if nesting > MAX_DEPTH:
                raise ExprSyntaxError(f"parentheses nest more than MAX_DEPTH = "
                                      f"{MAX_DEPTH} levels", m.start("op"))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.varname = None

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        ast = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        if depth(ast) > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nests more than MAX_DEPTH = {MAX_DEPTH} levels", 0)
        return ast

    @staticmethod
    def _combine(op, lhs, rhs, pos):
        # constant folding on literals keeps print -> parse an AST identity
        if lhs[0] == "num" and rhs[0] == "num" and op in "+-*":
            val = {"+": lhs[1] + rhs[1], "-": lhs[1] - rhs[1], "*": lhs[1] * rhs[1]}[op]
            return _finite(val, pos)
        return (op, lhs, rhs)

    def expr(self):
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = self._combine(val, node, rhs, pos)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                node = self._combine(val, node, rhs, pos)
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val, pos = self.take()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, pos = self.take()
            if kind != "number" or "." in val:
                raise ExprSyntaxError("exponent must be an integer", pos)
            node = ("pow", node, sign * int(val))
        return node

    def atom(self):
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.take()
            signs += 1
        node = self.operand()
        for _ in range(signs):
            # fold literal negation so printed negative literals re-parse equal
            node = num(-node[1]) if node[0] == "num" else ("neg", node)
        return node

    def operand(self):
        kind, val, pos = self.take()
        if kind == "number":
            return _finite(float(val), pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val in FUNCTIONS:
                self.expect_op("(")
                node = self.expr()
                self.expect_op(")")
                return ("call", val, node)
            if val == "i":
                return I
            if self.varname is None:
                self.varname = val
            elif val != self.varname:
                raise ExprSyntaxError(
                    f"expression mixes variables {self.varname!r} and {val!r}", pos
                )
            return VAR
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def _finite(value, pos) -> tuple:
    """The literal node of a number, refused unless it is finite."""
    if not cmath.isfinite(value):
        raise ExprSyntaxError("number is not finite in binary64", pos)
    return num(value)


def parse_expression(text: str) -> tuple:
    """Parse ``text`` into an AST; raises ExprSyntaxError with a position."""
    return _Parser(text).parse()


def depth(ast) -> int:
    """The levels of ``ast``, a leaf being one, counted without recursion."""
    level, levels = {id(ast): ast}, 0
    while level:
        levels += 1
        level = {id(c): c for node in level.values() for c in _operands(node)}
    return levels


# a whole number below this in modulus is written as an integer, any
# other number as the digits of its shortest round-trip decimal
INT_FORMAT_LIMIT = 1e15


def _fmt_real(v: float) -> str:
    if v == int(v) and abs(v) < INT_FORMAT_LIMIT:
        return str(int(v))
    text = repr(v)
    if "e" in text:
        # the grammar has no exponent: 1e-05 is written 0.00001
        from decimal import Decimal

        text = format(Decimal(text), "f")
    return text


def _fmt_complex(z: complex) -> str:
    if z == 1j:
        return "i"
    re = _fmt_real(z.real) if z.real >= 0 else f"(-{_fmt_real(-z.real)})"
    if z.imag == 0.0:
        return re
    im = _fmt_real(z.imag) if z.imag >= 0 else f"-{_fmt_real(-z.imag)}"
    return f"({im}*i)" if z.real == 0.0 else f"({re}+{im}*i)"


# -- the walk ------------------------------------------------------------------

_BINARY = frozenset("+-*/")


def _walk(node, visit: dict, env, memo: dict, keep):
    """The value of ``node``: ``visit[kind](node, env, *operand values)``,
    bottom up.  ``memo`` holds values by node identity, so a node that is
    the operand of several nodes is visited once; it keeps every node's
    value when ``keep`` is None, otherwise those of the ids in ``keep``."""
    key = id(node)
    out = memo.get(key)
    if out is not None:
        return out
    kind = node[0]
    if kind in _BINARY:
        out = visit[kind](node, env, _walk(node[1], visit, env, memo, keep),
                          _walk(node[2], visit, env, memo, keep))
    elif kind == "neg" or kind == "pow":
        out = visit[kind](node, env, _walk(node[1], visit, env, memo, keep))
    elif kind == "call" and node[1] in FUNCTIONS:
        out = visit[kind](node, env, _walk(node[2], visit, env, memo, keep))
    elif kind == "num" or kind == "var":
        out = visit[kind](node, env)
    else:
        raise ValueError(f"bad AST node {node!r}")
    if keep is None or key in keep:
        memo[key] = out
    return out


def _operands(ast) -> tuple:
    kind = ast[0]
    if kind in _BINARY:
        return ast[1], ast[2]
    if kind in ("neg", "pow"):
        return ast[1],
    if kind == "call":
        return ast[2],
    return ()


def _shared(ast) -> set:
    """The ids of the nodes of ``ast`` that are operands of more than one
    node: the only values the ndarray evaluator keeps."""
    seen, shared, stack = set(), set(), [ast]
    while stack:
        for node in _operands(stack.pop()):
            if id(node) in seen:
                shared.add(id(node))
            else:
                seen.add(id(node))
                stack.append(node)
    return shared


# -- printing and substitution ----------------------------------------------------

# a node prints with its operator's precedence in the grammar; a literal,
# the variable and a call are atoms, never parenthesized.  Unary minus is
# part of an atom and binds tighter than ^, so -(x^2) keeps its parentheses
# (-x^2 reads as (-x)^2)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "pow": 3, "neg": 4, "atom": 5}


def _operand_text(printed: tuple, prec: int) -> str:
    text, own = printed
    return f"({text})" if own < prec else text


def _print_binary(node, env, a, b):
    p = _PREC[node[0]]
    # the right operand needs strictly higher precedence for - and /
    return f"{_operand_text(a, p)}{node[0]}{_operand_text(b, p + 1)}", p


_PRINT = {
    "num": lambda node, env: (_fmt_complex(node[1]), _PREC["atom"]),
    "var": lambda node, env: ("x", _PREC["atom"]),
    **dict.fromkeys(_BINARY, _print_binary),
    "neg": lambda node, env, a: ("-" + _operand_text(a, _PREC["neg"]), _PREC["neg"]),
    "pow": lambda node, env, a: (f"{_operand_text(a, _PREC['atom'])}^{node[2]}",
                                 _PREC["pow"]),
    "call": lambda node, env, a: (f"{node[1]}({a[0]})", _PREC["atom"]),
}


def to_string(ast) -> str:
    """Pretty-print an AST; ``parse_expression(to_string(a)) == a`` up to
    literal formatting."""
    return _walk(ast, _PRINT, None, {}, None)[0]


_SUBSTITUTE = {
    "num": lambda node, new: node,
    "var": lambda node, new: new,
    **dict.fromkeys(_BINARY, lambda node, new, a, b: (node[0], a, b)),
    "neg": lambda node, new, a: ("neg", a),
    "pow": lambda node, new, a: ("pow", a, node[2]),
    "call": lambda node, new, a: ("call", node[1], a),
}


def substitute(ast, replacement):
    """Replace the variable by another AST (function composition)."""
    return _walk(ast, _SUBSTITUTE, replacement, {}, None)


# -- evaluation -------------------------------------------------------------------


def evaluate(ast, x):
    """Evaluate an AST at ``x`` in complex binary64.

    A number gives a complex and a list or tuple of numbers a list of
    complex.  Both are evaluated node by node over a list with Python's
    complex arithmetic and ``cmath``, and need no numpy.  An ndarray gives
    an ndarray from numpy's ufuncs.  The two paths agree to rounding.  A
    node that is the operand of more than one node, as the t of
    ``abs2(t)`` is, is evaluated once.  The list path keeps the values of
    every node until it is done, the array path only those of such
    shared nodes.

    Division by zero and overflow give nan (inf or nan on the array path)
    silently; no verdict reads these values, the point classes come from
    the AST itself (``limits``).
    """
    if isinstance(x, (int, float, complex)):
        return _walk(ast, _LIST, [complex(x)], {}, None)[0]
    if isinstance(x, (list, tuple)):
        return _walk(ast, _LIST, [complex(v) for v in x], {}, None)
    import numpy as np

    x = np.asarray(x, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _walk(ast, _ARRAY, x, {}, _shared(ast))


_NAN = complex(math.nan, math.nan)


def _silent(fn):
    """fn, with nan where Python raises on a pole or an overflow."""
    def value(*args):
        try:
            return complex(fn(*args))
        except (ArithmeticError, ValueError):
            return _NAN
    return value


_CALLS = {name: _silent(fn) for name, fn in {
    "exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos, "sqrt": cmath.sqrt,
    "conj": complex.conjugate, "abs": abs}.items()}
_DIV = _silent(operator.truediv)
_POW = _silent(operator.pow)

_LIST = {
    "num": lambda node, xs: [node[1]] * len(xs),
    "var": lambda node, xs: xs,
    "+": lambda node, xs, a, b: list(map(operator.add, a, b)),
    "-": lambda node, xs, a, b: list(map(operator.sub, a, b)),
    "*": lambda node, xs, a, b: list(map(operator.mul, a, b)),
    "/": lambda node, xs, a, b: list(map(_DIV, a, b)),
    "neg": lambda node, xs, a: list(map(operator.neg, a)),
    "pow": lambda node, xs, a: [_POW(v, node[2]) for v in a],
    "call": lambda node, xs, a: list(map(_CALLS[node[1]], a)),
}


def _array_num(node, x):
    import numpy as np

    return np.broadcast_to(np.asarray(node[1]), x.shape).copy() if x.shape else node[1]


def _array_call(node, x, a):
    import numpy as np

    return np.abs(a).astype(complex) if node[1] == "abs" else getattr(np, node[1])(a)


_ARRAY = {
    "num": _array_num,
    "var": lambda node, x: x,
    "+": lambda node, x, a, b: a + b,
    "-": lambda node, x, a, b: a - b,
    "*": lambda node, x, a, b: a * b,
    "/": lambda node, x, a, b: a / b,
    "neg": lambda node, x, a: -a,
    "pow": lambda node, x, a: a ** node[2],
    "call": _array_call,
}


# -- exact polynomial expansion -----------------------------------------------------


def _exact(z) -> Gaussian:
    if not cmath.isfinite(z):
        raise ValueError(f"the constant {z} is not finite")
    return Gaussian.of(z)


def _poly_mul(a: list, b: list, max_degree: int) -> list:
    """a·b, refused before it is formed when its degree exceeds
    ``max_degree``."""
    degree = len(a) + len(b) - 2
    if degree > max_degree:
        raise ValueError(f"degree {degree} exceeds max_poly_degree = {max_degree}")
    out = gq.mul(a, b)
    # the integers of a coefficient may hold the bits of a product of
    # max_degree + 1 doubles
    bits = (max_degree + 1) * FLOAT_BITS
    if any(c.bits() > bits for c in out):
        raise ValueError(f"a coefficient needs more than {bits} bits")
    return out


def _inverse(b: list) -> list:
    if len(b) > 1:
        raise ValueError("division by a non-constant is not a polynomial operation")
    if not any(b):
        raise ValueError("division by zero")
    return [gq.ONE / b[0]]


def _poly_pow(node, max_degree: int, base: list) -> list:
    """base^n, refused before it is formed when its degree, taken as n
    for a constant base, exceeds ``max_degree``."""
    n, degree = node[2], node[2] * max(len(base) - 1, 1)
    if n < 0:
        raise ValueError(f"the negative power ^{n} is not a polynomial operation")
    if degree > max_degree:
        raise ValueError(f"degree {degree} exceeds max_poly_degree = {max_degree}")
    out = [gq.ONE]
    for _ in range(n):
        out = _poly_mul(out, base, max_degree)
    return out


def _not_polynomial(node, max_degree, a):
    raise ValueError(f"{node[1]}() is not a polynomial operation")


# each value is a polynomial: its coefficients, lowest degree first, as
# Gaussian rationals
_EXPAND = {
    "num": lambda node, d: [_exact(node[1])],
    "var": lambda node, d: [gq.ZERO, gq.ONE],
    "+": lambda node, d, a, b: gq.add(a, b),
    "-": lambda node, d, a, b: gq.add(a, b, -1),
    "*": lambda node, d, a, b: _poly_mul(a, b, d),
    "/": lambda node, d, a, b: _poly_mul(a, _inverse(b), d),
    "neg": lambda node, d, a: [-c for c in a],
    "pow": _poly_pow,
    "call": _not_polynomial,
}


def poly_coefficients(ast, max_degree: int) -> list:
    """The coefficients of ``ast`` as a polynomial in its variable, lowest
    degree first and without zero top coefficients, expanded exactly from
    the binary64 values of its constants and rounded once.

    ``+ - *``, unary minus, powers 0..max_degree and division by a nonzero
    constant are expanded; any other construct, a degree above
    ``max_degree`` (refused before the product is formed) or a coefficient
    beyond binary64 is a ValueError that names it.
    """
    try:
        return [complex(c) for c in
                _walk(ast, _EXPAND, max_degree, {}, None)] or [0j]
    except OverflowError:
        raise ValueError("a coefficient overflows binary64") from None
