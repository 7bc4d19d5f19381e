"""Closed-form expression language for symbols.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)?
    atom   := number | 'i' | variable | func '(' expr ')' | '(' expr ')'
    func   in {exp, sin, cos, sqrt, conj, abs}

ASTs are plain nested tuples, hashable and comparable with ``==``:
``('num', complex)``, ``('var',)``, ``('+', a, b)``, ``('-', a, b)``,
``('*', a, b)``, ``('/', a, b)``, ``('pow', a, n)``, ``('call', name, a)``
and ``('neg', a)``.  Any identifier that is not a function name is accepted
as the variable, so both ``1/x`` and ``w/(1+abs(w)^2)`` parse; an expression
may use only one variable name.
"""

from __future__ import annotations

import operator
import re

from . import complexmath as cm
from .errors import ExprSyntaxError

FUNCTIONS = ("exp", "sin", "cos", "sqrt", "conj", "abs")

NUM = ("num",)

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
    tokens, pos = [], 0
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
        return ast

    @staticmethod
    def _combine(op, lhs, rhs):
        # constant folding on literals keeps print -> parse an AST identity
        if lhs[0] == "num" and rhs[0] == "num" and op in "+-*":
            val = {"+": lhs[1] + rhs[1], "-": lhs[1] - rhs[1], "*": lhs[1] * rhs[1]}[op]
            return num(val)
        return (op, lhs, rhs)

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = self._combine(val, node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                node = self._combine(val, node, rhs)
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
        kind, val, pos = self.take()
        if kind == "number":
            return num(float(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and val == "-":
            inner = self.atom()
            # fold literal negation so printed negative literals re-parse equal
            if inner[0] == "num":
                return num(-inner[1])
            return ("neg", inner)
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


def parse_expression(text: str) -> tuple:
    """Parse ``text`` into an AST; raises ExprSyntaxError with a position."""
    return _Parser(text).parse()


# a whole number below this in modulus is written as an integer, any
# other number by repr
INT_FORMAT_LIMIT = 1e15


def _fmt_real(v: float) -> str:
    if v == int(v) and abs(v) < INT_FORMAT_LIMIT:
        return str(int(v))
    return repr(v)


def _fmt_complex(z: complex) -> str:
    if z == 1j:
        return "i"
    if z.imag == 0.0:
        return _fmt_real(z.real) if z.real >= 0 else f"(-{_fmt_real(-z.real)})"
    if z.real == 0.0:
        im = _fmt_real(z.imag) if z.imag >= 0 else f"-{_fmt_real(-z.imag)}"
        return f"({im}*i)"
    im = _fmt_complex(complex(0.0, z.imag))[1:-1]  # strip outer parens
    return f"({_fmt_complex(complex(z.real))}+{im})"


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4}


def to_string(ast, _prec=0) -> str:
    """Pretty-print an AST; ``parse_expression(to_string(a)) == a`` up to
    literal formatting."""
    kind = ast[0]
    if kind == "num":
        return _fmt_complex(ast[1])
    if kind == "var":
        return "x"
    if kind in "+-*/":
        p = _PREC[kind]
        # right operand needs strictly higher precedence for - and /
        left = to_string(ast[1], p)
        right = to_string(ast[2], p + 1)
        s = f"{left}{kind}{right}"
        return f"({s})" if p < _prec else s
    if kind == "neg":
        s = f"-{to_string(ast[1], _PREC['neg'])}"
        return f"({s})" if _PREC["neg"] < _prec else s
    if kind == "pow":
        base = to_string(ast[1], _PREC["pow"] + 1)
        s = f"{base}^{ast[2]}"
        return f"({s})" if _PREC["pow"] < _prec else s
    if kind == "call":
        return f"{ast[1]}({to_string(ast[2])})"
    raise ValueError(f"bad AST node {ast!r}")


def substitute(ast, replacement):
    """Replace the variable by another AST (function composition)."""
    kind = ast[0]
    if kind == "var":
        return replacement
    if kind == "num":
        return ast
    if kind in ("+", "-", "*", "/"):
        return (kind, substitute(ast[1], replacement),
                substitute(ast[2], replacement))
    if kind == "neg":
        return ("neg", substitute(ast[1], replacement))
    if kind == "pow":
        return ("pow", substitute(ast[1], replacement), ast[2])
    if kind == "call":
        return ("call", ast[1], substitute(ast[2], replacement))
    raise ValueError(f"bad AST node {ast!r}")


def evaluate(ast, x):
    """Evaluate an AST at ``x`` in complex binary64.

    A number gives a complex and a list or tuple of numbers a list of
    complex.  Both are evaluated node by node over a list with
    ``complexmath`` and need no numpy.  An ndarray gives an ndarray from
    numpy's ufuncs.  The two paths give the same values, bit for bit but
    for complex products, squares and moduli (see ``complexmath``).  A
    node that is the operand of more than one node, as the t of
    ``abs2(t)`` is, is evaluated once.  The list path keeps the values of
    every node until it is done, the array path only those of such
    shared nodes.

    Division by zero and overflow produce inf/nan silently; callers sample
    open intervals where the expression is finite.
    """
    if isinstance(x, (int, float, complex)):
        return _eval_list(ast, [complex(x)], {})[0]
    if isinstance(x, (list, tuple)):
        return _eval_list(ast, [complex(v) for v in x], {})
    import numpy as np

    x = np.asarray(x, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _eval_array(ast, x, _shared(ast))


def _operands(ast) -> tuple:
    kind = ast[0]
    if kind in ("+", "-", "*", "/"):
        return ast[1], ast[2]
    if kind in ("neg", "pow"):
        return ast[1],
    if kind == "call":
        return ast[2],
    return ()


def _shared(ast) -> dict:
    """{id: None} for every node of ``ast`` that is an operand of more than
    one node; the evaluators put its value there once they have it."""
    seen, shared, stack = set(), {}, [ast]
    while stack:
        for node in _operands(stack.pop()):
            if id(node) in seen:
                shared[id(node)] = None
            else:
                seen.add(id(node))
                stack.append(node)
    return shared


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": cm.div}
_CALLS = {"exp": cm.exp, "sin": cm.sin, "cos": cm.cos, "sqrt": cm.sqrt,
          "conj": complex.conjugate, "abs": lambda z: complex(cm.modulus(z))}


def _eval_list(ast, xs: list, memo: dict) -> list:
    """The values of ``ast`` at the points ``xs``; ``memo`` keeps those of
    the nodes evaluated so far, by identity."""
    done = memo.get(id(ast))
    if done is not None:
        return done
    kind = ast[0]
    if kind == "num":
        out = [ast[1]] * len(xs)
    elif kind == "var":
        out = xs
    elif kind in _BINARY:
        out = list(map(_BINARY[kind], _eval_list(ast[1], xs, memo),
                       _eval_list(ast[2], xs, memo)))
    elif kind == "neg":
        out = list(map(operator.neg, _eval_list(ast[1], xs, memo)))
    elif kind == "pow":
        n = ast[2]
        out = [cm.power(v, n) for v in _eval_list(ast[1], xs, memo)]
    elif kind == "call" and ast[1] in _CALLS:
        out = list(map(_CALLS[ast[1]], _eval_list(ast[2], xs, memo)))
    else:
        raise ValueError(f"bad AST node {ast!r}")
    memo[id(ast)] = out
    return out


def _eval_array(ast, x, shared: dict):
    """``_eval_list`` on an ndarray, by numpy's ufuncs; ``shared`` keeps
    the values of the nodes ``_shared`` found."""
    import numpy as np

    done = shared.get(id(ast))
    if done is not None:
        return done
    kind = ast[0]
    if kind == "num":
        out = np.broadcast_to(np.asarray(ast[1]), x.shape).copy() if x.shape else ast[1]
    elif kind == "var":
        out = x
    elif kind == "+":
        out = _eval_array(ast[1], x, shared) + _eval_array(ast[2], x, shared)
    elif kind == "-":
        out = _eval_array(ast[1], x, shared) - _eval_array(ast[2], x, shared)
    elif kind == "*":
        out = _eval_array(ast[1], x, shared) * _eval_array(ast[2], x, shared)
    elif kind == "/":
        out = _eval_array(ast[1], x, shared) / _eval_array(ast[2], x, shared)
    elif kind == "neg":
        out = -_eval_array(ast[1], x, shared)
    elif kind == "pow":
        out = _eval_array(ast[1], x, shared) ** ast[2]
    elif kind == "call" and ast[1] in _CALLS:
        v = _eval_array(ast[2], x, shared)
        name = ast[1]
        out = np.abs(v).astype(complex) if name == "abs" else getattr(np, name)(v)
    else:
        raise ValueError(f"bad AST node {ast!r}")
    if id(ast) in shared:
        shared[id(ast)] = out
    return out
