"""Every threshold has one home.

A threshold a caller may need to change is a field of ``Config``, read
through the ``cfg`` a function takes; any other is an UPPER_CASE constant
assigned at module level beside the code that decides with it.  So:

* outside ``config.py`` an e-notation number appears only on the right of
  a module-level assignment to an UPPER_CASE name (docstrings and
  comments are not number tokens);
* no function gives a tolerance parameter (``tol``, ``clamp`` or a name
  ending in ``_tol``) a default, which would be a second home for the
  value; a required one only passes on what its caller read from ``cfg``;
* every function that takes ``cfg`` reads it;
* every ``Config`` field is read, as ``cfg.<field>``, in a module other
  than ``config.py``: a knob that loses its last reader is gone.

One walk reads the expression AST: in ``expressions.py`` only ``_walk``
calls itself, so a new reading of the AST is a table of visits on it.

One classifier decides every point of a symbol: only ``detect_point``
reads a tail for its limit (``_tail_limit``), the sample sequences
(``_side_sequences``) serve it and the C0 test alone, and no module but
``symbols`` imports either.
"""

import ast
import dataclasses
import io
import pathlib
import tokenize

import pytest

from graphreg.config import Config

SRC = pathlib.Path(__file__).parents[1] / "src" / "graphreg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "config.py")


def is_tolerance(name: str) -> bool:
    return name in ("tol", "clamp") or name.endswith("_tol")


def constant_lines(tree: ast.Module) -> set:
    """The lines of module-level assignments to UPPER_CASE names."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [n for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
        if names and all(n.id.isupper() for n in names):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def functions(tree: ast.Module):
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def parameters_with_defaults(fn) -> list:
    """(name, default) of every parameter that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                     args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return [(a.arg, d) for a, d in pairs]


def callee(call: ast.Call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def calls(fn, name: str) -> bool:
    """Whether ``fn`` calls ``name``, as ``name(...)`` or ``x.name(...)``."""
    return any(isinstance(n, ast.Call) and callee(n) == name
               for n in ast.walk(fn))


def self_calling(tree: ast.Module) -> list:
    """The functions that call themselves by name, as ``f(...)`` or
    ``self.f(...)``."""
    return [fn.name for fn in functions(tree) if calls(fn, fn.name)]


def imported_names(tree: ast.Module) -> set:
    return {alias.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) for alias in n.names}


def reads(fn, name: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == name
               and isinstance(n.ctx, ast.Load)
               for stmt in fn.body for n in ast.walk(stmt))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_e_notation_only_in_module_constants(path):
    source = path.read_text(encoding="utf-8")
    allowed = constant_lines(ast.parse(source))
    stray = [f"{path.name}:{tok.start[0]}: {tok.string}"
             for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.NUMBER and "e" in tok.string.lower()
             and not tok.string.lower().startswith("0x")
             and tok.start[0] not in allowed]
    assert not stray, stray


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_parameter_has_a_default(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    knobs = [f"{path.name}:{fn.lineno}: {fn.name}({name}=...)"
             for fn in functions(tree)
             for name, _ in parameters_with_defaults(fn) if is_tolerance(name)]
    assert not knobs, knobs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cfg_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = [f"{path.name}:{fn.lineno}: {fn.name}"
              for fn in functions(tree)
              if any(a.arg == "cfg" for a in fn.args.posonlyargs + fn.args.args
                     + fn.args.kwonlyargs)
              and not reads(fn, "cfg")]
    assert not unread, unread


def cfg_fields_read(tree: ast.Module) -> set:
    """The attributes read as ``cfg.<name>``."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id == "cfg"}


def test_every_config_field_has_a_reader():
    read = set().union(*(cfg_fields_read(ast.parse(path.read_text(encoding="utf-8")))
                         for path in MODULES))
    unread = sorted({f.name for f in dataclasses.fields(Config)} - read)
    assert not unread, unread


def test_only_the_walk_recurses_over_expressions():
    tree = ast.parse((SRC / "expressions.py").read_text(encoding="utf-8"))
    assert self_calling(tree) == ["_walk"]


# each helper of the point detector, and the functions that may call it
DETECTOR_HELPERS = {"_tail_limit": ["symbols.detect_point"],
                    "_side_sequences": ["symbols._vanishes_at_infinity",
                                        "symbols.detect_point"]}


def test_detect_point_is_the_only_classifier():
    found = {name: [] for name in DETECTOR_HELPERS}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, where in found.items():
            where += sorted(f"{path.stem}.{fn.name}" for fn in functions(tree)
                            if calls(fn, name))
            if path.stem != "symbols" and name in imported_names(tree):
                where.append(f"{path.stem} imports it")
    assert found == DETECTOR_HELPERS


def test_the_checks_see_what_they_look_for():
    """Each check finds a planted case of what it forbids."""
    source = ("X = 1e-9\n"
              "def f(t, tol=1e-10, cfg=None):\n"
              "    return t < 2e-8\n")
    tree = ast.parse(source)
    assert constant_lines(tree) == {1}
    numbers = [tok.start[0] for tok in
               tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.NUMBER and "e" in tok.string]
    assert numbers == [1, 2, 3]
    (fn,) = functions(tree)
    assert [n for n, _ in parameters_with_defaults(fn)] == ["tol", "cfg"]
    assert not reads(fn, "cfg") and reads(fn, "t")
    recursive = ast.parse("def f(n):\n    return f(n - 1)\n"
                          "class P:\n    def g(self):\n        return self.g()\n"
                          "def h():\n    return f(1)\n")
    assert self_calling(recursive) == ["f", "g"]
    assert cfg_fields_read(ast.parse("x = cfg.kernel_tol + other.zero_tol\n"
                                     "cfg.blowup = 1\n")) == {"kernel_tol"}
    caller = ast.parse("from .symbols import _tail_limit, detect_point\n"
                       "def profile(s):\n    return symbols._tail_limit(s)\n")
    (fn,) = functions(caller)
    assert calls(fn, "_tail_limit") and not calls(fn, "detect_point")
    assert imported_names(caller) == {"_tail_limit", "detect_point"}
