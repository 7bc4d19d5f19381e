"""Built-in symbol catalog.

Five multiplication symbols exercise every classification outcome:

* ``x`` on the line                  -- regular (continuous everywhere)
* ``one_over_x`` on the line         -- graph regular, not regular
* ``exp_i_over_x`` on [0,1]          -- not graph regular (singular support)
* ``exp_i_over_x_over_x`` on [0,1]   -- graph regular, not regular
* ``x_exp_minus_i_over_x`` on [0,1]  -- regular after the hat extension

The last one doubles as the domain witness separating Def(t) from
Def(t*) for the normal operator with symbol e^{i/x}/x.
"""

from __future__ import annotations

from . import expressions as ex
from .symbols import (
    Declaration,
    PiecewiseSymbol,
    PointClass,
    interval,
    real_line,
)


def identity_symbol() -> PiecewiseSymbol:
    dom = real_line()
    return PiecewiseSymbol(dom, ((float("-inf"), float("inf"), ex.VAR),))


def one_over_x() -> PiecewiseSymbol:
    dom = real_line(punctures=(0.0,))
    inv = ex.div(ex.ONE, ex.VAR)
    return PiecewiseSymbol(
        dom,
        ((float("-inf"), 0.0, inv), (0.0, float("inf"), inv)),
        (Declaration(0.0, PointClass.REG_INF),),
    )


def exp_i_over_x() -> PiecewiseSymbol:
    dom = interval(0.0, 1.0, punctures=(0.0,))
    osc = ex.call("exp", ex.div(ex.I, ex.VAR))
    return PiecewiseSymbol(dom, ((0.0, 1.0, osc),),
                           (Declaration(0.0, PointClass.SING_SUPP),))


def exp_i_over_x_over_x() -> PiecewiseSymbol:
    dom = interval(0.0, 1.0, punctures=(0.0,))
    t = ex.div(ex.call("exp", ex.div(ex.I, ex.VAR)), ex.VAR)
    return PiecewiseSymbol(dom, ((0.0, 1.0, t),),
                           (Declaration(0.0, PointClass.REG_INF),))


def x_exp_minus_i_over_x() -> PiecewiseSymbol:
    dom = interval(0.0, 1.0, punctures=(0.0,))
    t = ex.mul(ex.VAR, ex.call("exp", ex.div(ex.num(-1j), ex.VAR)))
    return PiecewiseSymbol(dom, ((0.0, 1.0, t),),
                           (Declaration(0.0, PointClass.REG_B, 0.0),))


def x_on_unit_interval() -> PiecewiseSymbol:
    """g(x) = x on [0,1]; the absolute-value domain witness."""
    return PiecewiseSymbol(interval(0.0, 1.0), ((0.0, 1.0, ex.VAR),))


BUILDERS = {
    "x": identity_symbol,
    "one_over_x": one_over_x,
    "exp_i_over_x": exp_i_over_x,
    "exp_i_over_x_over_x": exp_i_over_x_over_x,
    "x_exp_minus_i_over_x": x_exp_minus_i_over_x,
}


def names() -> list:
    return sorted(BUILDERS)


def get(name: str) -> PiecewiseSymbol:
    """Catalog symbol by name, built by its entry in ``BUILDERS``."""
    return BUILDERS[name]()
