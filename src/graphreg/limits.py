"""Exact point classes of an expression, one side of a point at a time.

At a puncture p the variable is x = p + σ·s, at infinity x = σ/s, with
σ = ±1 and s ↓ 0.  One visit table on ``expressions._walk`` gives each
node of the AST its behaviour as s ↓ 0: a finite sum of terms

    (c·s^e + … + O(s^N)) · e^{P(s)} · A₁⋯A_k

keyed by (P, A₁⋯A_k):

* c·s^e + … + O(s^N) is a truncated generalized power series
  (``Series``): rational exponents, and a bound on what it leaves out
  (none when it is exact);
* P is a polynomial in negative powers of s with exact coefficients,
  the divergent part of an exponent: Re P decides growth or decay, and
  Im P is an oscillation of modulus 1;
* each A_j is the square root of a real W_j held between two positive
  multiples of s^{e_j} by a positive term that outweighs the
  oscillations beside it (1 + sin²x at infinity), so that A_j² = W_j,
  conj(A_j) = A_j and |A_j| is of the order of s^{e_j/2}.

Coefficients are Gaussian rationals (``gaussian``), exact wherever the
binary64 constants of the AST make them so: sums, products, quotients,
and the rational series of exp, sin, cos and the binomial.  exp, sin, cos
and the square root of a nonzero constant (and so a modulus) are irrational;
such a coefficient is a ``Ball``, the double nearest it with a bound on
its error, and a ball that may be 0 is never read as nonzero.

The inverse or square root of a sum led by several terms is expanded in
a convergent series where one of them outweighs the rest (1/(2 + sin x)),
its negligible oscillations folded into balls; it is an atom where the
sum is real and positive; otherwise it is an ``Opaque`` value, known only
by bounds (|sin x|).

A side's class comes from its dominant terms (``_classify``): the limit
0 where they decay (a vanishing series times a bounded oscillation
vanishes), the limit c where one term c·s⁰ is left, divergence where a
single term grows or outweighs the others, bounded oscillation where the
dominant terms oscillate, and unbounded oscillation where two growing
oscillations of equal modulus cancel again and again.  This is Gruntz's
limit algorithm (*On Computing Limits in a Symbolic Manipulation
System*, 1996) cut to one level of exponentials, plus those rules for
oscillation.  Zero-equivalence is undecidable once sin and abs are in
the grammar (Richardson 1968), so what the rules cannot decide is a
refusal, ``InconclusiveClassification`` naming the point, the side and
the node, never a guess.  The expansions keep the
terms within a window of relative orders, widened through ``WINDOWS``
while truncation hides a leading term, and at most ``MAX_TERMS`` terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from . import expressions as ex
from .config import FLOAT_BITS
from .errors import InconclusiveClassification
from .gaussian import Gaussian

INF = math.inf
EPS = 2.0 ** -52
# every ball radius is rounded up by the factor UP, and by TINY where a
# part rounds into the subnormals
UP = 1.0 + 2.0 ** -48
TINY = 2.0 ** -1070
# the relative orders an expansion keeps, widened in turn while
# truncation hides a leading term
WINDOWS = (2, 4, 8, 16)
# the most terms of distinct (P, A) one value holds: past it, the
# smallest oscillations join the constant term as a bound (``_fold``)
MAX_KEYS = 12
# a limit whose ball is wider than this, relative to its modulus, is
# refused rather than reported
BLUR = 2.0 ** -40
# the most terms an expansion keeps: a product or a power series of an
# exact series is cut after MAX_TERMS terms, the rest left to its order
MAX_TERMS = 25
# a convergent expansion (1 + R)^alpha with |R| ≤ ρ < 1 stops where the
# bound ρ^{n+1}/(1 − ρ) on the rest falls below TAIL; where that takes
# more than MAX_POWERS powers of R (ρ above about 0.95) the value is known
# only by its bounds
TAIL = 2.0 ** -12
MAX_POWERS = 256
# the longest node text a refusal quotes
NODE_ECHO = 80
# an exact coefficient past this many bits is rounded to a ball, so that a
# power such as (2 + x)^99999999 ends in an overflow, not a huge integer
MAX_BITS = 8 * FLOAT_BITS

REG_B, REG_INF, SING_SUPP = "reg_b", "reg_inf", "sing_supp"


class _Refused(Exception):
    """What the rules cannot decide, and the node where it arose."""

    def __init__(self, why: str, node=None):
        super().__init__(why)
        self.why, self.node = why, node


class _Truncated(Exception):
    """A leading term lies past the window of the expansions."""


# -- coefficients -----------------------------------------------------------------


def _parts(g: Gaussian) -> complex:
    try:
        return complex(g)
    except OverflowError:
        raise _Refused("a coefficient outgrows binary64") from None


def _bound(z: complex) -> float:
    """|Re z| + |Im z| ≥ |z|, which overflows only to inf."""
    return abs(z.real) + abs(z.imag)


def _size(g: Gaussian) -> float:
    try:
        return abs(_parts(g))
    except OverflowError:
        raise _Refused("a coefficient outgrows binary64") from None


class Ball:
    """mid ± rad: a Gaussian rational and a bound on the distance of the
    value from it.  rad = 0 is exact; an inexact mid is kept a double."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid: Gaussian, rad: float = 0.0):
        if rad:
            z = _parts(mid)
            mid, rad = Gaussian.of(z), (rad + _bound(z) * EPS + TINY) * UP
            if not rad < INF:               # inf, or nan from inf·0
                raise _Refused("a coefficient outgrows binary64")
        self.mid, self.rad = mid, rad

    @classmethod
    def of(cls, z) -> Ball:
        return cls(Gaussian.of(complex(z)))

    def __add__(self, other):
        return Ball(self.mid + other.mid, self.rad + other.rad)

    def __sub__(self, other):
        return Ball(self.mid - other.mid, self.rad + other.rad)

    def __neg__(self):
        return Ball(-self.mid, self.rad)

    def __mul__(self, other):
        mid = self.mid * other.mid
        if self.rad or other.rad:
            return Ball(mid, (_size(self.mid) * other.rad + _size(other.mid) * self.rad
                              + self.rad * other.rad) * UP + TINY)
        return Ball(mid, TINY) if mid.bits() > MAX_BITS else Ball(mid)

    def conjugate(self):
        return Ball(self.mid.conjugate(), self.rad)

    def inverse(self):
        if not self.rad:
            if not self.mid:
                raise _Refused("division by zero")
            return Ball(_ONE / self.mid)
        size = _size(self.mid) / UP
        if size <= self.rad * UP:
            raise _Refused("a divisor that rounding cannot tell from 0")
        return Ball(_ONE / self.mid, self.rad / size / (size - self.rad) * UP + TINY)

    def is_zero(self) -> bool:
        return not self.rad and not self.mid

    def nonzero(self) -> bool:
        return bool(self.mid) and (not self.rad or _size(self.mid) / UP > self.rad)

    def overlaps(self, other) -> bool:
        """Whether the two may be the same number."""
        if not (self.rad or other.rad):
            return _key(self.mid) == _key(other.mid)
        return _size(self.mid - other.mid) / UP <= (self.rad + other.rad) * UP

    def __complex__(self) -> complex:
        return _parts(self.mid)


_ONE = Gaussian(1)
ONE, ZERO = Ball(_ONE), Ball(Gaussian(0))
I = Ball(Gaussian(0, 1))


def _key(g: Gaussian) -> tuple:
    return g.a, g.b, g.d


def _rational(q: Fraction) -> Ball:
    return Ball(Gaussian(q.numerator, 0, q.denominator))


def _exp_ball(c: Ball) -> Ball:
    z = complex(c)
    try:
        v = cmath.exp(z)
        err = math.expm1(c.rad + _bound(z) * EPS)
    except OverflowError:
        raise _Refused("an exponential outgrows binary64") from None
    return Ball(Gaussian.of(v), _bound(v) * (err * UP + 4 * EPS) + TINY)


def _sqrt_ball(c: Ball) -> Ball:
    """The principal square root, exact for an exact positive rational
    square.  |√w − √z| ≤ |w − z| / Re √z, since Re √w ≥ 0."""
    g = c.mid
    if not c.rad and not g.b and g.a > 0:
        root = math.isqrt(g.a * g.d)
        if root * root == g.a * g.d:
            return Ball(Gaussian(root, 0, g.d))
    z = complex(c)
    v = cmath.sqrt(z)
    if v.real <= 0:
        raise _Refused("a square root on its cut")
    err = c.rad + _bound(z) * EPS
    return Ball(Gaussian.of(v), err / v.real * UP + 4 * EPS * _bound(v) + TINY)


# -- series -----------------------------------------------------------------------


class Series:
    """Σ c_k·s^{e_k} + O(s^order), exponents ascending and below
    ``order`` (INF for an exact series), no coefficient exactly 0."""

    __slots__ = ("terms", "order")

    def __init__(self, terms, order=INF):
        self.terms = [(e, c) for e, c in terms if e < order and not c.is_zero()]
        self.order = order

    def is_zero(self) -> bool:
        return not self.terms and self.order == INF


def _lead(a: Series):
    return a.terms[0][0] if a.terms else a.order


def _sorted(acc: dict, order) -> Series:
    return Series(sorted(acc.items(), key=lambda t: t[0]), order)


def _s_add(a: Series, b: Series, sign: int = 1) -> Series:
    acc = dict(a.terms)
    for e, c in b.terms:
        c = c if sign > 0 else -c
        acc[e] = acc[e] + c if e in acc else c
    return _sorted(acc, min(a.order, b.order))


def _capped(a: Series) -> Series:
    """a cut after MAX_TERMS terms: an exact series may grow without end."""
    if len(a.terms) > MAX_TERMS:
        return Series(a.terms, a.terms[MAX_TERMS][0])
    return a


def _s_mul(a: Series, b: Series) -> Series:
    if a.is_zero() or b.is_zero():
        return Series([])
    order = min(_lead(a) + b.order, _lead(b) + a.order)
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = e1 + e2
            if e < order:
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return _capped(_sorted(acc, order))


def _s_map(a: Series, fn) -> Series:
    return Series([(e, fn(c)) for e, c in a.terms], a.order)


def _s_shift(a: Series, c: Ball, e) -> Series:
    """c·s^e·a."""
    return Series([(f + e, d * c) for f, d in a.terms], a.order + e)


def _split(a: Series) -> tuple:
    """(e, c, 1/c, u) with a = c·s^e·(1 + u), u of positive order."""
    if not a.terms:
        if a.order == INF:
            raise _Refused("division by zero")
        raise _Truncated
    e, c = a.terms[0]
    if not c.nonzero():
        raise _Refused("a leading coefficient that rounding cannot tell from 0")
    inv = c.inverse()
    return e, c, inv, Series([(f - e, d * inv) for f, d in a.terms[1:]], a.order - e)


def _binomial(alpha: Fraction):
    return lambda n: (alpha - n + 1) / n


def _exp_ratio(n):
    return Fraction(1, n)


def _power_series(u: Series, ratio, env) -> Series:
    """Σ a_n·u^n with a_0 = 1 and a_n = a_{n−1}·ratio(n), for u of
    positive order: the terms below the window, and O(s^window), or the
    first MAX_TERMS powers of u and the order of the next."""
    if not u.terms:
        return Series([(0, ONE)], u.order)
    lead = u.terms[0][0]
    top = min(u.order, env.window)
    total, power, a, n = Series([(0, ONE)]), Series([(0, ONE)]), Fraction(1), 0
    while (n + 1) * lead < top and n < MAX_TERMS:
        n += 1
        a *= ratio(n)
        power = _s_mul(power, u)
        power = Series(power.terms, min(power.order, top))
        total = _capped(_s_add(total, _s_map(power, lambda c: c * _rational(a))))
    return Series(total.terms, min(total.order, top, (n + 1) * lead))


def _s_inv(a: Series, env) -> Series:
    e, _, inv, u = _split(a)
    return _s_shift(_power_series(u, _binomial(Fraction(-1)), env), inv, -e)


def _s_sqrt(a: Series, env) -> Series:
    """The principal square root.  Where the leading coefficient lies on
    the negative real axis, the first imaginary term picks the side of
    the cut; where none does, the side is the sign of a zero in binary64,
    which the AST does not fix, and the node is refused."""
    e, c, _, u = _split(a)
    if not c.rad and not c.mid.b and c.mid.a < 0:
        for _, d in u.terms:
            imag = _parts(d.mid).imag
            if not d.rad and not imag:
                continue
            if abs(imag) <= d.rad:
                raise _Refused("a square root whose side of the cut rounding hides")
            upper = imag < 0          # Im(c·u) > 0 for c < 0
            break
        else:
            if u.order != INF:
                raise _Truncated
            raise _Refused("a square root on its cut")
        root = _sqrt_ball(-c) * (I if upper else -I)
    else:
        root = _sqrt_ball(c)
    return _s_shift(_power_series(u, _binomial(Fraction(1, 2)), env), root,
                    Fraction(e, 2))


# -- values: sums of terms keyed by (P, atoms) ---------------------------------------

# P is a tuple of (exponent, a, b, d), the coefficient (a + b·i)/d, by
# ascending exponent; atoms a sorted tuple of the keys of env.atoms
_BASE = ((), ())


def _p_add(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return p or q
    acc = {}
    for e, a, b, d in p + q:
        g = Gaussian(a, b, d)
        acc[e] = acc[e] + g if e in acc else g
    return tuple(sorted((e, *_key(g)) for e, g in acc.items() if g))


def _p_conj(p: tuple) -> tuple:
    return tuple((e, a, -b, d) for e, a, b, d in p)


def _p_scale(p: tuple, q: Fraction) -> tuple:
    out = ((e, Gaussian(a * q.numerator, b * q.numerator, d * q.denominator))
           for e, a, b, d in p)
    return tuple((e, *_key(g)) for e, g in out if g)


def _const(c: Ball) -> dict:
    return {} if c.is_zero() else {_BASE: Series([(0, c)])}


def _v_add(a: dict, b: dict, sign: int = 1, fold: bool = True) -> dict:
    out = dict(a)
    for k, s in b.items():
        if k in out:
            s = _s_add(out[k], s, sign)
        elif sign < 0:
            s = _s_map(s, Ball.__neg__)
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return _fold(out) if fold and len(out) > MAX_KEYS else out


def _fold(v: dict, below: float = 0.0) -> dict:
    """v with its pure oscillations c·s^e·e^{iθ} with every |c| under
    ``below``, and past MAX_KEYS terms the smallest others, folded into
    the constant term as balls about 0 of radius |c|: |e^{iθ}| = 1, so
    the bound holds pointwise."""
    def size(s):
        return max(_size(c.mid) * UP + c.rad for _, c in s.terms) if s.terms else 0.0

    loose = sorted((k for k in v if k != _BASE and not k[1]
                    and not any(a for _, a, _, _ in k[0])), key=lambda k: size(v[k]))
    cut = max(len(v) - MAX_KEYS + (_BASE not in v), 0)
    cut = max(cut, sum(size(v[k]) < below for k in loose))
    out = dict(v)
    for k in loose[:cut]:
        s = out.pop(k)
        bound = Series([(e, Ball(Gaussian(0), _size(c.mid) * UP + c.rad))
                        for e, c in s.terms], s.order)
        out[_BASE] = _s_add(out.get(_BASE, Series([])), bound)
    if len(out) > MAX_KEYS:
        raise _Refused(f"more than MAX_KEYS = {MAX_KEYS} terms that grow or decay")
    return out


def _v_map(a: dict, fn) -> dict:
    return {k: _s_map(s, fn) for k, s in a.items()}


def _v_conj(a: dict) -> dict:
    return {(_p_conj(p), atoms): _s_map(s, Ball.conjugate)
            for (p, atoms), s in a.items()}


def _v_mul(a: dict, b: dict, env) -> dict:
    out = {}
    for (p1, at1), s1 in a.items():
        for (p2, at2), s2 in b.items():
            s = _s_mul(s1, s2)
            if s.is_zero():
                continue
            # A·A = W: a repeated atom leaves the product
            atoms, squares = [], []
            for name in sorted(at1 + at2):
                if atoms and atoms[-1] == name:
                    squares.append(atoms.pop())
                else:
                    atoms.append(name)
            term = {(_p_add(p1, p2), tuple(atoms)): s}
            for w in squares:
                term = _v_mul(term, env.atoms[w][0], env)
            out = _v_add(out, term, fold=False)
    return _fold(out) if len(out) > MAX_KEYS else out


# -- the dominant terms -------------------------------------------------------------


def _magnitude(key, s: Series, env) -> tuple:
    """(Re P, order, known) of a term: |term| is of the order of
    e^{Re P}·s^{order}; a term with no known coefficient is only bounded
    by that."""
    p, atoms = key
    rep = tuple((e, Fraction(a, d)) for e, a, _, d in p if a)
    return rep, _lead(s) + sum(env.atoms[w][1] for w in atoms), bool(s.terms)


def _rep_sign(rep: tuple) -> int:
    """+1 where e^{Re P} grows, −1 where it decays, 0 for Re P = 0."""
    return (rep[0][1] > 0) - (rep[0][1] < 0) if rep else 0


def _cmp(m1: tuple, m2: tuple) -> int:
    """+1 if m1 is the larger magnitude, −1 if the smaller, 0 if of the
    same order."""
    diff = dict(m1[0])
    for e, r in m2[0]:
        diff[e] = diff.get(e, 0) - r
    for e in sorted(diff):
        if diff[e]:
            return 1 if diff[e] > 0 else -1
    return (m1[1] < m2[1]) - (m1[1] > m2[1])


def _dominant(v: dict, env) -> tuple:
    """The keys of the largest magnitude, and that magnitude.  It is set by
    the terms whose leading coefficient is known to be nonzero; one that
    may be 0 joins them where it is of their order."""
    mags = {k: _magnitude(k, s, env) for k, s in v.items()}
    known = [k for k in v if mags[k][2] and v[k].terms[0][1].nonzero()]
    if not known:
        if any(m[2] for m in mags.values()):
            raise _Refused("a leading coefficient that rounding cannot tell from 0")
        raise _Truncated
    top = known[0]
    for k in known[1:]:
        if _cmp(mags[k], mags[top]) > 0:
            top = k
    above = {k: _cmp(m, mags[top]) for k, m in mags.items()}
    if any(order >= 0 and not mags[k][2] for k, order in above.items()):
        raise _Truncated
    if any(order > 0 for order in above.values()):
        raise _Refused("a leading coefficient that rounding cannot tell from 0")
    return [k for k, order in above.items() if order == 0], mags[top]


def _outweighing(v: dict, cls: list):
    """The key of the dominant terms whose leading coefficient exceeds the
    others' moduli summed, so that their sum keeps away from 0; None if
    no term does, or an atom leads."""
    if len(cls) == 1:
        return cls[0]
    if any(k[1] for k in cls):
        return None
    lead = [v[k].terms[0][1] for k in cls]
    hi = [_size(c.mid) * UP + c.rad for c in lead]
    for k, c, h in zip(cls, lead, hi):
        if _size(c.mid) / UP - c.rad > sum(hi) - h:
            return k
    return None


def _cancelling(v: dict, cls: list) -> bool:
    """Whether the dominant terms are c₁e^{iθ₁} + c₂e^{iθ₂} with exact
    |c₁| = |c₂|: θ₂ − θ₁ sweeps the circle without end, so their sum
    passes through 0 again and again (sin(1/x)/x)."""
    if len(cls) != 2 or any(k[1] for k in cls):
        return False
    c1, c2 = (v[k].terms[0][1] for k in cls)
    if c1.rad or c2.rad:
        return False
    return not c1.mid * c1.mid.conjugate() - c2.mid * c2.mid.conjugate()


def _no_limit(v: dict, cls: list) -> bool:
    """Whether Σ c_j·e^{iθ_j}, the dominant terms of distinct phases, has
    no limit: its mean square about any L is at least Σ_{θ_j ≠ 0} |c_j|²,
    more than the rounding of the c_j can make up."""
    lead = [(k[0], v[k].terms[0][1]) for k in cls]
    moving = sum(_size(c.mid) * _size(c.mid) for p, c in lead if p) / UP
    return math.sqrt(moving) / UP > sum(c.rad for _, c in lead) * UP


def _is_real(v: dict) -> bool:
    """Whether v is exact and equal to its conjugate."""
    for (p, atoms), s in v.items():
        t = v.get((_p_conj(p), atoms))
        if s.order != INF or t is None or len(t.terms) != len(s.terms):
            return False
        for (e1, c1), (e2, c2) in zip(s.terms, t.terms):
            if e1 != e2 or c1.rad or c2.rad or _key(c1.mid) != _key(c2.mid.conjugate()):
                return False
    return True


@dataclass(frozen=True)
class Opaque:
    """A value known only by bounds, for what the terms cannot hold
    (1/(1 + sin²x), |sin x|): |h| ≤ C·s^order; |h| ≥ c·s^order when
    ``below``; and h·s^−order has no limit when ``nolimit``.  Sums and
    products keep what they can prove of these, and injective maps
    (1/w, √w) keep ``nolimit``."""

    order: Fraction
    nolimit: bool
    below: bool


def _profile(v, env) -> Opaque:
    """The bounds of a nonzero value: a single dominant term is held
    from below, and rotates unless its P is 0; distinct oscillations
    have no limit, and are held from below where one outweighs the rest."""
    if isinstance(v, Opaque):
        return v
    cls, (rep, order, _) = _dominant(v, env)
    if rep:
        raise _Refused("an exponential growth or decay beside an unresolved oscillation")
    if len(cls) == 1:
        return Opaque(order, bool(cls[0][0]), True)
    plain = not any(k[1] for k in cls)
    return Opaque(order, plain and _no_limit(v, cls),
                  _outweighing(v, cls) is not None)


def _constant_like(v) -> bool:
    """c·s^e·(1 + o(1)), which keeps ``nolimit`` of what it multiplies."""
    return isinstance(v, dict) and set(v) == {_BASE} and bool(v[_BASE].terms)


def _bounded(v: dict, order) -> dict:
    """v + O(s^order)."""
    base = v.get(_BASE, Series([]))
    return {**v, _BASE: Series(base.terms, min(base.order, order))}


def _atom(w: dict, env) -> dict | None:
    """√w as an atom, for a real w whose dominant terms are a positive
    constant term and oscillations it outweighs; None for any other w."""
    cls, (rep, order, _) = _dominant(w, env)
    if rep or _BASE not in cls or any(k[1] for k in cls):
        return None
    c0 = w[_BASE].terms[0][1]
    others = sum(_size(w[k].terms[0][1].mid) * UP + w[k].terms[0][1].rad
                 for k in cls if k != _BASE)
    if _parts(c0.mid).real / UP - c0.rad <= others:
        return None
    name = tuple(sorted((k, tuple((e, *_key(c.mid), c.rad) for e, c in s.terms), s.order)
                        for k, s in w.items()))
    env.atoms[name] = (w, Fraction(order) / 2)
    return {((), (name,)): Series([(0, ONE)])}


def _root(v, alpha: Fraction, env, real: bool = False):
    """v^alpha for alpha = −1 or 1/2: the dominant term D to that power
    times Σ binom(alpha, n)·R^n, R = v/D − 1, with the rest of the series
    bounded.  The square root of a real v led by a positive term and the
    oscillations it outweighs is an atom; any other v led by several
    terms, or by an atom, or whose expansion converges too slowly, is only
    bounded (``Opaque``)."""
    if isinstance(v, dict) and not v:
        if alpha < 0:
            raise _Refused("division by zero")
        return {}
    if isinstance(v, dict):
        cls, _ = _dominant(v, env)
        if len(cls) > 1 and alpha > 0 and (real or _is_real(v)):
            atom = _atom(v, env)
            if atom is not None:
                return atom
        key = _outweighing(v, cls)
        if key is not None and not key[1] and (alpha < 0 or not any(
                b for _, _, b, _ in key[0])):
            power = _power_of_lead(v, key, alpha, env)
            if power is not None:
                return power
    bounds = _profile(v, env)
    if alpha < 0 and not bounds.below:
        raise _Refused("division by oscillations that may vanish")
    return Opaque(bounds.order * alpha, bounds.nolimit, bounds.below)


def _power_of_lead(v: dict, key, alpha: Fraction, env) -> dict | None:
    """D^alpha·Σ binom(alpha, n)·R^n for the leading term D of v and
    R = v/D − 1.  Where R vanishes, the series is cut at the window, with
    the order of what it leaves; where other dominant terms keep |R| ≤ ρ
    < 1, it is cut where ρ^{n+1}/(1 − ρ) falls below TAIL, and that bound
    joins the constant coefficient.  None where that cut lies past
    MAX_POWERS powers of R."""
    p, s = key[0], v[key]
    if alpha < 0:
        lead = {(_p_scale(p, alpha), ()): _s_inv(s, env)}
        inv = lead
    else:
        lead = {(_p_scale(p, alpha), ()): _s_sqrt(s, env)}
        inv = {(_p_scale(p, Fraction(-1)), ()): _s_inv(s, env)}
    rest = {k: t for k, t in v.items() if k != key}
    if not rest:
        return lead
    c = s.terms[0][1]
    r = _v_mul(rest, inv, env)
    mags = {k: _magnitude(k, t, env) for k, t in r.items()}
    # any ρ above the dominant part of |R| bounds it for s small enough
    rho = sum(_size(r[k].terms[0][1].mid) * UP + r[k].terms[0][1].rad
              for k, m in mags.items() if m[2] and not m[0] and m[1] == 0) * UP
    if rho >= 1:
        raise _Refused("a power of oscillations that no term outweighs")
    if alpha > 0 and (complex(c).real <= c.rad if rho else
                      complex(c).real < 0 and abs(complex(c).imag) <= c.rad):
        # (1 + R) may carry D across the cut: the side is not decided
        raise _Refused("a square root on its cut")
    small = [m[1] for m in mags.values() if not m[0] and m[1] > 0]
    total, power, a, n = _const(ONE), _const(ONE), Fraction(1), 0
    if rho:                           # |R| ≤ ρ < 1
        # the rest after n powers is at most ρ^{n+1}/(1 − ρ)
        steps, tail = 0, rho / (1 - rho)
        while tail > TAIL:
            steps, tail = steps + 1, tail * rho
            if steps > MAX_POWERS:
                return None
        for n in range(1, steps + 1):
            a *= _binomial(alpha)(n)
            power = _fold(_v_mul(power, r, env), TAIL)
            total = _v_add(total, _v_map(power, lambda c: c * _rational(a)))
        total = _v_add(total, {_BASE: Series([(0, Ball(Gaussian(0), tail))])})
    elif small:                       # |R| ≤ C·s^δ
        delta = min(small)
        while (n + 1) * delta < env.window and n < MAX_TERMS:
            n += 1
            a *= _binomial(alpha)(n)
            power = _v_mul(power, r, env)
            total = _v_add(total, _v_map(power, lambda c: c * _rational(a)))
        total = _bounded(total, (n + 1) * delta)
    else:                             # R decays faster than any power
        total = _v_add(total, _v_map(r, lambda c: c * _rational(alpha)))
        top = max(mags.values(), key=cmp_to_key(_cmp))
        key = (_p_scale(tuple((e, q.numerator, 0, q.denominator) for e, q in top[0]),
                        Fraction(2)), ())
        base = total.get(key, Series([]))
        total[key] = Series(base.terms, min(base.order, 2 * top[1]))
    return _v_mul(lead, total, env)


# -- arithmetic on values and bounds ------------------------------------------------


def _magnitude_of(v, env) -> tuple:
    if isinstance(v, Opaque):
        return (), v.order, True
    return _dominant(v, env)[1]


def _add(a, b, env, sign: int = 1):
    if isinstance(a, dict) and isinstance(b, dict):
        return _v_add(a, b, sign)
    if isinstance(a, dict) and not a:
        return b if sign > 0 else _neg(b)
    if isinstance(b, dict) and not b:
        return a
    b = b if sign > 0 else _neg(b)
    order = _cmp(_magnitude_of(a, env), _magnitude_of(b, env))
    if order:
        big, small = (a, b) if order > 0 else (b, a)
        if isinstance(big, dict):
            return _bounded(big, small.order)
        return big
    ba, bb = _profile(a, env), _profile(b, env)
    nolimit = (_constant_like(a) and bb.nolimit) or (_constant_like(b) and ba.nolimit)
    return Opaque(ba.order, nolimit, False)


def _neg(a):
    return a if isinstance(a, Opaque) else _v_map(a, Ball.__neg__)


def _conj(a):
    return a if isinstance(a, Opaque) else _v_conj(a)


def _mul(a, b, env):
    if isinstance(a, dict) and isinstance(b, dict):
        return _v_mul(a, b, env)
    if isinstance(a, dict) and not a or isinstance(b, dict) and not b:
        return {}
    ba, bb = _profile(a, env), _profile(b, env)
    nolimit = (_constant_like(a) and bb.nolimit) or (_constant_like(b) and ba.nolimit)
    return Opaque(ba.order + bb.order, nolimit, ba.below and bb.below)


def _v_pow(node, env, a):
    n = node[2]
    if n < 0:
        a, n = _root(a, Fraction(-1), env), -n
    if n == 1:
        return a
    out = _const(ONE)
    while n:
        if n & 1:
            out = _mul(out, a, env)
        n >>= 1
        if n:
            a = _mul(a, a, env)
    return out


def _small(a, env):
    """The order e > 0 of a value that vanishes without being a series:
    f(a) = f(0) + O(s^e) for the smooth f of the grammar."""
    rep, order, _ = _magnitude_of(a, env)
    if _rep_sign(rep) < 0 or not rep and order > 0:
        return order if not rep else env.window
    raise _Refused("a function of an unresolved oscillation")


def _v_exp(a, env):
    """e^a for a series a: its negative powers, exact, become P."""
    if isinstance(a, dict) and not a:
        return _const(ONE)
    if isinstance(a, Opaque) or set(a) != {_BASE}:
        return {_BASE: Series([(0, ONE)], _small(a, env))}
    s = a[_BASE]
    if s.order <= 0:
        raise _Truncated
    divergent = [(e, c) for e, c in s.terms if e < 0]
    if any(c.rad for _, c in divergent):
        raise _Refused("an exponent with an irrational divergent part")
    body = _power_series(Series([(e, c) for e, c in s.terms if e > 0], s.order),
                         _exp_ratio, env)
    for e, c in s.terms:
        if e == 0:
            body = _s_map(body, lambda d: d * _exp_ball(c))
    return {(tuple((e, *_key(c.mid)) for e, c in divergent), ()): body}


def _v_sin(a, env):
    if isinstance(a, Opaque):
        return {_BASE: Series([], _small(a, env))}
    ia = _v_map(a, lambda c: c * I)
    diff = _add(_v_exp(ia, env), _v_exp(_v_map(ia, Ball.__neg__), env), env, -1)
    return _mul(diff, _const(Ball(Gaussian(0, -1, 2))), env)


def _v_cos(a, env):
    if isinstance(a, Opaque):
        return {_BASE: Series([(0, ONE)], _small(a, env))}
    ia = _v_map(a, lambda c: c * I)
    total = _add(_v_exp(ia, env), _v_exp(_v_map(ia, Ball.__neg__), env), env)
    return _mul(total, _const(Ball(Gaussian(1, 0, 2))), env)


def _v_abs(a, env):
    """√(a·ā), a real square root."""
    if isinstance(a, Opaque):
        return Opaque(a.order, False, a.below)
    return _root(_v_mul(a, _v_conj(a), env), Fraction(1, 2), env, real=True)


def _var(node, env) -> dict:
    if math.isinf(env.point):
        return {_BASE: Series([(-1, Ball.of(env.sign))])}
    return {_BASE: Series([(0, Ball.of(env.point)), (1, Ball.of(env.sign))])}


_CALLS = {
    "exp": _v_exp, "sin": _v_sin, "cos": _v_cos, "abs": _v_abs,
    "sqrt": lambda a, env: _root(a, Fraction(1, 2), env),
    "conj": lambda a, env: _conj(a),
}


def _named(visit):
    """The visit, with a refusal naming its node."""
    def named(node, env, *values):
        try:
            return visit(node, env, *values)
        except _Refused as err:
            err.node = err.node or node
            raise
    return named


_VISIT = {kind: _named(visit) for kind, visit in {
    "num": lambda node, env: _const(Ball.of(node[1])),
    "var": _var,
    "+": lambda node, env, a, b: _add(a, b, env),
    "-": lambda node, env, a, b: _add(a, b, env, -1),
    "*": lambda node, env, a, b: _mul(a, b, env),
    "/": lambda node, env, a, b: _mul(a, _root(b, Fraction(-1), env), env),
    "neg": lambda node, env, a: _neg(a),
    "pow": _v_pow,
    "call": lambda node, env, a: _CALLS[node[1]](a, env),
}.items()}


# -- the class of one side --------------------------------------------------------


def _classify(v, env) -> tuple:
    """(kind, limit Ball or None, bounded) from the dominant terms."""
    if isinstance(v, Opaque):
        if v.order > 0:
            return REG_B, ZERO, True
        if v.order < 0 and v.below:
            return REG_INF, None, False
        if not v.order and v.nolimit:
            return SING_SUPP, None, True
        raise _Refused("a function known only by bounds")
    if not v:
        return REG_B, ZERO, True
    cls, (rep, order, _) = _dominant(v, env)
    grows = _rep_sign(rep)
    if grows < 0 or not grows and order > 0:
        return REG_B, ZERO, True              # the dominant terms vanish
    if grows > 0 or order < 0:
        if _outweighing(v, cls) is not None:
            return REG_INF, None, False
        if _cancelling(v, cls):
            return SING_SUPP, None, False     # unbounded oscillation
        raise _Refused("a sum of oscillations that grows")
    if len(cls) > 1:
        if any(k[1] for k in cls) or not _no_limit(v, cls):
            raise _Refused("a sum of oscillations that rounding may settle")
        return SING_SUPP, None, True
    (p, atoms), = cls
    c = v[cls[0]].terms[0][1]
    if p:
        return SING_SUPP, None, True          # c·e^{iθ} turns without end
    if atoms:
        # c·s^e·A₁⋯A_k tends to c·√lim(s^{2e}·W₁⋯W_k) where that settles
        w = {_BASE: Series([(2 * v[cls[0]].terms[0][0], ONE)])}
        for name in atoms:
            w = _v_mul(w, env.atoms[name][0], env)
        kind, limit, _ = _classify(w, env)
        if kind == SING_SUPP:
            return SING_SUPP, None, True
        if kind != REG_B or not limit.nonzero():
            raise _Refused("a square root of oscillations with no limit found")
        c = c * _sqrt_ball(limit)
    if c.rad > BLUR * _size(c.mid):
        raise _Refused("a limit that rounding blurs")
    return REG_B, c, True


@dataclass
class SideClass:
    kind: str                 # REG_B, REG_INF or SING_SUPP
    limit: Ball | None        # the limit of a REG_B side
    bounded: bool


class _Env:
    __slots__ = ("point", "sign", "window", "atoms")

    def __init__(self, point, sign, window):
        self.point, self.sign, self.window = point, sign, window
        self.atoms = {}


def side_class(ast, point: float, sign: int) -> SideClass:
    """The class of ``ast`` as x → point from the side ``sign`` (+1 from
    above, −1 from below; at infinity, +∞ or −∞).  What the rules cannot
    decide raises InconclusiveClassification."""
    if math.isinf(point):
        where = f"approaching {'+' if sign > 0 else '-'}inf"
    else:
        where = f"approaching {point} from the {'right' if sign > 0 else 'left'}"
    for window in WINDOWS:
        env = _Env(point, sign, window)
        try:
            return SideClass(*_classify(ex._walk(ast, _VISIT, env, {}, None), env))
        except _Truncated:
            continue
        except _Refused as err:
            text = ex.to_string(err.node or ast)
            if len(text) > NODE_ECHO:
                text = text[:NODE_ECHO] + "…"
            raise InconclusiveClassification(
                f"{err.why} in {text} {where}") from None
    raise InconclusiveClassification(
        f"no leading term within {WINDOWS[-1]} orders {where} in "
        f"{ex.to_string(ast)[:NODE_ECHO]}")
