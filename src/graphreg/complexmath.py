"""Complex binary64 arithmetic on Python numbers, as numpy computes it.

The list path of ``expressions.evaluate`` runs on these functions, so a
symbol can be evaluated without importing numpy.  Each function returns
what the matching numpy ufunc returns for a complex128 input, special
values included: division by zero and overflow give inf or nan, never an
exception.

Away from overflow and from the axes, ``cmath.exp``, ``sin``, ``cos`` and
``sqrt`` agree bit for bit with the glibc functions numpy calls, and they
are used there.  Elsewhere the glibc algorithms (``cexp``, ``csin``,
``ccosh``, ``csqrt``) are written out.  ``div`` and ``power`` follow
numpy's own loops: Smith's division by the reciprocal of the scaled
denominator, and binary powering for integer exponents.

Complex ``*``, squaring and ``abs`` agree only to rounding.  On CPUs with
FMA, numpy's SIMD loops fuse a multiply into an add, and Python 3.11 has
no fused multiply-add.  A product or a modulus can therefore differ in
its last bit.
"""

from __future__ import annotations

import cmath
import math
import sys

INF = math.inf
NAN = math.nan                   # glibc's and numpy's NAN: the positive one
ONE = complex(1.0, 0.0)
# 0/0 and inf - inf give the CPU's default NaN, negative on x86; a later
# copysign can read its sign
_DEFAULT_NAN = INF - INF

_MIN = sys.float_info.min        # DBL_MIN, the least normal number
_MAX = sys.float_info.max
_T = 709                         # glibc: (DBL_MAX_EXP - 1)·ln 2, truncated
_EXP_T = math.exp(_T)
# cmath leaves its plain formulas above log(DBL_MAX / 4) ≈ 708.4, glibc
# above _T; below this bound the two agree
_CMATH_SAFE = 708.0
# csqrt needs no rescaling for components in [2^-500, 2^500]
_SQRT_LO, _SQRT_HI = 2.0 ** -500, 2.0 ** 500


def modulus(z: complex) -> float:
    """|z| as a float; inf where the modulus overflows."""
    try:
        return abs(z)
    except OverflowError:
        return INF


def _over_zero(x: float) -> float:
    """x / +0.0 in IEEE arithmetic."""
    if x != x:
        return x
    if x == 0.0:
        return _DEFAULT_NAN
    return math.copysign(INF, x)


def div(a: complex, b: complex) -> complex:
    """a / b as numpy's complex division loop computes it."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    abs_br, abs_bi = abs(br), abs(bi)
    if abs_br >= abs_bi:
        if abs_br == 0.0:
            return complex(_over_zero(ar), _over_zero(ai))
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    # |bi| > |br|, or a nan: bi is 0 only where br is nan, and nan / 0 is br
    rat = br / bi if bi else br
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def reciprocal(z: complex) -> complex:
    """1 / z as numpy's ``reciprocal`` loop computes it."""
    x, y = z.real, z.imag
    if abs(y) <= abs(x):
        r = y / x if x else _DEFAULT_NAN     # x = 0 here only with y = 0
        d = x + y * r
        return complex(1 / d, -r / d)
    r = x / y if y else x                # y = 0 here only with x nan
    d = x * r + y
    return complex(r / d, -1 / d)


def power(z: complex, n: int) -> complex:
    """z ** n for an integer n, as numpy computes it.

    numpy takes n = 2 and n = -1 to its ``square`` and ``reciprocal``
    loops and other n to ``nc_pow``, which multiplies out |n| < 100 by
    binary powering and hands larger |n| to the C library's ``cpow``.
    Here binary powering serves every |n| ≥ 3, so above 99 the value
    agrees with numpy only to about 2|n| ulps of its modulus.
    """
    if n == 2:
        return z * z
    if n == -1:
        return reciprocal(z)
    if n == 0:
        return ONE
    if z.real == 0.0 and z.imag == 0.0:
        return complex(0.0, 0.0) if n > 0 else complex(NAN, NAN)
    if n == 1:
        return z
    if n == 3:
        return z * (z * z)
    m, acc, p, mask = abs(n), ONE, z, 1
    while True:
        if m & mask:
            acc = acc * p
        mask <<= 1
        if m < mask:
            break
        p = p * p
    return div(ONE, acc) if n < 0 else acc


def _sincos(y: float) -> tuple:
    """(sin y, cos y), with glibc's shortcut below the least normal."""
    if abs(y) > _MIN:
        return math.sin(y), math.cos(y)
    return y, 1.0


def _scaled_exp(t: float, s: float, c: float, first: float = _EXP_T) -> tuple:
    """(e^t·s, e^t·c) for t > 709 without overflow in e^t, as glibc
    scales: by ``first`` (e^709, or e^709 / 2 for sinh and cosh) and by
    e^709 once more at most, then by DBL_MAX for what is left."""
    t -= _T
    s *= first
    c *= first
    if t > _T:
        t -= _T
        s *= _EXP_T
        c *= _EXP_T
    if t > _T:
        return _MAX * s, _MAX * c
    e = math.exp(t)
    return e * s, e * c


def exp(z: complex) -> complex:
    """e^z as glibc's ``cexp``."""
    x, y = z.real, z.imag
    if -INF < x <= _CMATH_SAFE and -INF < y < INF:
        return cmath.exp(z)
    if math.isfinite(x):
        if not math.isfinite(y):
            return complex(NAN, NAN)
        s, c = _sincos(y)
        if x > _T:
            s, c = _scaled_exp(x, s, c)
            return complex(c, s)
        e = math.exp(x)
        return complex(e * c, e * s)
    if math.isinf(x):
        if math.isfinite(y):
            value = 0.0 if x < 0 else INF
            if y == 0.0:
                return complex(value, y)
            s, c = _sincos(y)
            return complex(math.copysign(value, c), math.copysign(value, s))
        if x > 0:
            return complex(INF, y - y)
        return complex(0.0, math.copysign(0.0, y))
    return complex(NAN, y if y == 0.0 else NAN)


def sin(z: complex) -> complex:
    """sin z as glibc's ``csin``."""
    x, y = z.real, z.imag
    if -_CMATH_SAFE <= y <= _CMATH_SAFE and -INF < x < INF:
        return cmath.sin(z)
    negative = math.copysign(1.0, x) < 0
    ax = abs(x)
    if math.isfinite(y):
        if math.isfinite(x):
            s, c = _sincos(ax)
            if negative:
                s = -s
            if abs(y) > _T:
                if y < 0:
                    c = -c
                s, c = _scaled_exp(abs(y), s, c, _EXP_T / 2)
                return complex(s, c)
            return complex(math.cosh(y) * s, math.sinh(y) * c)
        if y == 0.0:
            return complex(ax - ax, y)
        return complex(NAN, NAN)
    zero = math.copysign(0.0, -1.0 if negative else 1.0)
    if math.isinf(y):
        if x == 0.0:
            return complex(zero, y)
        if math.isfinite(x):
            s, c = _sincos(ax)
            re, im = math.copysign(INF, s), math.copysign(INF, c)
            return complex(-re if negative else re, -im if y < 0 else im)
        return complex(ax - ax, INF)
    return complex(zero if x == 0.0 else NAN, NAN)


def _cosh(x: float, y: float) -> complex:
    """cosh(x + iy) as glibc's ``ccosh``."""
    if math.isfinite(x):
        if math.isfinite(y):
            s, c = _sincos(y)
            if abs(x) > _T:
                if x < 0:
                    s = -s
                s, c = _scaled_exp(abs(x), s, c, _EXP_T / 2)
                return complex(c, s)
            return complex(math.cosh(x) * c, math.sinh(x) * s)
        return complex(y - y, 0.0 if x == 0.0 else NAN)
    if math.isinf(x):
        if math.isfinite(y) and y != 0.0:
            s, c = _sincos(y)
            return complex(math.copysign(INF, c),
                           math.copysign(INF, s) * math.copysign(1.0, x))
        if y == 0.0:
            return complex(INF, y * math.copysign(1.0, x))
        return complex(INF, y - y)
    return complex(NAN, y if y == 0.0 else NAN)


def cos(z: complex) -> complex:
    """cos z as glibc's ``ccos``: cosh(iz)."""
    x, y = z.real, z.imag
    if -_CMATH_SAFE <= y <= _CMATH_SAFE and -INF < x < INF:
        return cmath.cos(z)
    return _cosh(-y, x)


def sqrt(z: complex) -> complex:
    """The principal square root as glibc's ``csqrt``."""
    x, y = z.real, z.imag
    if y == 0.0 and -INF < x < INF:
        if x < 0:
            return complex(0.0, math.copysign(math.sqrt(-x), y))
        return complex(abs(math.sqrt(x)), y)
    ax, ay = abs(x), abs(y)
    if _SQRT_LO <= ax <= _SQRT_HI and _SQRT_LO <= ay <= _SQRT_HI:
        return cmath.sqrt(z)
    if math.isinf(y):
        return complex(INF, y)
    if math.isinf(x):
        if x < 0:
            return complex(NAN if y != y else 0.0, math.copysign(INF, y))
        return complex(x, NAN if y != y else math.copysign(0.0, y))
    if x != x or y != y:
        return complex(NAN, NAN)
    if x == 0.0:
        if ay >= 2 * _MIN:
            r = math.sqrt(0.5 * ay)
        else:
            r = 0.5 * math.sqrt(2 * ay)
        return complex(r, math.copysign(r, y))
    scale = 0
    if ax > _MAX / 4:
        scale = 1
        x, y = math.ldexp(x, -2), math.ldexp(y, -2)
    elif ay > _MAX / 4:
        scale = 1
        x = math.ldexp(x, -2) if ax >= 4 * _MIN else 0.0
        y = math.ldexp(y, -2)
    elif ax < 2 * _MIN and ay < 2 * _MIN:
        scale = -27                  # -(DBL_MANT_DIG + 1) / 2
        x, y = math.ldexp(x, 54), math.ldexp(y, 54)
    d = abs(complex(x, y))           # the C library's hypot
    if x > 0:
        r = math.sqrt(0.5 * (d + x))
        if scale == 1 and abs(y) < 1:
            s = y / r
            r = math.ldexp(r, scale)
            scale = 0
        else:
            s = 0.5 * (y / r)
    else:
        s = math.sqrt(0.5 * (d - x))
        if scale == 1 and abs(y) < 1:
            r = abs(y / s)
            s = math.ldexp(s, scale)
            scale = 0
        else:
            r = abs(0.5 * (y / s))
    if scale:
        r, s = math.ldexp(r, scale), math.ldexp(s, scale)
    return complex(r, math.copysign(s, y))
