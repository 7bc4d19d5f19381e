"""The geometric sampling detector, kept as a test oracle.

Before the point classes were decided on the AST (``graphreg.limits``),
``symbols.detect_point`` sampled each side of a point along a geometric
sequence and matched three patterns on the tail: a Cauchy tail within an
absolute ``LIMIT_TOL``, a monotone modulus past an absolute ``BLOWUP``,
and a relative variance above ``OSC_REL_VAR``.  Its settings were
``Config`` fields; here they are constants, with their old defaults.

It fails in known ways (ROADMAP item 2): ratio-2 samples of sin(π/x)
land on its zeros (aliasing), a slow tail such as √|x| or 1/x at
infinity moves by more than LIMIT_TOL per step and reads as oscillation,
and the absolute thresholds read a scaled copy of a symbol otherwise.
The tests compare the classifier with it where none of these applies.
"""

import math
from dataclasses import dataclass

from graphreg.symbols import INF, TILING_SLACK, PointClass

LIMIT_TOL = 1e-6          # Cauchy / side agreement
BLOWUP = 1e6              # |m| threshold for divergence to infinity
OSC_REL_VAR = 1e-3        # relative variance marking bounded oscillation
APPROACH_STEPS = 40       # geometric samples per side
APPROACH_START = 0.5      # first offset from the puncture
TAIL_SAMPLES = 10         # classification window at the end of a run
INF_START = 1.0           # first |x| when sampling towards infinity
INF_REACH = 1e8           # cap so trig arguments stay meaningful
VANISH_WINDOW = 1e4       # the C0 test looks at |x| >= VANISH_WINDOW
VANISH_TOL = 1e-4         # |f| bound in that window
MONOTONE_SLACK = 1e-6     # |m| may dip by this share between samples
VARIANCE_FLOOR = 1e-300


@dataclass
class Sampled:
    kind: PointClass | None
    limit: complex | None
    sides: int
    peak: float
    note: str = ""


def _side_sequences(symbol, p, steps=APPROACH_STEPS, start=APPROACH_START,
                    inf_start=INF_START, inf_reach=INF_REACH, ratio=0.5):
    """Geometric sample sequences approaching p (or infinity) along each
    available side, innermost sample last: towards +∞ then −∞ they grow
    by 1/ratio from beyond every finite point, towards a puncture from the
    left then the right the offsets shrink by ratio."""
    dom = symbol.domain
    if math.isinf(p):
        signs = [sign for end, sign in ((dom.hi, 1.0), (dom.lo, -1.0))
                 if math.isinf(end)]
        if not signs:
            return []
        finite = [e for e in (dom.lo, dom.hi, *dom.punctures) if math.isfinite(e)]
        x0 = max(inf_start, *(2 * abs(e) for e in finite), 1.0)
        n = min(steps, int(math.log(inf_reach / x0, 1 / ratio)) + 1)
        return [[sign * x0 * ratio ** -k for k in range(n)] for sign in signs]
    seqs = []
    for a, b, _ in symbol.pieces:
        for end, sign in ((b, -1.0), (a, 1.0)):
            if abs(end - p) <= TILING_SLACK:
                d0 = min(start, (b - a) / 4)
                seqs.append([p + sign * d0 * ratio ** k for k in range(steps)])
    return seqs


def _mean(values: list) -> complex:
    return sum(values, 0j) / len(values)


def _tail_limit(tail: list):
    """Mean of the last three samples if the tail is Cauchy to within
    LIMIT_TOL, else None."""
    if all(abs(b - a) < LIMIT_TOL for a, b in zip(tail, tail[1:])):
        return _mean(tail[-3:])
    return None


def _oscillates(union: list) -> bool:
    """The variance test: the spread of the tail samples about their mean
    exceeds OSC_REL_VAR of their mean square."""
    centre = sum(union) / len(union)
    mean_sq = sum(abs(z) ** 2 for z in union) / len(union)
    var = sum(abs(z - centre) ** 2 for z in union) / len(union)
    return var > OSC_REL_VAR * max(mean_sq, VARIANCE_FLOOR)


def sample_point(symbol, p, **approach) -> Sampled:
    """The sampling detector's class at a puncture or at infinity; kind
    None where no pattern fires or a sample is not finite."""
    seqs = _side_sequences(symbol, p, **approach)
    vals = [symbol(s) for s in seqs]
    if not seqs or any(not (math.isfinite(z.real) and math.isfinite(z.imag))
                       for v in vals for z in v):
        return Sampled(None, None, len(seqs), math.nan, "evaluation failed")
    tails = [v[-TAIL_SAMPLES:] for v in vals]
    union = [z for t in tails for z in t]
    peak = max(abs(z) for v in vals for z in v)
    limits = [_tail_limit(t) for t in tails]
    cauchy = None not in limits
    if cauchy and all(abs(l - limits[0]) < 10 * LIMIT_TOL for l in limits):
        return Sampled(PointClass.REG_B, limits[0], len(seqs), peak)
    mags = [[abs(z) for z in t] for t in tails]
    if all(m[-1] > BLOWUP for m in mags) and all(
            b - a >= -MONOTONE_SLACK * a for m in mags for a, b in zip(m, m[1:])):
        return Sampled(PointClass.REG_INF, None, len(seqs), peak)
    if peak < BLOWUP:
        if _oscillates(union):
            return Sampled(PointClass.SING_SUPP, None, len(seqs), peak, "oscillation")
        if cauchy:
            return Sampled(PointClass.SING_SUPP, None, len(seqs), peak,
                           "side limits disagree")
    return Sampled(None, None, len(seqs), peak, "no pattern fired")


def _vanishes_at_infinity(sym, **approach) -> bool:
    """The sampled C0 test at infinity: |sym| <= VANISH_TOL at every
    sample of each approach with |x| >= VANISH_WINDOW, or at its last
    three samples when none reaches the window.  A compact base passes."""
    if sym.domain.compact:
        return True
    ok = True
    for seq in _side_sequences(sym, INF, **approach):
        tail = [x for x in seq if abs(x) >= VANISH_WINDOW] or seq[-3:]
        ok = ok and all(abs(v) <= VANISH_TOL for v in sym(tail))
    return ok
