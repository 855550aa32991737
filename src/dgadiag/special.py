"""Regularized incomplete beta function and the F-distribution upper tail.

Self-contained double-precision numerics: the continued fraction for the
incomplete beta integral (modified Lentz evaluation, as in the classic
Cephes/NR treatments) plus the standard F-distribution reduction
CDF_F(f; d1, d2) = I_x(d1/2, d2/2) with x = d1 f / (d1 f + d2), whose
complement is the tail `f_sf` returns.
"""

from __future__ import annotations

import math

_MACHEP = 2.220446049250313e-16
_MAX_ITER = 400


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral at (a, b, x).

    Converges fast for x < (a + 1) / (a + b + 2); callers arrange that by
    the usual symmetry swap.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    frac = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        frac *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < 10.0 * _MACHEP:
            return frac
    return frac  # converged to working precision in practice well before this


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"betainc requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"betainc requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f: float, df1: int, df2: int) -> float:
    """Upper tail P(F > f), evaluated directly for accuracy at small p.

    Uses the symmetry 1 - I_x(a, b) = I_{1-x}(b, a) so small tail
    probabilities are not computed as a difference of near-equal numbers.
    """
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    xc = df2 / (df1 * f + df2)  # 1 - x without cancellation
    return betainc(0.5 * df2, 0.5 * df1, xc)
