"""Skewness-based ranking of the 37 parameters, plus one-way ANOVA utilities.

Parameters whose per-transformer distributions are close to symmetric carry
the most class-discriminative information in this family, so parameters are
ordered from lowest to highest skewness.  A fixed canonical order, derived
from a 376-transformer survey dataset, is bundled for use when no dataset of
one's own is available.

The ANOVA p-value is the F distribution's upper tail P(F > f) with (df1,
df2) degrees of freedom: the regularized incomplete beta I_x(df2/2, df1/2)
at x = df2 / (df1 f + df2), the complement of the cdf's argument without
cancellation.  `_betainc` evaluates it by the modified Lentz continued
fraction (`_betacf`, as in the Cephes/NR treatments), swapped by
I_x(a, b) = 1 - I_{1-x}(b, a) to the side where the fraction converges
fast.  Two ends are exact: an f about 0 rounds x to 1 and gives p = 1, and
a df1 f that overflows gives x = 0 and p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import N_PARAMS, GasSample, _integer, param_matrix

# Rank positions 1..37 (lowest skewness first) measured on the original
# 376-transformer dataset.  Position 24 closes the prefix that performed
# best in the feature-count search on that dataset.
CANONICAL_RANK_ORDER: tuple[int, ...] = (
    28, 24, 1, 27, 31, 37, 26, 35, 36, 3, 32, 2, 34, 4, 5, 33, 21, 14, 19,
    20, 13, 10, 23, 6, 22, 15, 18, 17, 7, 8, 16, 11, 9, 12, 25, 30, 29,
)
_PARAM_NUMBERS = list(range(1, N_PARAMS + 1))
_MACHEP = 2.220446049250313e-16
_MAX_ITER = 400


def _scaled(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """`arrays` times the power of two that puts their largest |value| in
    [0.5, 1): exact for normal values, and no sum or moment overflows."""
    e = max(math.frexp(float(np.max(np.abs(a))))[1] for a in arrays)
    return [np.ldexp(a, -e) for a in arrays]


def skewness(values: Sequence[float]) -> float:
    """Population Fisher-Pearson moment skewness g1 = m3 / m2^(3/2).

    Central moments use the 1/n normalization.  Constant input (m2 == 0)
    returns 0 by convention, and so do two values, which lie symmetric about
    their mean (computed, m3 would be roundoff).  Requires at least two
    finite values, which it first scales by a power of two (see `_scaled`).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("insufficient data")
    if not np.all(np.isfinite(x)):
        raise ValueError("skewness requires finite values")
    if x.size == 2:
        return 0.0
    (x,) = _scaled([x])
    d = x - x.mean()
    d -= d.mean()  # the rounded mean's error, which a large offset makes large
    scale = float(np.max(np.abs(d)))
    if scale == 0.0:
        return 0.0
    d = d / scale  # unit-normalize so m2**1.5 cannot under/overflow
    m2 = float(np.mean(d * d))  # >= 1/n: one |d| is exactly 1.0
    m3 = float(np.mean(d * d * d))
    return m3 / m2**1.5


def _ranked_skews(dataset: Sequence[GasSample]) -> list[tuple[float, int]]:
    """(skewness, parameter number) of the 37 parameters over the dataset,
    in rank order: ascending skewness, ties toward the lower number."""
    dataset = list(dataset)
    if len(dataset) < 2:
        raise ValueError(f"ranking needs at least two samples, got {len(dataset)}")
    matrix = param_matrix(dataset)
    return sorted((skewness(matrix[:, num - 1]), num) for num in _PARAM_NUMBERS)


def rank_params(dataset: Sequence[GasSample]) -> tuple[int, ...]:
    """Order the 37 parameter numbers by ascending skewness over the dataset,
    ties toward the lower number, so the result is deterministic.  Needs at
    least two samples."""
    return tuple(num for _, num in _ranked_skews(dataset))


def validate_rank_order(order: Sequence[int]) -> tuple[int, ...]:
    """Check that `order` is a permutation of 1..37 and return it as a tuple
    of ints.  Entries must be integers of any type but bool."""
    order = tuple(order)
    if not set(map(type, order)) <= {int}:  # numpy integers, or a bad entry
        order = tuple(_integer("rank order entry", v) for v in order)
    if sorted(order) != _PARAM_NUMBERS:
        raise ValueError(f"rank order must be a permutation of 1..{N_PARAMS}")
    return order


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
        # the even step's coefficient, then the odd step's
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, 0 <= x <= 1."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _f_sf(f: float, df1: int, df2: int) -> float:
    """The F tail P(F > f) for f >= 0 and df1, df2 >= 1 (module docstring)."""
    return _betainc(0.5 * df2, 0.5 * df1, df2 / (df1 * f + df2))


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    p_value: float
    df_between: int
    df_within: int


def anova_pvalue(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way ANOVA F test across the given groups of finite values.

    Degenerate cases: zero within-group variance with nonzero between-group
    variance yields f = inf, p = 0; all values identical yields f = 0, p = 1.
    """
    if len(groups) < 2:
        raise ValueError("anova needs at least two groups")
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if any(a.size == 0 for a in arrays):
        raise ValueError("anova groups must be non-empty")
    n = sum(a.size for a in arrays)
    k = len(arrays)
    if n <= k:
        raise ValueError("anova needs more observations than groups")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("anova requires finite values")
    arrays = _scaled(arrays)
    df_between = k - 1
    df_within = n - k

    grand = sum(float(a.sum()) for a in arrays) / n
    ss_between = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ss_within = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)

    ms_within = ss_within / df_within  # 0 also when ss_within is subnormal
    if ms_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(0.0, 1.0, df_between, df_within)
        return AnovaResult(math.inf, 0.0, df_between, df_within)
    f = (ss_between / df_between) / ms_within
    return AnovaResult(f, _f_sf(f, df_between, df_within), df_between, df_within)
