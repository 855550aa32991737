"""Intrinsic time-scale decomposition of a sequence into baseline + rotation.

One stage splits a signal x into a piecewise-defined baseline L and a proper
rotation component H = x - L.  Knots sit at the signal's local extrema (plus
both endpoints).  At interior knot k the baseline takes the value

    L_k = alpha * [ x(t_{k-1}) + (t_k - t_{k-1}) / (t_{k+1} - t_{k-1})
                     * (x(t_{k+1}) - x(t_{k-1})) ]  +  (1 - alpha) * x(t_k)

and between consecutive knots it follows the signal affinely,

    L(t) = L_k + (L_{k+1} - L_k) / (x(t_{k+1}) - x(t_k)) * (x(t) - x(t_k)),

falling back to linear-in-t interpolation when the two knot values coincide.
Endpoints are pinned (L = x there), so H vanishes at both ends.  A signal
with fewer than three knots (constant or monotone) has no rotation
component: L = x, H = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ItdResult:
    """One decomposition stage: input == baseline + prc, elementwise."""

    baseline: np.ndarray
    prc: np.ndarray
    alpha: float
    extrema: list[int]  # 1-based knot indices; first is 1, last is len(input)


def find_extrema(x: np.ndarray | list[float]) -> list[int]:
    """Knot indices (1-based): both endpoints plus interior local extrema.

    An interior point qualifies when the signal differences on either side
    have opposite signs.  A plateau of equal values collapses to its first
    index and qualifies when the nearest nonzero differences on either side
    disagree in sign.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 points to locate extrema")

    # Collapse the signal into runs of equal values; a run is an extremum
    # iff its value is above or below both neighboring runs.
    run_starts = [0]
    for i in range(1, n):
        if x[i] != x[run_starts[-1]]:
            run_starts.append(i)
    knots = [1]
    for r in range(1, len(run_starts) - 1):
        prev_v = x[run_starts[r - 1]]
        cur_v = x[run_starts[r]]
        next_v = x[run_starts[r + 1]]
        # adjacent runs always differ, so this is the opposite-signs test on
        # the flanking differences without an overflow-prone product
        if (cur_v > prev_v) != (next_v > cur_v):
            idx = run_starts[r] + 1  # 1-based
            if 1 < idx < n:
                knots.append(idx)
    if knots[-1] != n:
        knots.append(n)
    return knots


def itd_single_stage(x: np.ndarray | list[float], alpha: float = 0.5) -> ItdResult:
    """Extract one baseline / rotation-component pair from `x`."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 points to decompose")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    knots = find_extrema(x)
    if len(knots) < 3:
        baseline = x.copy()
        prc = x - baseline
        return ItdResult(baseline=baseline, prc=prc, alpha=alpha, extrema=knots)

    tau = np.asarray(knots, dtype=np.intp) - 1  # 0-based positions
    xk = x[tau]
    m = tau.size

    lk = np.empty(m, dtype=np.float64)
    lk[0] = xk[0]
    lk[-1] = xk[-1]
    for k in range(1, m - 1):
        frac = (tau[k] - tau[k - 1]) / (tau[k + 1] - tau[k - 1])
        lk[k] = alpha * (xk[k - 1] + frac * (xk[k + 1] - xk[k - 1])) + (1.0 - alpha) * xk[k]

    baseline = np.empty_like(x)
    baseline[tau] = lk
    for k in range(m - 1):
        lo, hi = tau[k], tau[k + 1]
        if hi - lo < 2:
            continue
        seg = slice(lo + 1, hi)
        if xk[k + 1] != xk[k]:
            slope = (lk[k + 1] - lk[k]) / (xk[k + 1] - xk[k])
            baseline[seg] = lk[k] + slope * (x[seg] - xk[k])
        else:
            t = np.arange(lo + 1, hi, dtype=np.float64)
            baseline[seg] = lk[k] + (lk[k + 1] - lk[k]) * (t - lo) / (hi - lo)

    prc = x - baseline
    return ItdResult(baseline=baseline, prc=prc, alpha=alpha, extrema=knots)
