"""Intrinsic time-scale decomposition of a sequence into baseline + rotation.

One stage splits a signal x into a piecewise-defined baseline L and a proper
rotation component H = x - L.  Knots sit at the signal's local extrema (plus
both endpoints).  At interior knot k the baseline takes the value

    L_k = alpha * [ x(t_{k-1}) + (t_k - t_{k-1}) / (t_{k+1} - t_{k-1})
                     * (x(t_{k+1}) - x(t_{k-1})) ]  +  (1 - alpha) * x(t_k)

and between consecutive knots it follows the signal affinely,

    L(t) = L_k + (L_{k+1} - L_k) / (x(t_{k+1}) - x(t_k)) * (x(t) - x(t_k)).

The two knot values never coincide: the runs of equal values from one knot
to the next are strictly monotone.  Endpoints are pinned (L = x there), so
H vanishes at both ends.  A signal with fewer than three knots (constant or
monotone) has no rotation component: L = x, H = 0.

`itd_rows` is the one implementation: it decomposes every row of an (n, k)
matrix at once, in blocks of rows, with the same floating-point operations
in the same order as a per-knot loop.  `find_extrema` and
`itd_single_stage` are its one-row views.
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


_BLOCK_ROWS = 256  # bounds the (rows, k) temporaries of one block


def _knot_mask(x: np.ndarray) -> np.ndarray:
    """Knots of each row of the (n, k) matrix x, k >= 2: both endpoints plus
    the first position of every interior run of equal values that lies
    above or below both neighbouring runs."""
    n, k = x.shape
    pos = np.arange(k)
    # next_start[:, j]: first position after j whose value differs from its
    # left neighbour (the start of the next run), k if there is none
    starts = np.where(x[:, 1:] != x[:, :-1], pos[1:], k)
    next_start = np.minimum.accumulate(starts[:, ::-1], axis=1)[:, ::-1]
    mid = x[:, 1:-1]
    next_v = np.take_along_axis(x, np.minimum(next_start[:, 1:], k - 1), axis=1)
    knot = np.ones((n, k), dtype=bool)
    # adjacent runs always differ, so this is the opposite-signs test on the
    # flanking differences without an overflow-prone product
    knot[:, 1:-1] = (
        (starts[:, :-1] < k)
        & (next_start[:, 1:] < k)
        & ((mid > x[:, :-2]) != (next_v > mid))
    )
    return knot


def _baseline(x: np.ndarray, knot: np.ndarray, alpha: float) -> np.ndarray:
    """Baseline of each row of x given its knot mask; x itself on rows with
    no interior knot."""
    n, k = x.shape
    pos = np.arange(k)
    # nearest knot strictly before / after each interior position 1..k-2
    prev = np.maximum.accumulate(np.where(knot, pos, 0), axis=1)[:, :-2]
    after = np.minimum.accumulate(np.where(knot, pos, k - 1)[:, ::-1], axis=1)
    nxt = after[:, ::-1][:, 2:]

    baseline = x.copy()
    r, j = np.nonzero(knot[:, 1:-1])
    p, q = prev[r, j], nxt[r, j]
    j += 1
    frac = (j - p) / (q - p)
    xp, xq = x[r, p], x[r, q]
    baseline[r, j] = alpha * (xp + frac * (xq - xp)) + (1.0 - alpha) * x[r, j]

    seg = ~knot[:, 1:-1] & knot[:, 1:-1].any(axis=1)[:, None]
    r, j = np.nonzero(seg)
    p, q = prev[r, j], nxt[r, j]
    j += 1
    lp, lq = baseline[r, p], baseline[r, q]
    xp = x[r, p]
    baseline[r, j] = lp + (lq - lp) / (x[r, q] - xp) * (x[r, j] - xp)
    return baseline


def itd_rows(
    x: np.ndarray, alpha: float = 0.5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knot mask, baseline and rotation component of each row of the (n, k)
    matrix `x`; row i gives what a one-stage decomposition of `x[i]` does."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("need at least 2 points to decompose")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    knot = np.empty(x.shape, dtype=bool)
    baseline = np.empty_like(x)
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        knot[block] = _knot_mask(x[block])
        baseline[block] = _baseline(x[block], knot[block], alpha)
    return knot, baseline, x - baseline


def find_extrema(x: np.ndarray | list[float]) -> list[int]:
    """Knot indices (1-based): both endpoints plus interior local extrema.

    An interior point qualifies when the signal differences on either side
    have opposite signs.  A plateau of equal values collapses to its first
    index and qualifies when the nearest nonzero differences on either side
    disagree in sign.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least 2 points to locate extrema")
    return (np.flatnonzero(_knot_mask(x[None, :])[0]) + 1).tolist()


def itd_single_stage(x: np.ndarray | list[float], alpha: float = 0.5) -> ItdResult:
    """Extract one baseline / rotation-component pair from `x`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D signal")
    knot, baseline, prc = itd_rows(x[None, :], alpha)
    return ItdResult(
        baseline=baseline[0],
        prc=prc[0],
        alpha=alpha,
        extrema=(np.flatnonzero(knot[0]) + 1).tolist(),
    )
