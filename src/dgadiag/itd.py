"""Intrinsic time-scale decomposition of a sequence into baseline + rotation.

One stage splits a signal x into a piecewise-defined baseline L and a proper
rotation component H = x - L.  Knots sit at the signal's local extrema (plus
both endpoints).  At interior knot k the baseline takes the value

    L_k = alpha * [ x(t_{k-1}) + (t_k - t_{k-1}) / (t_{k+1} - t_{k-1})
                     * (x(t_{k+1}) - x(t_{k-1})) ]  +  (1 - alpha) * x(t_k)

with alpha = 1/2 (Frei & Osorio 2007), and between consecutive knots it
follows the signal affinely,

    L(t) = L_k + (L_{k+1} - L_k) / (x(t_{k+1}) - x(t_k)) * (x(t) - x(t_k)).

The two knot values never coincide: the runs of equal values from one knot
to the next are strictly monotone.  Endpoints are pinned (L = x there), so
H vanishes at both ends.  A signal with fewer than three knots (constant or
monotone) has no rotation component: L = x, H = 0.

`itd_rows` gives the baseline of every row of an (n, k) matrix at once, in
blocks of rows, with the same floating-point operations in the same order
as a per-knot loop; through it, a single signal is a one-row matrix.  A
block works on its raveled (C-order) values: position j of row r is flat
index r * k + j.  The nearest knot before and after every position comes
from one running maximum and one reversed running minimum over the whole
block, which stop at row boundaries because every row starts and ends with
a knot, and the knot and baseline values are gathered at those flat indices.
A block costs a fixed few dozen numpy calls, however many rows it has.

For one sample, `features._build` calls `_itd_list` instead: the same
operations in Python floats, so the same bits without numpy's per-call
cost, in one pass over the positions and two over the knots (about 8 us
on a seed-11 reading's 24-value prefix).  It is reached only with the
ranked parameters of a valid sample, which are finite and whose slopes
cannot overflow (see `core.MIN_PPM`).  Both give the baseline L alone.
"""

from __future__ import annotations

import numpy as np

_ALPHA = 0.5  # the baseline's knot-value weight
_BLOCK_ROWS = 256  # bounds the (rows, k) temporaries of one block


def _knot_mask(x: np.ndarray) -> np.ndarray:
    """The knots of each row of the (n, k) matrix x, k >= 2: both endpoints
    plus the first position of every interior run of equal values that lies
    above or below both neighbouring runs."""
    n, k = x.shape
    change = x[:, 1:] != x[:, :-1]  # [:, j - 1]: a run starts at position j
    # nxt[:, j - 1], j = 1..k-2: the first run start after j, k if none
    starts = np.where(change, np.arange(1, k), k)
    nxt = np.minimum.accumulate(starts[:, :0:-1], axis=1)[:, ::-1]
    # the value of the next run, gathered at flat indices; k is the next
    # row's first position (clipped for the last row), read only where
    # there is no next run and so never used
    rows_at = np.arange(0, n * k, k)[:, None]
    next_v = x.ravel().take(nxt + rows_at, mode="clip")
    mid = x[:, 1:-1]
    knot = np.ones(x.shape, dtype=bool)  # both endpoints stay knots
    # adjacent runs always differ, so this is the opposite-signs test on the
    # flanking differences without an overflow-prone product
    knot[:, 1:-1] = change[:, :-1] & (nxt < k) & ((mid > x[:, :-2]) != (next_v > mid))
    return knot


def _baseline(x: np.ndarray, knot: np.ndarray, baseline: np.ndarray) -> None:
    """Overwrite `baseline`, a copy of x, with the baseline of each row of x
    given its knot mask; rows with no interior knot keep x."""
    k = x.shape[1]
    # the blocks are C-contiguous, so `bf` is a view that writes `baseline`
    xf, kf, bf = x.ravel(), knot.ravel(), baseline.ravel()
    flat = np.arange(kf.size)
    # flat index of the nearest knot at or before / at or after each
    # position; every row starts and ends with a knot, so neither scan
    # crosses into another row
    before = np.maximum.accumulate(np.where(kf, flat, 0))
    after = np.minimum.accumulate(np.where(kf[::-1], flat[::-1], kf.size))[::-1]

    interior = knot.copy()
    interior[:, :: k - 1] = False
    j = interior.ravel().nonzero()[0]
    p, q = before[j - 1], after[j + 1]
    frac = (j - p) / (q - p)
    xp, xq = xf[p], xf[q]
    bf[j] = _ALPHA * (xp + frac * (xq - xp)) + (1.0 - _ALPHA) * xf[j]

    j = (~knot & interior.any(axis=1)[:, None]).ravel().nonzero()[0]
    p, q = before[j], after[j]
    lp, lq = bf[p], bf[q]
    xp = xf[p]
    bf[j] = lp + (lq - lp) / (xf[q] - xp) * (xf[j] - xp)


def _itd_list(x: list[float]) -> list[float]:
    """The baseline of one signal of k >= 2 finite floats whose ITD slopes
    cannot overflow, as `itd_rows` gives it bit for bit: the knot rule of
    `_knot_mask` and the two formulas of `_baseline`, operation for
    operation, in Python floats.

    The knots come from one pass over the positions, which tracks the
    current run of equal values (start, value, whether it rose) and records
    its start when the next run flips direction; position 0 is recorded at
    the first run start, as the first run has no direction.  The loops over
    the knots carry the previous knot forward."""
    knots = []
    start, v, rose = 0, x[0], None
    for j, w in enumerate(x):
        if w != v:  # a run starts at j
            up = w > v
            if up != rose:  # a flip (or the first run start): `start` is a knot
                knots.append(start)
            start, v, rose = j, w, up
    if len(knots) < 2:  # no interior knot: the baseline is the signal
        return x[:]
    knots.append(len(x) - 1)
    baseline = x[:]
    p, xp = 0, x[0]
    for j, q in zip(knots[1:], knots[2:]):
        xj = x[j]
        baseline[j] = _ALPHA * (xp + (j - p) / (q - p) * (x[q] - xp)) + (1.0 - _ALPHA) * xj
        p, xp = j, xj
    p, lp, xp = 0, x[0], x[0]
    for q in knots[1:]:  # positions between two knots follow the signal
        lq, xq = baseline[q], x[q]
        if q - p > 1:
            slope = (lq - lp) / (xq - xp)
            for i in range(p + 1, q):
                baseline[i] = lp + slope * (x[i] - xp)
        p, lp, xp = q, lq, xq
    return baseline


def itd_rows(x: np.ndarray) -> np.ndarray:
    """The baseline of each row of the (n, k) matrix `x`, as a one-stage
    decomposition of `x[i]` gives it; the rotation component is x - baseline."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("need at least 2 points to decompose")
    if not np.isfinite(x).all():
        raise ValueError("input must be finite")
    baseline = x.copy()
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        _baseline(x[block], _knot_mask(x[block]), baseline[block])
    return baseline
