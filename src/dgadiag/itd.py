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

`itd_rows` decomposes every row of an (n, k) matrix at once, in blocks of
rows, with the same floating-point operations in the same order as a
per-knot loop; through it, a single signal is a one-row matrix.  A block
works on its raveled (C-order) values: position j of row r is flat index
r * k + j.  The nearest knot before and after every position comes from
one running maximum and one reversed running minimum over the whole block,
which stop at row boundaries because every row starts and ends with a
knot, and the knot and baseline values are gathered at those flat indices.
A block costs a fixed few dozen numpy calls, however many rows it has.

For one sample, `features._build` calls `_itd_list` instead: the same
operations as a loop over one list of Python floats, so the same bits
without numpy's per-call cost.  It is reached only with the ranked
parameters of a valid sample, which are finite and whose slopes cannot
overflow (see `core.MIN_PPM`).
"""

from __future__ import annotations

import numpy as np

_ALPHA = 0.5  # the baseline's knot-value weight
_BLOCK_ROWS = 256  # bounds the (rows, k) temporaries of one block


def _knot_mask(x: np.ndarray, knot: np.ndarray) -> None:
    """Fill `knot` with the knots of each row of the (n, k) matrix x, k >= 2:
    both endpoints plus the first position of every interior run of equal
    values that lies above or below both neighbouring runs."""
    n, k = x.shape
    pos = np.arange(k)
    change = x[:, 1:] != x[:, :-1]  # [:, j - 1]: a run starts at position j
    # nxt[:, j - 1], j = 1..k-2: the first run start after j, k if none
    starts = np.where(change, pos[1:], k)
    nxt = np.minimum.accumulate(starts[:, :0:-1], axis=1)[:, ::-1]
    # the value of the next run, gathered at flat indices; k is the next
    # row's first position (clipped for the last row), read only where
    # there is no next run and so never used
    rows_at = np.arange(0, n * k, k)[:, None]
    next_v = x.ravel().take(nxt + rows_at, mode="clip")
    mid = x[:, 1:-1]
    knot[:, :: k - 1] = True  # both endpoints
    # adjacent runs always differ, so this is the opposite-signs test on the
    # flanking differences without an overflow-prone product
    knot[:, 1:-1] = change[:, :-1] & (nxt < k) & ((mid > x[:, :-2]) != (next_v > mid))


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
    operation, in Python floats."""
    k = len(x)
    starts = [j for j in range(1, k) if x[j] != x[j - 1]]  # run starts after 0
    knots = [0]
    for j, nxt in zip(starts, starts[1:]):  # the runs that have a next run
        cur = x[j]
        if (cur > x[j - 1]) != (x[nxt] > cur):
            knots.append(j)
    if len(knots) == 1:  # no interior knot: the baseline is the signal
        return x[:]
    knots.append(k - 1)
    baseline = x[:]
    for p, j, q in zip(knots, knots[1:], knots[2:]):
        xp = x[p]
        baseline[j] = _ALPHA * (xp + (j - p) / (q - p) * (x[q] - xp)) + (1.0 - _ALPHA) * x[j]
    for p, q in zip(knots, knots[1:]):
        if q - p > 1:  # positions between two knots follow the signal
            lp, xp = baseline[p], x[p]
            slope = (baseline[q] - lp) / (x[q] - xp)
            baseline[p + 1:q] = [lp + slope * (v - xp) for v in x[p + 1:q]]
    return baseline


def itd_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knot mask, baseline and rotation component of each row of the (n, k)
    matrix `x`; row i gives what a one-stage decomposition of `x[i]` does."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("need at least 2 points to decompose")
    if not np.isfinite(x).all():
        raise ValueError("input must be finite")
    knot = np.empty(x.shape, dtype=bool)
    baseline = x.copy()
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        _knot_mask(x[block], knot[block])
        _baseline(x[block], knot[block], baseline[block])
    return knot, baseline, x - baseline
