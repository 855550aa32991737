"""Calibration kernels: fixed work that measures the host's current speed.

The shared 2-core host the benchmark was defined on runs the same code at
speeds up to 2x apart within minutes: 30 s medians of one operation moved by
+-30%, while their ratio to a kernel of the same kind of work, timed in
between, moved by +-4 to 10%.  So a block of kernel runs follows every pass
and every set-up, and each of those times is multiplied by REF_S / (median
kernel time of the blocks just before and after it): it is reported at the
reference speed, where the kernel takes its REF_S time (about its median on
that host).  A kernel is the benchmark's own
frozen copy of the kind of work a workload does, so that it slows down with
it; it never calls dgadiag, so a change to the program does not move it.

- `split`: exact split search over a (320, 24) node, as in boosted-tree
  training (argsort, cumsum, gain, argmax).  Tracks `model-dev`.
- `rows`: small per-row numpy calls plus interpreter work, as in building
  one sample's parameters and rotation component.  Tracks `fleet-screen`.
- `walk`: one row down 150 stumps with a numpy call per node, as in
  predicting one row.  Tracks `field-single`.
"""

from __future__ import annotations

import time

import numpy as np

CALLS = 10  # kernel runs per calibration block, at least
BLOCK_SHARE = 0.03  # and at least this share of the time measured before it

_rng = np.random.default_rng(0)
_SMALL = _rng.random((64, 8))
_NODE_X = _rng.random((320, 24))
_NODE_G = _rng.standard_normal(320)
_NODE_H = _rng.random(320)
_STUMPS = [(int(_rng.integers(24)), float(_rng.random()), float(_rng.random()), float(_rng.random()))
           for _ in range(150)]
_ROW = _rng.random((1, 24))


def split() -> float:
    acc = 0.0
    for i in range(6):
        idx = np.arange(320 - 40 * i)
        xs_node = _NODE_X[idx]
        order = np.argsort(xs_node, axis=0, kind="stable")
        xs = np.take_along_axis(xs_node, order, axis=0)
        gs = _NODE_G[idx][order]
        hs = _NODE_H[idx][order]
        gl = np.cumsum(gs, axis=0)[:-1]
        hl = np.cumsum(hs, axis=0)[:-1]
        g, h = gs.sum(axis=0), hs.sum(axis=0)
        gain = gl * gl / (hl + 1.0) + (g - gl) ** 2 / (h - hl + 1.0)
        gain = np.where(xs[1:] > xs[:-1], gain, -np.inf)
        acc += float(np.argmax(np.ascontiguousarray(gain.T)))
    return acc


def rows() -> float:
    acc = 0.0
    for i in range(80):
        v = _SMALL[i % len(_SMALL)]
        order = v.argsort(kind="stable")
        acc += float(v[order].cumsum()[-1]) + len([j * 0.5 for j in range(30)])
    return acc


def walk() -> float:
    out = np.zeros(1)
    for feature, threshold, w_left, w_right in _STUMPS:
        idx = np.arange(1)
        col = _ROW[idx, feature]
        go_left = np.where(np.isfinite(col), col < threshold, True)
        left, right = idx[go_left], idx[~go_left]
        if left.size:
            out[left] += w_left
        if right.size:
            out[right] += w_right
    return float(out[0])


KERNELS = {"split": split, "rows": rows, "walk": walk}
REF_S = {"split": 3.5e-3, "rows": 0.55e-3, "walk": 1.6e-3}


def block(name: str, after_s: float = 0.0) -> list[float]:
    """Times of the named kernel, run CALLS times or for BLOCK_SHARE of
    `after_s` (the time just measured), whichever is longer."""
    kernel = KERNELS[name]
    times = []
    while len(times) < CALLS or sum(times) < BLOCK_SHARE * after_s:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times
