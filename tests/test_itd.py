import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgadiag.core import EPS_PPM, MAX_PPM, MIN_PPM, GasSample, param_matrix
from dgadiag.itd import _itd_list, itd_rows

signals = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=120),
    elements=st.floats(min_value=-1e6, max_value=1e6),
)


def _one_row(x):
    """(knots, baseline, prc) of one signal as a one-row matrix; knots are
    1-based."""
    knot, baseline, prc = itd_rows(np.asarray(x, dtype=np.float64)[None, :])
    return (np.flatnonzero(knot[0]) + 1).tolist(), baseline[0], prc[0]


def _knots(x):
    """1-based knots of one signal; the knot mask comes before the baseline,
    so a floating-point warning from the baseline does not concern it."""
    with np.errstate(all="ignore"):
        return _one_row(x)[0]


class TestFindExtrema:
    def test_single_peak(self):
        assert _knots([0, 1, 0]) == [1, 2, 3]

    def test_monotone(self):
        assert _knots([0, 1, 2, 3]) == [1, 4]

    def test_plateau_collapses_to_first_index(self):
        # enumerate the rule on the 4-point signal: diffs +1, 0, -1; the
        # plateau starts at index 2 and the flanking signs differ
        assert _knots([0, 1, 1, 0]) == [1, 2, 4]

    def test_plateau_without_sign_change(self):
        assert _knots([0, 1, 1, 2]) == [1, 4]

    def test_plateau_touching_endpoint(self):
        assert _knots([1, 1, 0]) == [1, 3]
        assert _knots([0, 1, 1]) == [1, 3]

    def test_too_short(self):
        with pytest.raises(ValueError):
            _knots([1.0])

    @given(signals)
    def test_strictly_increasing_within_bounds(self, x):
        knots = _knots(x)
        assert knots[0] == 1
        assert knots[-1] == len(x)
        assert all(a < b for a, b in zip(knots, knots[1:]))


class TestSingleStage:
    def test_constant_input(self):
        _, baseline, prc = _one_row([7, 7, 7, 7])
        assert np.array_equal(prc, np.zeros(4))
        assert np.array_equal(baseline, np.full(4, 7.0))

    def test_monotone_input(self):
        _, _, prc = _one_row([1, 2, 5, 9])
        assert np.array_equal(prc, np.zeros(4))

    def test_hand_example(self):
        knots, baseline, prc = _one_row([0, 1, 0, 1, 0])
        assert np.allclose(baseline, [0, 0.5, 0.5, 0.5, 0], atol=1e-15)
        assert np.allclose(prc, [0, 0.5, -0.5, 0.5, 0], atol=1e-15)
        assert knots == [1, 2, 3, 4, 5]

    def test_reconstruction_is_exact_by_construction(self):
        x = np.random.default_rng(1).normal(size=37)
        _, baseline, prc = _one_row(x)
        assert np.max(np.abs((x - baseline) - prc)) == 0.0

    def test_1000_seeded_reconstructions(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=int(rng.integers(2, 201)))
            _, baseline, prc = _one_row(x)
            assert np.max(np.abs((x - baseline) - prc)) == 0.0

    def test_endpoints_pinned(self):
        x = np.random.default_rng(2).normal(size=40)
        _, _, prc = _one_row(x)
        assert prc[0] == 0.0
        assert prc[-1] == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            _one_row([1.0])
        with pytest.raises(ValueError):
            _one_row([1.0, np.nan, 2.0])

# dyadic grid values: scaling by powers of two and adding dyadic shifts is
# then exact in binary floating point, so the knot layout cannot drift
dyadic_signals = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=120),
    elements=st.integers(min_value=-(2**20), max_value=2**20).map(
        lambda n: n / 64.0
    ),
)


class TestSingleStageProperties:
    @settings(max_examples=60)
    @given(dyadic_signals, st.sampled_from([0.5, 2.0, 4.0]))
    def test_amplitude_linearity(self, x, c):
        base = _one_row(x)[1]
        scaled = _one_row(c * x)[1]
        assert np.allclose(scaled, c * base, rtol=1e-12, atol=1e-300)

    @settings(max_examples=60)
    @given(dyadic_signals, st.sampled_from([-2.5, 5.25, 100.0]))
    def test_shift_equivariance(self, x, b):
        _, baseline, prc = _one_row(x)
        _, shifted_baseline, shifted_prc = _one_row(x + b)
        scale = max(1.0, float(np.max(np.abs(x))), abs(b))
        assert np.allclose(shifted_baseline, baseline + b, rtol=0, atol=1e-12 * scale)
        assert np.allclose(shifted_prc, prc, rtol=0, atol=1e-12 * scale)


def _oracle_find_extrema(x):
    """Reference: the knot rule as a loop over runs of equal values."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    run_starts = [0]
    for i in range(1, n):
        if x[i] != x[run_starts[-1]]:
            run_starts.append(i)
    knots = [1]
    for r in range(1, len(run_starts) - 1):
        prev_v = x[run_starts[r - 1]]
        cur_v = x[run_starts[r]]
        next_v = x[run_starts[r + 1]]
        if (cur_v > prev_v) != (next_v > cur_v):
            idx = run_starts[r] + 1
            if 1 < idx < n:
                knots.append(idx)
    if knots[-1] != n:
        knots.append(n)
    return knots


def _oracle_itd(x):
    """Reference: one ITD stage with alpha = 1/2 as loops over knots and
    segments; returns (knots, baseline, prc)."""
    x = np.asarray(x, dtype=np.float64)
    knots = _oracle_find_extrema(x)
    if len(knots) < 3:
        baseline = x.copy()
        return knots, baseline, x - baseline
    tau = np.asarray(knots, dtype=np.intp) - 1
    xk = x[tau]
    m = tau.size
    lk = np.empty(m, dtype=np.float64)
    lk[0] = xk[0]
    lk[-1] = xk[-1]
    for k in range(1, m - 1):
        frac = (tau[k] - tau[k - 1]) / (tau[k + 1] - tau[k - 1])
        lk[k] = 0.5 * (xk[k - 1] + frac * (xk[k + 1] - xk[k - 1])) + 0.5 * xk[k]
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
    return knots, baseline, x - baseline


# values the ranked parameter prefix takes: exact zeros, the ratio floor,
# ratios up to MAX_PPM / EPS_PPM = 1e9, and neighbours one ulp apart
_EDGE_VALUES = [
    0.0, -0.0, 5e-324, 1e-300, EPS_PPM, 0.5, 1.0, 2.0, 3.0, MAX_PPM,
    MAX_PPM / EPS_PPM, np.nextafter(MAX_PPM / EPS_PPM, 0.0), np.nextafter(1.0, 2.0),
]


@st.composite
def _signal_rows(draw):
    """An (n, k) matrix mixing random, tie-heavy, constant and monotone rows."""
    k = draw(st.integers(2, 37))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["normal", "grid", "edge", "constant", "monotone", "ratios"]))
        if kind == "normal":
            row = rng.normal(size=k)
        elif kind == "grid":  # plateaus of every length
            row = rng.integers(0, draw(st.integers(1, 4)), size=k).astype(np.float64)
        elif kind == "edge":
            row = rng.choice(np.array(_EDGE_VALUES), size=k)
        elif kind == "constant":
            row = np.full(k, rng.choice(np.array(_EDGE_VALUES)))
        elif kind == "monotone":
            row = np.sort(rng.integers(0, 5, size=k).astype(np.float64))
            if rng.random() < 0.5:
                row = row[::-1].copy()
        else:  # log-uniform magnitudes between 1e-12 and 1e9
            row = np.exp(rng.uniform(np.log(1e-12), np.log(MAX_PPM / EPS_PPM), size=k))
        rows.append(row)
    return np.array(rows)


def _with_fp_warnings(fn, *args):
    """fn(*args) and the kinds of floating-point warning it raised
    ("overflow", "invalid value", ...)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = fn(*args)
    return out, {str(w.message).split(" encountered")[0] for w in caught}


@settings(max_examples=300, deadline=None)
@given(_signal_rows())
def test_batched_itd_matches_per_row_loops(x):
    # a slope between knot values ~1e-300 apart overflows on both paths
    (knot, baseline, prc), kinds = _with_fp_warnings(itd_rows, x)
    want_kinds = set()
    for i, row in enumerate(x):
        (knots, want_baseline, want_prc), row_kinds = _with_fp_warnings(_oracle_itd, row)
        want_kinds |= row_kinds
        assert (np.flatnonzero(knot[i]) + 1).tolist() == knots
        assert baseline[i].tobytes() == want_baseline.tobytes()
        assert prc[i].tobytes() == want_prc.tobytes()
        (one_knots, one_baseline, one_prc), one_row_kinds = _with_fp_warnings(_one_row, row)
        assert one_row_kinds == row_kinds
        assert one_knots == knots
        assert one_baseline.tobytes() == want_baseline.tobytes()
        assert one_prc.tobytes() == want_prc.tobytes()
    assert kinds == want_kinds


def test_batched_itd_across_row_blocks():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 3, size=(700, 24)).astype(np.float64)
    x[::7] = rng.normal(size=(100, 24))
    _, baseline, prc = itd_rows(x)
    for i, row in enumerate(x):
        _, want_baseline, want_prc = _oracle_itd(row)
        assert baseline[i].tobytes() == want_baseline.tobytes()
        assert prc[i].tobytes() == want_prc.tobytes()


def test_batched_itd_checks():
    with pytest.raises(ValueError, match="2 points"):
        itd_rows(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="finite"):
        itd_rows(np.array([[1.0, 2.0, 1.0], [1.0, np.inf, 0.0]]))


# gases a valid sample may hold: 0, the floor and ceiling, the ratio clamp
# and their neighbours, or log-uniform; few per draw, so that values repeat
_SAMPLE_PPM = [0.0, -0.0, MIN_PPM, np.nextafter(MIN_PPM, 1.0), EPS_PPM,
               np.nextafter(EPS_PPM, 0.0), np.nextafter(EPS_PPM, 1.0), 1.0,
               np.nextafter(MAX_PPM, 0.0), MAX_PPM]


@st.composite
def _sample_signals(draw):
    """A ranked parameter prefix of a valid sample: the signals `_itd_list`
    is given."""
    pool = _SAMPLE_PPM + draw(st.lists(st.floats(-9, 6).map(lambda e: min(max(10.0**e, MIN_PPM), MAX_PPM)), max_size=3))
    gases = draw(st.tuples(*[st.sampled_from(pool)] * 5))
    order = draw(st.permutations(range(37)))
    k = draw(st.integers(2, 37))
    return param_matrix([GasSample(*map(float, gases))])[0, order[:k]]


@settings(max_examples=500, deadline=None)
@given(_sample_signals())
def test_list_itd_matches_the_loop_oracle(x):
    _, want_baseline, _ = _oracle_itd(x)
    got = np.array(_itd_list(x.tolist()))
    assert got.tobytes() == want_baseline.tobytes()
