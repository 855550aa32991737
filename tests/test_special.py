import math

import pytest
from scipy import integrate

from dgadiag import special
from dgadiag.special import betainc, f_sf


def beta_cdf_quadrature(a: float, b: float, x: float) -> float:
    """Brute-force oracle: integrate the beta density numerically."""
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - lbeta)

    value, _ = integrate.quad(density, 0.0, x, limit=200, epsabs=1e-12, epsrel=1e-12)
    return value


GRID_DF = (1, 5, 30)
GRID_F = (0.5, 1.5, 4.0)


@pytest.mark.parametrize("df1", GRID_DF)
@pytest.mark.parametrize("df2", GRID_DF)
@pytest.mark.parametrize("f", GRID_F)
def test_f_cdf_matches_quadrature(df1, df2, f):
    # the F cdf by quadrature is one minus the tail f_sf computes directly
    x = df1 * f / (df1 * f + df2)
    oracle = beta_cdf_quadrature(df1 / 2, df2 / 2, x)
    assert f_sf(f, df1, df2) == pytest.approx(1.0 - oracle, abs=1e-6)


@pytest.mark.parametrize("df1,df2", [(1, 4), (5, 5), (30, 7)])
def test_sf_monotone_decreasing_in_f(df1, df2):
    grid = [0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 4.0, 10.0, 50.0]
    values = [f_sf(f, df1, df2) for f in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_edge_cases():
    assert f_sf(0.0, 3, 3) == 1.0
    assert f_sf(math.inf, 3, 3) == 0.0
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0


def test_betainc_validation():
    with pytest.raises(ValueError):
        betainc(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betainc(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        f_sf(1.0, 0, 5)


def test_betainc_symmetry():
    # I_x(a, b) = 1 - I_{1-x}(b, a)
    for a, b, x in [(0.5, 2.5, 0.3), (4.0, 1.5, 0.8), (15.0, 15.0, 0.42)]:
        assert betainc(a, b, x) == pytest.approx(
            1.0 - betainc(b, a, 1.0 - x), abs=1e-12
        )


def _written_out_betacf(a: float, b: float, x: float) -> float:
    """`special._betacf` with its even and odd steps spelled out one after
    the other, as it read before one loop took both coefficients."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    frac = d
    for m in range(1, special._MAX_ITER + 1):
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
        if abs(delta - 1.0) < 10.0 * special._MACHEP:
            return frac
    return frac


def test_continued_fraction_is_bit_equal_to_its_written_out_steps(monkeypatch):
    # compared on this interpreter, not against a pinned digest: `math.lgamma`
    # and `math.log1p` come from the platform's libm
    dfs = (1, 2, 3, 4, 5, 7, 10, 15, 30, 100)
    fs = (1e-3, 0.05, 0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0, 10.0, 50.0, 1e3)
    shapes = (0.5, 1.0, 2.5, 10.0, 40.0)
    xs = (1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6)

    def values():
        tails = [f_sf(f, df1, df2) for df1 in dfs for df2 in dfs for f in fs]
        return tails + [betainc(a, b, x) for a in shapes for b in shapes for x in xs]

    got = values()
    monkeypatch.setattr(special, "_betacf", _written_out_betacf)
    want = values()
    assert len(got) == 1475
    assert [v.hex() for v in got] == [v.hex() for v in want]
