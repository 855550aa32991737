import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadiag.conventional import (
    _ROGERS_TABLE,
    _duval_pcts,
    _duval_zone,
    _iec_codes,
    _rogers_codes,
    duval,
    iec_ratio,
    rogers,
)
from dgadiag.core import EPS_PPM, MAX_PPM, MIN_PPM, DiagnosisOutcome, GasSample

# the bundled six-transformer reference rows: gases, actual fault, and the
# printed outcome of each method
REFERENCE_ROWS = [
    ((292, 346, 32, 313, 196), "D2", "D2", "UD", "UD"),
    ((385, 28.8, 50, 82.3, 171), "D1", "D2", "UD", "UD"),
    ((34, 8.6, 70.3, 3.1, 0.001), "T1", "T2", "T1", "NF"),
    ((157, 46, 76, 12, 0.001), "T1", "T2", "T1", "NF"),
    ((10, 15, 0.001, 0.001, 35), "D2", "D1", "UD", "UD"),
    ((1651, 90, 33, 45, 2), "PD", "T2", "UD", "UD"),
]


@pytest.mark.parametrize("gases,actual,exp_duval,exp_rogers,exp_iec", REFERENCE_ROWS)
def test_reference_outcomes(gases, actual, exp_duval, exp_rogers, exp_iec):
    sample = GasSample(*gases)
    assert duval(sample).value == exp_duval
    assert rogers(sample).value == exp_rogers
    assert iec_ratio(sample).value == exp_iec


def test_duval_zero_triangle_sum():
    # no point in the triangle: the diagnosis is undefined
    assert duval(GasSample(100, 0, 50, 0, 0)) == DiagnosisOutcome.UD
    assert _duval_pcts(GasSample(100, 0, 50, 0, 0)) is None


def test_duval_zone_total_over_triangle():
    # every random coordinate triple lands in exactly one zone (the chain is
    # total and deterministic)
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(10_000):
        raw = rng.dirichlet(np.ones(3)) * 100.0
        zone = _duval_zone(raw[0], raw[1], raw[2])
        assert isinstance(zone, DiagnosisOutcome)
        outcomes.add(zone)
    # the sampler should visit every zone, DT included
    assert {o.value for o in outcomes} == {"PD", "D1", "D2", "T1", "T2", "T3", "DT"}


def test_duval_known_zone_points():
    assert _duval_zone(99, 0.5, 0.5) == DiagnosisOutcome.PD
    assert _duval_zone(90, 8, 2) == DiagnosisOutcome.T1
    assert _duval_zone(60, 38, 2) == DiagnosisOutcome.T2
    assert _duval_zone(30, 65, 5) == DiagnosisOutcome.T3
    assert _duval_zone(40, 10, 50) == DiagnosisOutcome.D1
    assert _duval_zone(35, 30, 35) == DiagnosisOutcome.D2
    assert _duval_zone(45, 45, 10) == DiagnosisOutcome.DT


@pytest.mark.parametrize("method", [duval, rogers, iec_ratio])
@pytest.mark.parametrize("scale", [0.5, 3.0, 250.0])
def test_scale_invariance(method, scale):
    for gases, *_ in REFERENCE_ROWS:
        base = method(GasSample(*gases))
        scaled = method(GasSample(*(g * scale for g in gases)))
        assert scaled == base


def test_rogers_codes_examples():
    assert _rogers_codes(GasSample(34, 8.6, 70.3, 3.1, 0.001)) == (0, 1, 0, 0)
    assert _rogers_codes(GasSample(292, 346, 32, 313, 196)) == (1, 0, 2, 1)


def test_rogers_no_fault_and_pd():
    # R1 in (0.1, 1), R2 < 1, R3 < 1, R4 < 0.5 -> NF
    assert rogers(GasSample(100, 50, 10, 5, 1)) == DiagnosisOutcome.NF
    # R1 <= 0.1 flips only the first code -> PD
    assert rogers(GasSample(1000, 50, 10, 5, 1)) == DiagnosisOutcome.PD


def test_iec_codes_examples():
    assert _iec_codes(GasSample(34, 8.6, 70.3, 3.1, 0.001)) == (0, 0, 0)
    assert _iec_codes(GasSample(292, 346, 32, 313, 196)) == (1, 2, 2)


def test_iec_named_outcomes():
    assert iec_ratio(GasSample(100, 50, 10, 5, 0.1)) == DiagnosisOutcome.NF
    # Q2 < 0.1 with the other codes at 0 -> PD
    assert iec_ratio(GasSample(1000, 50, 10, 5, 0.1)) == DiagnosisOutcome.PD
    # discharge band: D1 without the high-energy carve-out
    assert iec_ratio(GasSample(100, 50, 10, 40, 150)) == DiagnosisOutcome.D1
    # high-energy carve-out: q1 in [0.6, 2.5], q3 > 3
    assert iec_ratio(GasSample(100, 50, 10, 100, 100)) == DiagnosisOutcome.D2
    # thermal ladder
    assert iec_ratio(GasSample(10, 50, 10, 5, 0.1)) == DiagnosisOutcome.T1
    assert iec_ratio(GasSample(10, 50, 10, 20, 0.1)) == DiagnosisOutcome.T2
    assert iec_ratio(GasSample(10, 50, 10, 50, 0.1)) == DiagnosisOutcome.T3


# The rule methods as written before their clamped divisions were inlined:
# one `_ratio` call (with `max`) per ratio and a coordinate record per Duval
# call.  They are the reference for the differential test below.
def _oracle_ratio(num: float, den: float) -> float:
    return num / max(den, EPS_PPM)


def _oracle_duval_coords(sample: GasSample) -> tuple[float, float, float]:
    total = sample.ch4 + sample.c2h4 + sample.c2h2
    if total <= 0:
        raise ValueError("duval undefined: CH4 + C2H4 + C2H2 is zero")
    return (
        100.0 * sample.ch4 / total,
        100.0 * sample.c2h4 / total,
        100.0 * sample.c2h2 / total,
    )


def _oracle_duval(sample: GasSample) -> DiagnosisOutcome:
    if sample.ch4 + sample.c2h4 + sample.c2h2 <= 0:
        return DiagnosisOutcome.UD
    return _duval_zone(*_oracle_duval_coords(sample))


def _oracle_rogers_codes(sample: GasSample) -> tuple[int, int, int, int]:
    r1 = _oracle_ratio(sample.ch4, sample.h2)
    r2 = _oracle_ratio(sample.c2h6, sample.ch4)
    r3 = _oracle_ratio(sample.c2h4, sample.c2h6)
    r4 = _oracle_ratio(sample.c2h2, sample.c2h4)

    if r1 <= 0.1:
        c1 = 5
    elif r1 < 1:
        c1 = 0
    elif r1 < 3:
        c1 = 1
    else:
        c1 = 2
    c2 = 0 if r2 < 1 else 1
    if r3 < 1:
        c3 = 0
    elif r3 < 3:
        c3 = 1
    else:
        c3 = 2
    if r4 < 0.5:
        c4 = 0
    elif r4 < 3:
        c4 = 1
    else:
        c4 = 2
    return (c1, c2, c3, c4)


def _oracle_iec_codes(sample: GasSample) -> tuple[int, int, int]:
    q1 = _oracle_ratio(sample.c2h2, sample.c2h4)
    q2 = _oracle_ratio(sample.ch4, sample.h2)
    q3 = _oracle_ratio(sample.c2h4, sample.c2h6)

    if q1 < 0.1:
        c1 = 0
    elif q1 <= 3:
        c1 = 1
    else:
        c1 = 2
    if q2 < 0.1:
        c2 = 1
    elif q2 <= 1:
        c2 = 0
    else:
        c2 = 2
    if q3 < 1:
        c3 = 0
    elif q3 <= 3:
        c3 = 1
    else:
        c3 = 2
    return (c1, c2, c3)


def _oracle_iec_ratio(sample: GasSample) -> DiagnosisOutcome:
    c1, c2, c3 = _oracle_iec_codes(sample)
    if (c1, c2, c3) == (0, 0, 0):
        return DiagnosisOutcome.NF
    if (c1, c2, c3) == (0, 1, 0):
        return DiagnosisOutcome.PD
    if c1 in (1, 2) and c2 == 0 and c3 in (1, 2):
        q1 = _oracle_ratio(sample.c2h2, sample.c2h4)
        if c1 == 1 and c3 == 2 and 0.6 <= q1 <= 2.5:
            return DiagnosisOutcome.D2
        return DiagnosisOutcome.D1
    if (c1, c2) == (0, 2):
        if c3 == 0:
            return DiagnosisOutcome.T1
        if c3 == 1:
            return DiagnosisOutcome.T2
        return DiagnosisOutcome.T3
    return DiagnosisOutcome.UD


EDGE_PPM = [
    0.0,
    -0.0,  # passes the range check
    EPS_PPM,
    float(np.nextafter(EPS_PPM, 0)),
    float(np.nextafter(EPS_PPM, 1)),
    EPS_PPM / 2,
    MIN_PPM,
    0.1,
    1.0,
    3.0,
    MAX_PPM,
    float(np.nextafter(MAX_PPM, 0)),
]
gas = st.one_of(
    st.sampled_from(EDGE_PPM),
    st.floats(min_value=MIN_PPM, max_value=MAX_PPM),
    st.integers(min_value=0, max_value=int(MAX_PPM)),
)
# every threshold of the Rogers and IEC code ladders, and a value past each end
RATIO_EDGES = [0.05, 0.1, 0.5, 0.6, 1.0, 2.5, 3.0, 4.0]


@st.composite
def ratio_edge_samples(draw) -> GasSample:
    """Gases chained so that CH4/H2, C2H6/CH4, C2H4/C2H6 and C2H2/C2H4 sit
    on (or one rounding from) code thresholds; a small start also puts the
    denominators around the EPS_PPM clamp."""
    start = draw(st.sampled_from([EPS_PPM / 4, EPS_PPM, 2.0**-10, 1.0, 10.0, 64.0, 0.3]))
    gases = [start]
    for _ in range(4):
        gases.append(gases[-1] * draw(st.sampled_from(RATIO_EDGES)))
    return GasSample(*gases)


@st.composite
def duval_edge_samples(draw) -> GasSample:
    """Integer percentages on the Duval zone edges, scaled by a power of two,
    so each computed percentage is exactly the edge value."""
    pct_c2h4, pct_c2h2 = draw(
        st.tuples(
            st.sampled_from([0, 1, 20, 23, 40, 50, 71]),
            st.sampled_from([0, 1, 2, 4, 13, 15, 29, 50]),
        ).filter(lambda p: sum(p) <= 100)
    )
    pct_ch4 = 100 - pct_c2h4 - pct_c2h2  # 98 when the other two add up to 2
    scale = 2.0 ** draw(st.integers(min_value=-12, max_value=12))
    return GasSample(
        draw(gas), pct_ch4 * scale, draw(gas), pct_c2h4 * scale, pct_c2h2 * scale
    )


samples = st.one_of(
    st.tuples(gas, gas, gas, gas, gas).map(lambda g: GasSample(*g)),
    ratio_edge_samples(),
    duval_edge_samples(),
)


def _assert_rules_match_the_oracle(sample: GasSample) -> None:
    assert duval(sample) is _oracle_duval(sample)
    assert _rogers_codes(sample) == _oracle_rogers_codes(sample)
    assert rogers(sample) is _ROGERS_TABLE.get(_oracle_rogers_codes(sample), DiagnosisOutcome.UD)
    assert _iec_codes(sample) == _oracle_iec_codes(sample)
    assert iec_ratio(sample) is _oracle_iec_ratio(sample)
    try:
        expected = _oracle_duval_coords(sample)
    except ValueError:
        assert _duval_pcts(sample) is None
    else:
        got = _duval_pcts(sample)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))
        assert sum(got) == pytest.approx(100.0, abs=1e-9)


@settings(max_examples=1500, deadline=None)
@given(samples)
def test_rules_match_the_oracle(sample):
    _assert_rules_match_the_oracle(sample)


@pytest.mark.parametrize("gases", [
    (100, 98, 1, 1, 1),  # %CH4 exactly 98
    (1, 96, 1, 0, 4),  # %C2H2 exactly 4
    (1, 72, 1, 15, 13),  # %C2H2 13
    (1, 50, 1, 50, 0),  # %C2H4 50
    (1, 33, 1, 40, 27),
    (1, 0, 1, 71, 29),
    (10, 1, 10, 30, 3),  # R1 exactly 0.1; R4 exactly 0.1
    (10, 5, 1, 4, 2.4),  # IEC discharge band, C2H2/C2H4 exactly 0.6
    (10, 5, 1, 4, 10),  # ... and exactly 2.5
    (EPS_PPM / 2, EPS_PPM / 10, EPS_PPM / 2, EPS_PPM, 3 * EPS_PPM),  # clamped
])
def test_rules_match_the_oracle_on_pinned_edges(gases):
    _assert_rules_match_the_oracle(GasSample(*gases))
