import numpy as np
import pytest

from dgadiag.conventional import (
    _duval_zone,
    _iec_codes,
    _rogers_codes,
    duval,
    duval_coords,
    iec_ratio,
    rogers,
)
from dgadiag.core import DiagnosisOutcome, GasSample

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


def test_duval_coords_sum_to_100():
    c = duval_coords(GasSample(292, 346, 32, 313, 196))
    assert c.pct_ch4 + c.pct_c2h4 + c.pct_c2h2 == pytest.approx(100.0, abs=1e-9)


def test_duval_zero_triangle_sum():
    # no point in the triangle: the diagnosis is undefined, the coordinates
    # do not exist
    assert duval(GasSample(100, 0, 50, 0, 0)) == DiagnosisOutcome.UD
    with pytest.raises(ValueError, match="duval undefined"):
        duval_coords(GasSample(100, 0, 50, 0, 0))


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
