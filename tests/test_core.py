import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadiag.core import (
    EPS_PPM,
    MAX_PPM,
    MIN_PPM,
    FaultLabel,
    GasSample,
    _param_row,
    param_matrix,
)

ROW1 = GasSample(292, 346, 32, 313, 196)


def _oracle_params(sample: GasSample) -> np.ndarray:
    """The 37 parameters of one sample, one scalar Python operation at a
    time, in the numbering of `param_matrix`."""
    h2, ch4, c2h6, c2h4, c2h2 = sample.gases()
    th = h2 + ch4 + c2h6 + c2h4 + c2h2
    thd = ch4 + c2h4 + c2h2
    thh = h2 + c2h4 + c2h2
    tch = ch4 + c2h6 + c2h4 + c2h2

    def over(num: float, den: float) -> float:
        return num / max(den, EPS_PPM)

    v = [over(g, th) for g in (h2, ch4, c2h6, c2h4, c2h2)]
    v += [over(c2h2, den) for den in (h2, ch4, c2h6, c2h4)]
    v += [over(c2h4, den) for den in (h2, ch4, c2h6)]
    v += [v[9] + v[10]]
    v += [h2, ch4, c2h6, c2h4, c2h2, th, thd, thh, tch]
    for agg in (thd, thh, tch):
        v += [over(g, agg) for g in (h2, ch4, c2h6, c2h4, c2h2)]
    return np.array(v, dtype=np.float64)


def params(sample: GasSample) -> np.ndarray:
    """Row of `param_matrix` for one sample; parameter n is at index n - 1."""
    return param_matrix([sample])[0]


def test_aggregates_row1():
    th, thd, thh, tch = params(ROW1)[18:22]
    # direct summation oracle
    assert th == 292 + 346 + 32 + 313 + 196 == 1179
    assert thd == 346 + 313 + 196 == 855
    assert thh == 292 + 313 + 196 == 801
    assert tch == 346 + 32 + 313 + 196 == 887


def test_aggregates_zero_and_unit():
    assert params(GasSample(0, 0, 0, 0, 0))[18:22].tolist() == [0, 0, 0, 0]
    assert params(GasSample(1, 1, 1, 1, 1))[18:22].tolist() == [5, 3, 3, 4]


def test_param_vector_row1():
    pv = params(ROW1)
    assert pv[28 - 1] == pytest.approx(292 / 801, rel=1e-12)
    assert pv[24 - 1] == pytest.approx(346 / 855, rel=1e-12)
    # exact arithmetic gives 1.976542...; quoted hand value 1.97649 is a
    # rounding slip, covered by the tolerance
    assert pv[13 - 1] == pytest.approx(313 / 292 + 313 / 346, rel=1e-12)
    assert pv[13 - 1] == pytest.approx(1.9765, abs=1e-3)


def test_param_vector_equal_gases():
    pv = params(GasSample(1, 1, 1, 1, 1))
    for number in range(1, 6):
        assert pv[number - 1] == pytest.approx(0.2)
    for number in range(6, 13):
        assert pv[number - 1] == 1.0
    assert pv[13 - 1] == 2.0


def test_param_vector_all_zero():
    assert np.all(params(GasSample(0, 0, 0, 0, 0)) == 0.0)


def test_param_vector_raw_and_aggregate_entries():
    pv = params(ROW1)
    assert pv[13:18].tolist() == [292, 346, 32, 313, 196]
    assert pv[18:22].tolist() == [
        292 + 346 + 32 + 313 + 196,
        346 + 313 + 196,
        292 + 313 + 196,
        346 + 32 + 313 + 196,
    ]


def test_param_13_is_sum_of_10_and_11_exactly():
    for gases in [(292, 346, 32, 313, 196), (0.3, 7, 1, 2.5, 9), (0, 0, 0, 0, 0)]:
        pv = params(GasSample(*gases))
        assert pv[13 - 1] == pv[10 - 1] + pv[11 - 1]


gas_values = st.floats(min_value=0.01, max_value=1e5)


@given(
    st.tuples(gas_values, gas_values, gas_values, gas_values, gas_values),
    st.floats(min_value=0.1, max_value=1e3),
)
def test_scale_equivariance(gases, c):
    c = min(c, 0.999 * MAX_PPM / max(gases))  # scaled gases stay below the ceiling
    base = params(GasSample(*gases))
    scaled = params(GasSample(*(g * c for g in gases)))
    ratio_idx = [n - 1 for n in list(range(1, 14)) + list(range(23, 38))]
    raw_idx = [n - 1 for n in range(14, 23)]
    assert np.allclose(scaled[ratio_idx], base[ratio_idx], rtol=1e-12, atol=0)
    assert np.allclose(scaled[raw_idx], base[raw_idx] * c, rtol=1e-12, atol=0)


def test_gas_sample_validation():
    with pytest.raises(ValueError, match="h2"):
        GasSample(-1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="ch4"):
        GasSample(0, math.nan, 0, 0, 0)
    with pytest.raises(ValueError, match="c2h2"):
        GasSample(0, 0, 0, 0, math.inf)


def test_gas_sample_is_a_frozen_slotted_value():
    sample = GasSample(1.5, 2.0, 0.0, 4.0, 5.0, label=FaultLabel.T2, id="s1")
    assert not hasattr(sample, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.h2 = 3.0
    twin = GasSample(1.5, 2.0, 0.0, 4.0, 5.0, label=FaultLabel.T2, id="s1")
    assert sample == twin and hash(sample) == hash(twin) and len({sample, twin}) == 1
    assert sample != dataclasses.replace(sample, id="s2")
    moved = dataclasses.replace(sample, ch4=7.0)
    assert moved.gases() == (1.5, 7.0, 0.0, 4.0, 5.0)
    assert (moved.label, moved.id) == (FaultLabel.T2, "s1")
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(sample, c2h6=-1.0)
    assert str(exc.value) == "gas c2h6 must be 0 or in 1e-09..1e+06 ppm, got -1.0 (sample s1)"


@dataclasses.dataclass(frozen=True, slots=True)
class _GeneratedSample:
    """`GasSample`'s fields with the `__init__` that dataclasses generates:
    the reference for what its own `__init__` keeps."""

    h2: float
    ch4: float
    c2h6: float
    c2h4: float
    c2h2: float
    label: FaultLabel | None = None
    id: str = ""


def test_gas_sample_init_keeps_the_dataclass_behaviour():
    def params(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    assert params(GasSample) == params(_GeneratedSample)
    assert GasSample.__match_args__ == _GeneratedSample.__match_args__
    assert GasSample.__slots__ == _GeneratedSample.__slots__
    fields = [(f.name, f.default) for f in dataclasses.fields(GasSample)]
    assert fields == [(f.name, f.default) for f in dataclasses.fields(_GeneratedSample)]
    for args, kwargs in [
        ((1.5, 2.0, 0.0, 4.0, 5.0), {}),
        ((1, 2, 3), {"c2h4": 4, "c2h2": 0.0, "id": "k"}),
        ((), {"h2": 0.0, "ch4": -0.0, "c2h6": 1e-9, "c2h4": 1e6, "c2h2": 7, "label": FaultLabel.D1}),
        ((0.5, 0.5, 0.5, 0.5, 0.5, FaultLabel.PD, "s"), {}),
    ]:
        sample, want = GasSample(*args, **kwargs), _GeneratedSample(*args, **kwargs)
        assert repr(sample) == repr(want).replace("_GeneratedSample", "GasSample")
        assert dataclasses.astuple(sample) == dataclasses.astuple(want)
        assert hash(sample) == hash(want)
        assert sample == GasSample(*args, **kwargs) and sample != want
        match sample:
            case GasSample(h2, ch4, c2h6, c2h4, c2h2, label, id):
                assert (h2, ch4, c2h6, c2h4, c2h2, label, id) == dataclasses.astuple(want)
        moved = dataclasses.replace(sample, c2h2=9.0, id="moved")
        assert dataclasses.astuple(moved) == dataclasses.astuple(
            dataclasses.replace(want, c2h2=9.0, id="moved"))
        for name in GasSample.__match_args__:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
                setattr(sample, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
                delattr(sample, name)
    with pytest.raises(TypeError):
        GasSample(1, 2, 3, 4)  # a missing gas, as the generated __init__ refuses it
    with pytest.raises(TypeError):
        GasSample(1, 2, 3, 4, 5, colour="red")


@pytest.mark.parametrize("gases, message", [
    ((-1, 2e6, 0, 0, 0), "gas h2 must be 0 or in 1e-09..1e+06 ppm, got -1"),  # the first bad gas
    ((0, 2e6, math.nan, 0, 0), "gas ch4 must be 0 or in 1e-09..1e+06 ppm, got 2000000.0"),
    ((0, 0, math.nan, 0, 0), "gas c2h6 must be 0 or in 1e-09..1e+06 ppm, got nan"),
    ((0, 0, 0, -math.inf, 0), "gas c2h4 must be 0 or in 1e-09..1e+06 ppm, got -inf"),
    ((0, 0, 0, 0, 1e6 + 1), "gas c2h2 must be 0 or in 1e-09..1e+06 ppm, got 1000001.0"),
])
def test_out_of_range_message_names_gas_and_sample(gases, message):
    with pytest.raises(ValueError) as exc:
        GasSample(*gases)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        GasSample(*gases, id="r7")
    assert str(exc.value) == message + " (sample r7)"


def test_gas_floor():
    # a nonzero gas is at least MIN_PPM; one ulp less is refused, naming the gas
    assert params(GasSample(0, MIN_PPM, 0, 0, 0))[14] == MIN_PPM
    assert params(GasSample(-0.0, 0, 0, 0, 0))[13] == 0
    with pytest.raises(ValueError, match="^gas c2h6 must be 0 or in 1e-09"):
        GasSample(0, 0, float(np.nextafter(MIN_PPM, 0)), 0, 0)
    with pytest.raises(ValueError, match="h2"):
        GasSample(5e-324, 1, 1, 1, 1)


def test_gas_ceiling():
    # a million ppm is the whole volume; one ulp more is rejected
    assert params(GasSample(MAX_PPM, 0, 0, 0, 0))[0] == 1.0
    with pytest.raises(ValueError, match="c2h4"):
        GasSample(0, 0, 0, np.nextafter(MAX_PPM, math.inf), 0)
    with pytest.raises(ValueError, match="h2"):
        GasSample(1e308, 1e308, 1, 1, 1)


def test_param_matrix_shape_and_empty():
    mat = param_matrix([ROW1, GasSample(1, 1, 1, 1, 1)])
    assert mat.shape == (2, 37)
    assert np.all(np.isfinite(mat))
    with pytest.raises(ValueError):
        param_matrix([])


def test_denominator_clamp():
    # zero denominators divide by EPS_PPM instead of failing
    pv = params(GasSample(0, 0, 0, 0, 5))
    assert pv[6 - 1] == 5 / EPS_PPM
    assert math.isfinite(pv[6 - 1])


def test_fault_label_canonical_order():
    assert [lbl.value for lbl in FaultLabel] == ["PD", "D1", "D2", "T1", "T2", "T3"]


EDGE_PPM = [
    0.0,
    EPS_PPM,
    float(np.nextafter(EPS_PPM, 0)),
    float(np.nextafter(EPS_PPM, 1)),
    5e-4,
    MIN_PPM,
    float(np.nextafter(MIN_PPM, 1)),
    1.0,
    MAX_PPM,
    float(np.nextafter(MAX_PPM, 0)),
]
edge_gas = st.one_of(
    st.sampled_from(EDGE_PPM), st.floats(min_value=MIN_PPM, max_value=MAX_PPM)
)
edge_samples = st.lists(
    st.tuples(edge_gas, edge_gas, edge_gas, edge_gas, edge_gas).map(
        lambda g: GasSample(*g)
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(edge_samples)
def test_param_matrix_matches_scalar_oracle(samples):
    got = param_matrix(samples)
    expected = np.stack([_oracle_params(s) for s in samples])
    assert got.shape == (len(samples), 37)
    assert got.tobytes() == expected.tobytes()
    # the float evaluation of the same listing, signed zeros included
    assert np.array([_param_row(s) for s in samples]).tobytes() == expected.tobytes()
    ratios = np.delete(got, np.s_[12:22], axis=1)
    assert np.all(ratios <= MAX_PPM / EPS_PPM)
    assert np.all(got[:, 12] <= 2 * MAX_PPM / EPS_PPM)


@pytest.mark.parametrize("gases", [
    (MAX_PPM, MIN_PPM, MIN_PPM, MIN_PPM, MIN_PPM),  # each addend rounds up
    (MIN_PPM, MAX_PPM, MIN_PPM, MIN_PPM, MIN_PPM),
    (0.0, -0.0, -0.0, -0.0, -0.0),  # a sum of signed zeros keeps its sign
    (-0.0,) * 5,
])
@pytest.mark.parametrize("n", [1, 9, 300])
def test_aggregate_sums_add_left_to_right(gases, n):
    got = param_matrix([GasSample(*gases)] * n)
    expected = _oracle_params(GasSample(*gases))
    assert got.tobytes() == np.stack([expected] * n).tobytes()
    assert np.array(_param_row(GasSample(*gases))).tobytes() == expected.tobytes()
    h2, ch4, c2h6, c2h4, c2h2 = gases
    pairwise = ((h2 + ch4) + (c2h6 + c2h4)) + c2h2
    if pairwise:  # the nonzero cases: adding pairwise gives another TH
        assert got[0, 18] != pairwise
