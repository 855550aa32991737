"""Domain types for dissolved-gas samples and the 37 ratio parameters.

Five dissolved gases are tracked per transformer oil sample: hydrogen (H2),
methane (CH4), ethane (C2H6), ethylene (C2H4) and acetylene (C2H2), all in ppm.
Each is 0 (not detected) or in 1e-9..1e6 ppm.  From them a fixed family of 37
parameters is derived: simple ratios, the raw concentrations, four aggregate
sums, and ratios against those aggregates; all are finite, and so are their
rotation components.  Parameter numbering is 1-based throughout (persisted
files record numbers 1..37); see `param_matrix` for the full listing.  The
listing is written once, in `_params`: `param_matrix` evaluates it on numpy
gas columns for a batch and `_param_row` on one sample's Python floats.
Each argument rule has one owner here: `_integer` (any integer type but
bool), `_real` (any real type but bool, a gas of `GasSample` too), `_seed`
(a non-negative integer, for `_rng`), `_class_indices` (labels) and
`GasSample` (a label or None, and a string id without NUL).
Their refusals show the value through `_shown`, which stands in for an
integer too long for `repr` (over Python's 4300-digit default limit).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from enum import Enum
from itertools import chain
from operator import attrgetter

import numpy as np

# Floor applied to every ratio denominator, in ppm.  Field datasets commonly
# record "not detected" as 0.001 ppm; clamping keeps all 37 parameters finite.
EPS_PPM = 1e-3
# Ceiling on every gas concentration, in ppm: a million ppm is the whole
# volume.  With EPS_PPM it bounds every single ratio by 1e9.
MAX_PPM = 1e6
# Floor on every nonzero gas, in ppm, far below any DGA detection limit.  Every
# nonzero parameter is then in 1e-9 / 5e6 = 2e-16..2e9, so two distinct ones
# differ by at least ulp(2e-16) ~ 2.5e-32; baselines stay within the signal's
# range, so every ITD slope is below about 2e41 and every feature below 1e51.
MIN_PPM = 1e-9


class FaultLabel(Enum):
    """Six-class fault taxonomy for labeled samples.

    PD = partial discharge, D1/D2 = low/high energy discharge,
    T1/T2/T3 = thermal faults <300, 300-700, >700 degrees C.
    Definition order is the canonical ordering used for confusion-matrix
    indexing and argmax tie-breaking.
    """

    PD = "PD"
    D1 = "D1"
    D2 = "D2"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"


CLASS_ORDER: tuple[FaultLabel, ...] = tuple(FaultLabel)
N_CLASSES = len(CLASS_ORDER)
N_PARAMS = 37


def _shown(value) -> str:
    """`repr(value)`, or a stand-in for it when it would need an integer of
    more digits than Python converts to text (`sys.get_int_max_str_digits`)."""
    try:
        return repr(value)
    except ValueError:
        sign = "a negative" if value < 0 else "a"
        return f"{sign} number of over {sys.get_int_max_str_digits()} digits"


def _integer(name: str, value) -> int:
    """`value` as an `int`, once it is an integer of any type but bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def _real(name: str, value) -> float:
    """`value` as a `float`, once it is a real number of any type but bool
    that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must be a number, got an integer too large for a float") from None


def _seed(value) -> int:
    """`value` as an `int`, once it is a non-negative integer."""
    seed = _integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {_shown(value)}")
    return seed


def _rng(seed) -> np.random.Generator:
    """The generator of `seed`, once `_seed` has checked it."""
    return np.random.default_rng(_seed(seed))


def _class_indices(labels) -> np.ndarray:
    """The `CLASS_ORDER` index of each label, once each is a `FaultLabel`."""
    bad = [label for label in labels if not isinstance(label, FaultLabel)]
    if bad:
        raise ValueError(f"label {_shown(bad[0])} is not a FaultLabel: samples must be labeled")
    return np.array([CLASS_ORDER.index(label) for label in labels], dtype=np.intp)


class DiagnosisOutcome(Enum):
    """Outcome alphabet of the rule-based ratio methods.

    Extends the six fault classes with NF ("no fault", Rogers and IEC
    only), UD ("undefined": no matching ratio code from Rogers or IEC, or a
    zero CH4 + C2H4 + C2H2 sum in the Duval triangle) and DT (mixed
    discharge/thermal zone, Duval only).
    """

    PD = "PD"
    D1 = "D1"
    D2 = "D2"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    NF = "NF"
    UD = "UD"
    DT = "DT"


@dataclass(frozen=True, slots=True)
class GasSample:
    """One transformer's five gas concentrations (ppm), its FaultLabel or
    None and its id, a string with no NUL character; each gas is a real
    number that `_real` takes, 0 (not detected) or in MIN_PPM..MAX_PPM, and
    is stored as given."""

    h2: float
    ch4: float
    c2h6: float
    c2h4: float
    c2h2: float
    label: FaultLabel | None = None
    id: str = ""

    def __init__(self, h2: float, ch4: float, c2h6: float, c2h4: float, c2h2: float,
                 label: FaultLabel | None = None, id: str = "") -> None:
        if not type(h2) is type(ch4) is type(c2h6) is type(c2h4) is type(c2h2) is float:
            for name, value in zip(GAS_NAMES, (h2, ch4, c2h6, c2h4, c2h2)):
                _real(f"gas {name}", value)  # a bool, a string or None is no gas
        # The slots' own setters: the generated frozen __init__ makes one
        # `object.__setattr__` call per field, about 1.6 us a sample against
        # 0.8 us here (Python 3.11).
        _set_h2(self, h2)
        _set_ch4(self, ch4)
        _set_c2h6(self, c2h6)
        _set_c2h4(self, c2h4)
        _set_c2h2(self, c2h2)
        _set_label(self, label)
        _set_id(self, id)
        if label is not None and not isinstance(label, FaultLabel):
            raise ValueError(f"label {_shown(label)} is not a FaultLabel or None")
        if not isinstance(id, str):
            raise ValueError(f"id must be a string, got {_shown(id)}")
        if "\0" in id:  # Python 3.10's csv reader refuses NUL, so no data file could hold it
            raise ValueError(f"id {id!r} holds a NUL character")
        if not ((MIN_PPM <= h2 <= MAX_PPM or h2 == 0)
                and (MIN_PPM <= ch4 <= MAX_PPM or ch4 == 0)
                and (MIN_PPM <= c2h6 <= MAX_PPM or c2h6 == 0)
                and (MIN_PPM <= c2h4 <= MAX_PPM or c2h4 == 0)
                and (MIN_PPM <= c2h2 <= MAX_PPM or c2h2 == 0)):
            for name, value in zip(GAS_NAMES, self.gases()):  # the first bad gas
                if not (MIN_PPM <= value <= MAX_PPM or value == 0):
                    raise ValueError(
                        f"gas {name} must be 0 or in {MIN_PPM:g}..{MAX_PPM:g} ppm, "
                        f"got {_shown(value)}"
                        + (f" (sample {id})" if id else "")
                    )

    def gases(self) -> tuple[float, float, float, float, float]:
        return (self.h2, self.ch4, self.c2h6, self.c2h4, self.c2h2)


# the setters of GasSample's slots, which bypass its frozen __setattr__
_set_h2, _set_ch4, _set_c2h6, _set_c2h4, _set_c2h2, _set_label, _set_id = (
    vars(GasSample)[f.name].__set__ for f in fields(GasSample)
)


def _frozen(self, name, *value):
    """GasSample's __setattr__ and __delattr__, with the dataclass's messages:
    its own refused a field, but called super() on the class `slots=True`
    replaced for any other name, which raised TypeError (Python 3.11)."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


GasSample.__setattr__ = GasSample.__delattr__ = _frozen
GAS_NAMES = ("h2", "ch4", "c2h6", "c2h4", "c2h2")
_GASES = attrgetter(*GAS_NAMES)  # a sample's five gases, as `GasSample.gases`


def _params(h2, ch4, c2h6, c2h4, c2h2, larger):
    """The 37 parameters of `param_matrix`'s listing, in its order, from the
    five gases: Python floats with `larger=max`, or numpy gas arrays with
    `larger=np.maximum`.  The operations and their order are the same
    either way, so a sample gets the same bits from both."""
    th = h2 + ch4 + c2h6 + c2h4 + c2h2
    thd = ch4 + c2h4 + c2h2
    thh = h2 + c2h4 + c2h2
    tch = ch4 + c2h6 + c2h4 + c2h2
    d_h2, d_ch4, d_c2h6, d_c2h4, d_th, d_thd, d_thh, d_tch = [
        larger(den, EPS_PPM) for den in (h2, ch4, c2h6, c2h4, th, thd, thh, tch)
    ]
    p10, p11 = c2h4 / d_h2, c2h4 / d_ch4
    return [
        h2 / d_th, ch4 / d_th, c2h6 / d_th, c2h4 / d_th, c2h2 / d_th,
        c2h2 / d_h2, c2h2 / d_ch4, c2h2 / d_c2h6, c2h2 / d_c2h4,
        p10, p11, c2h4 / d_c2h6, p10 + p11,
        h2, ch4, c2h6, c2h4, c2h2,
        th, thd, thh, tch,
        h2 / d_thd, ch4 / d_thd, c2h6 / d_thd, c2h4 / d_thd, c2h2 / d_thd,
        h2 / d_thh, ch4 / d_thh, c2h6 / d_thh, c2h4 / d_thh, c2h2 / d_thh,
        h2 / d_tch, ch4 / d_tch, c2h6 / d_tch, c2h4 / d_tch, c2h2 / d_tch,
    ]


def param_matrix(samples: list[GasSample]) -> np.ndarray:
    """The (n, 37) matrix of derived parameters, one row per sample.

    Column i-1 holds parameter number i (1-based):
      1-5   each gas / TH, in order H2, CH4, C2H6, C2H4, C2H2
      6-9   C2H2 / {H2, CH4, C2H6, C2H4}
      10-12 C2H4 / {H2, CH4, C2H6}
      13    (C2H4/H2) + (C2H4/CH4), i.e. parameter 10 + parameter 11
      14-18 the raw gases, same gas order as 1-5
      19-22 the aggregate sums:
              TH  = H2 + CH4 + C2H6 + C2H4 + C2H2  (total)
              THD = CH4 + C2H4 + C2H2
              THH = H2 + C2H4 + C2H2
              TCH = CH4 + C2H6 + C2H4 + C2H2       (total hydrocarbons)
      23-27 each gas / THD
      28-32 each gas / THH
      33-37 each gas / TCH

    Sums run left to right as written.  Every denominator is clamped below
    at EPS_PPM before dividing, so all entries are finite even for all-zero
    samples; with gases at most MAX_PPM no ratio exceeds 1e9 (twice
    that for parameter 13).  `_params` evaluates the listing on the five
    gas columns; the matrix is the transpose of its parameter-major array,
    so each column is contiguous.
    """
    if not samples:
        raise ValueError("empty sample list")
    n = len(samples)
    gases = np.fromiter(
        chain.from_iterable(map(_GASES, samples)), np.float64, 5 * n
    ).reshape(n, 5).T.copy()  # one contiguous row per gas
    return np.array(_params(*gases, np.maximum)).T


def _param_row(sample: GasSample) -> list[float]:
    """The 37 parameters of one sample as Python floats: the bits of its
    row of `param_matrix`, without numpy's per-call cost."""
    return _params(*map(float, _GASES(sample)), max)
