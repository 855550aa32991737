"""Domain types for dissolved-gas samples and the 37 ratio parameters.

Five dissolved gases are tracked per transformer oil sample: hydrogen (H2),
methane (CH4), ethane (C2H6), ethylene (C2H4) and acetylene (C2H2), all in ppm.
From them a fixed family of 37 parameters is derived: simple ratios, the raw
concentrations, four aggregate sums, and ratios against those aggregates.
Parameter numbering is 1-based throughout (persisted files record numbers
1..37); see `param_matrix` for the full listing.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """One transformer's five gas concentrations (ppm), optionally labeled."""

    h2: float
    ch4: float
    c2h6: float
    c2h4: float
    c2h2: float
    label: FaultLabel | None = None
    id: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.h2 <= MAX_PPM and 0 <= self.ch4 <= MAX_PPM
                and 0 <= self.c2h6 <= MAX_PPM and 0 <= self.c2h4 <= MAX_PPM
                and 0 <= self.c2h2 <= MAX_PPM):
            for name, value in zip(GAS_NAMES, self.gases()):  # the first bad gas
                if not 0 <= value <= MAX_PPM:
                    raise ValueError(
                        f"gas {name} must be in 0..{MAX_PPM:g} ppm, got {value!r}"
                        + (f" (sample {self.id})" if self.id else "")
                    )

    def gases(self) -> tuple[float, float, float, float, float]:
        return (self.h2, self.ch4, self.c2h6, self.c2h4, self.c2h2)


GAS_NAMES = ("h2", "ch4", "c2h6", "c2h4", "c2h2")
_GASES = attrgetter(*GAS_NAMES)  # a sample's five gases, as `GasSample.gases`


# _SUM_TERMS[t, j]: the row (see `param_matrix`) of term t of aggregate sum
# j (TH, THD, THH, TCH), a gas in rows 13-17, or row 37, which holds -0.0
# and pads the shorter sums: adding -0.0 leaves any float unchanged, -0.0
# itself included.
_SUM_TERMS = np.array(
    [[13, 14, 15, 16, 17], [14, 16, 17, 37, 37], [13, 16, 17, 37, 37], [14, 15, 16, 17, 37]]
).T


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
    that for parameter 13).  The matrix is the transpose of a
    parameter-major array, so each column is contiguous.
    """
    if not samples:
        raise ValueError("empty sample list")
    n = len(samples)
    # row i - 1 holds parameter i, one column per sample; row 37 the -0.0 pad
    rows = np.empty((N_PARAMS + 1, n))
    gases = rows[13:18]
    gases[...] = np.fromiter(
        chain.from_iterable(map(_GASES, samples)), np.float64, 5 * n
    ).reshape(n, 5).T
    rows[N_PARAMS] = -0.0
    # axis 0 holds the terms, so the reduction adds them in order; starting
    # from -0.0 keeps the sign of an all-zero sum
    rows[18:22] = np.add.reduce(rows[_SUM_TERMS], axis=0, initial=-0.0)
    den = np.maximum(rows[13:22], EPS_PPM)  # the gases, then the sums
    np.divide(gases, den[5], out=rows[0:5])
    np.divide(gases, den[6:, None], out=rows[22:37].reshape(3, 5, n))
    np.divide(rows[17], den[0:4], out=rows[5:9])
    np.divide(rows[16], den[0:3], out=rows[9:12])
    np.add(rows[9], rows[10], out=rows[12])
    return rows[:N_PARAMS].T
