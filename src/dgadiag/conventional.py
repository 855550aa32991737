"""The three classical rule-based DGA diagnosis methods.

Duval triangle zones over (%CH4, %C2H4, %C2H2), the Rogers four-ratio code
table, and the IEC three-ratio code table.  Each ratio is one clamped
division, `num / (EPS_PPM if den < EPS_PPM else den)`, written once in
`_ratios` for Rogers and IEC: the denominator is clamped below at EPS_PPM,
matching the parameter-matrix convention, so the methods are total over
valid samples (the Duval triangle gives UD when CH4, C2H4 and C2H2 are all
zero).

Boundary conventions at zone edges are fixed by the inequality forms written
in `_duval_zone` and the code functions; edge cases are exactly where these
methods are known to misfire, so determinism there matters more than any
particular choice.
"""

from __future__ import annotations

from .core import EPS_PPM, DiagnosisOutcome, GasSample

# The outcomes, in definition order, as module-level names: a global is read
# an order of magnitude faster than a member through the Enum metaclass.
_PD, _D1, _D2, _T1, _T2, _T3, _NF, _UD, _DT = DiagnosisOutcome


def _duval_pcts(sample: GasSample) -> tuple[float, float, float] | None:
    """%CH4, %C2H4 and %C2H2, or None when the three gases are all 0."""
    ch4, c2h4, c2h2 = sample.ch4, sample.c2h4, sample.c2h2
    total = ch4 + c2h4 + c2h2
    if total <= 0:
        return None
    return 100.0 * ch4 / total, 100.0 * c2h4 / total, 100.0 * c2h2 / total


def _duval_zone(pct_ch4: float, pct_c2h4: float, pct_c2h2: float) -> DiagnosisOutcome:
    if pct_ch4 >= 98:
        return _PD
    if pct_c2h2 < 4 and pct_c2h4 < 20:
        return _T1
    if pct_c2h2 < 4 and 20 <= pct_c2h4 < 50:
        return _T2
    if pct_c2h2 < 15 and pct_c2h4 >= 50:
        return _T3
    if pct_c2h2 >= 13 and pct_c2h4 < 23:
        return _D1
    if pct_c2h2 >= 13 and 23 <= pct_c2h4 < 40:
        return _D2
    if pct_c2h2 >= 29 and pct_c2h4 >= 40:
        return _D2
    return _DT


def duval(sample: GasSample) -> DiagnosisOutcome:
    """Duval triangle diagnosis: one of the six faults, DT (mixed zone), or
    UD when CH4 + C2H4 + C2H2 is zero and the triangle has no point."""
    pcts = _duval_pcts(sample)
    return _UD if pcts is None else _duval_zone(*pcts)


def _ratios(sample: GasSample) -> tuple[float, float, float, float]:
    """CH4/H2, C2H6/CH4, C2H4/C2H6 and C2H2/C2H4, each denominator clamped
    below at EPS_PPM."""
    h2, ch4, c2h6, c2h4 = sample.h2, sample.ch4, sample.c2h6, sample.c2h4
    return (
        ch4 / (EPS_PPM if h2 < EPS_PPM else h2),
        c2h6 / (EPS_PPM if ch4 < EPS_PPM else ch4),
        c2h4 / (EPS_PPM if c2h6 < EPS_PPM else c2h6),
        sample.c2h2 / (EPS_PPM if c2h4 < EPS_PPM else c2h4),
    )


# Rogers code table, keyed on (R1, R2, R3, R4) codes.  Entries with several
# admissible codes in one slot are expanded below.
_ROGERS_TABLE: dict[tuple[int, int, int, int], DiagnosisOutcome] = {
    (0, 0, 0, 0): _NF,
    (5, 0, 0, 0): _PD,
    (1, 0, 0, 0): _T1,  # slight overheating bands
    (2, 0, 0, 0): _T1,
    (0, 1, 0, 0): _T1,
    (1, 1, 0, 0): _T2,
    (0, 0, 1, 0): _T2,
    (1, 0, 1, 0): _T3,
    (0, 0, 2, 0): _T3,
    (0, 0, 0, 1): _D1,
    (0, 0, 1, 1): _D2,
    (0, 0, 1, 2): _D2,
    (0, 0, 2, 1): _D2,
    (0, 0, 2, 2): _D2,
}


def _rogers_codes(sample: GasSample) -> tuple[int, int, int, int]:
    r1, r2, r3, r4 = _ratios(sample)

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


def rogers(sample: GasSample) -> DiagnosisOutcome:
    """Rogers four-ratio diagnosis; combinations off the table give UD."""
    return _ROGERS_TABLE.get(_rogers_codes(sample), _UD)


def _iec_codes(sample: GasSample) -> tuple[int, int, int]:
    q2, _, q3, q1 = _ratios(sample)

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


def iec_ratio(sample: GasSample) -> DiagnosisOutcome:
    """IEC ratio-code diagnosis; combinations off the table give UD."""
    codes = _iec_codes(sample)
    if codes == (0, 0, 0):
        return _NF
    if codes == (0, 1, 0):
        return _PD
    c1, c2, c3 = codes
    if c1 in (1, 2) and c2 == 0 and c3 in (1, 2):
        # Discharge region; the high-energy sub-band is carved out by the
        # raw C2H2/C2H4 ratio.
        if c1 == 1 and c3 == 2 and 0.6 <= _ratios(sample)[3] <= 2.5:
            return _D2
        return _D1
    if c1 == 0 and c2 == 2:
        if c3 == 0:
            return _T1
        if c3 == 1:
            return _T2
        return _T3
    return _UD
