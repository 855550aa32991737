"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line (visible with `pytest -s tests/test_acceptance.py` or `-rP`).

Criterion 9 is the explicit negative: headline figures that depend on the
original 376-transformer dataset are recorded as documentation constants and
are NOT asserted against recomputed results here; the property suites above
stand in for them.
"""

import functools
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

import dgadiag
from dgadiag.core import CLASS_ORDER
from dgadiag.evaluation import (
    ConfusionMatrix,
    confusion,
    metrics,
    smote,
    stratified_folds,
)
from dgadiag.gbt import GbtConfig, predict_many, train
from dgadiag.io import load_table_iv, save_model, ModelBundle
from dgadiag.itd import itd_rows
from dgadiag.ranking import CANONICAL_RANK_ORDER, skewness
from dgadiag.ranking import _f_sf as f_sf
from dgadiag import reference


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            print(f"criterion {number} ({description}): PASS")

        return wrapper

    return decorate


@criterion(1, "six-sample reference outcomes, all 18 exact")
def test_criterion_1_conventional_reproduction():
    start = time.perf_counter()
    samples = load_table_iv()
    expected = {
        "duval": ["D2", "D2", "T2", "T2", "D1", "T2"],
        "rogers": ["UD", "UD", "T1", "T1", "UD", "UD"],
        "iec": ["UD", "UD", "NF", "NF", "UD", "UD"],
    }
    methods = {
        "duval": dgadiag.duval,
        "rogers": dgadiag.rogers,
        "iec": dgadiag.iec_ratio,
    }
    for name, method in methods.items():
        got = [method(s).value for s in samples]
        assert got == expected[name], (name, got)
    assert time.perf_counter() - start < 1.0


@criterion(2, "holdout confusion metrics at printed precision")
def test_criterion_2_metric_reproduction():
    report = metrics(ConfusionMatrix(counts=reference.REFERENCE_HOLDOUT_CONFUSION))
    got_sens = tuple(round(v * 100, 2) for v in report.sensitivity)
    assert got_sens == (100.0, 100.0, 93.33, 100.0, 66.67, 100.0)
    got_f1 = tuple(round(v, 4) for v in report.f1)
    assert got_f1 == (1.0, 0.9333, 0.9333, 1.0, 0.8, 1.0)
    assert round(report.accuracy * 100, 2) == 95.35
    p_o, p_e = 41 / 43, 403 / 1849
    assert abs(report.kappa - (p_o - p_e) / (1 - p_e)) < 1e-12
    assert abs(report.kappa - 0.9405) < 1e-4


@criterion(3, "rotation-component reconstruction and hand values")
def test_criterion_3_itd_properties():
    start = time.perf_counter()
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=int(rng.integers(2, 201)))
        baseline = itd_rows(x[None, :])[0]
        prc = x - baseline
        # the rotation component and the baseline rebuild the signal, to rounding
        assert np.max(np.abs(baseline + prc - x)) <= 4 * np.finfo(float).eps * np.max(np.abs(x))

    hand = np.array([[0.0, 1.0, 0.0, 1.0, 0.0]])
    assert np.allclose(hand - itd_rows(hand), [0, 0.5, -0.5, 0.5, 0], atol=1e-15)

    for flat in ([[3.0, 3.0, 3.0]], [[1.0, 2.0, 7.0, 9.0]]):
        assert np.all(np.array(flat) - itd_rows(np.array(flat)) == 0.0)
    assert time.perf_counter() - start < 5.0


@criterion(4, "skewness values, invariances, canonical order")
def test_criterion_4_ranking_properties():
    p = 0.25
    closed_form = (1 - 2 * p) / math.sqrt(p * (1 - p))
    assert abs(skewness([0, 0, 0, 1]) - 1.1547) < 1e-4
    assert abs(skewness([0, 0, 0, 1]) - closed_form) < 1e-12

    rng = np.random.default_rng(0)
    for _ in range(50):
        xs = rng.normal(size=30)
        base = skewness(xs)
        assert abs(skewness(2.5 * xs + 17.0) - base) < 1e-9
        assert abs(skewness(-xs) + base) < 1e-9

    expected = (
        28, 24, 1, 27, 31, 37, 26, 35, 36, 3, 32, 2, 34, 4, 5, 33, 21, 14,
        19, 20, 13, 10, 23, 6, 22, 15, 18, 17, 7, 8, 16, 11, 9, 12, 25, 30, 29,
    )
    order = CANONICAL_RANK_ORDER
    assert len(order) == 37
    for position, number in enumerate(expected):
        assert order[position] == number, position


@criterion(5, "F-distribution tail vs quadrature oracle, 27 points")
def test_criterion_5_f_distribution():
    def oracle_sf(f, df1, df2):
        a, b = df1 / 2, df2 / 2
        lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

        def density(t):
            return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - lbeta)

        x = df1 * f / (df1 * f + df2)
        value, _ = integrate.quad(density, 0.0, x, limit=200, epsabs=1e-12, epsrel=1e-12)
        return 1.0 - value

    for df1 in (1, 5, 30):
        for df2 in (1, 5, 30):
            for f in (0.5, 1.5, 4.0):
                assert abs(f_sf(f, df1, df2) - oracle_sf(f, df1, df2)) < 1e-6


def _blobs(per_class: int, seed: int) -> tuple[np.ndarray, list]:
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c, label in enumerate(CLASS_ORDER):
        center = np.zeros(6)
        center[c] = 10.0
        xs.append(center + rng.normal(scale=0.5, size=(per_class, 6)))
        ys += [label] * per_class
    return np.vstack(xs), ys


@criterion(6, "classifier determinism, loss monotonicity, blob accuracy")
def test_criterion_6_classifier(tmp_path):
    start = time.perf_counter()
    x, y = _blobs(per_class=60, seed=0)

    # bit-identical model files on retraining
    m1 = train(x, y, GbtConfig(), seed=1)
    m2 = train(x, y, GbtConfig(), seed=1)
    f1, f2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(f1, ModelBundle(model=m1, rank_order=CANONICAL_RANK_ORDER, k=6))
    save_model(f2, ModelBundle(model=m2, rank_order=CANONICAL_RANK_ORDER, k=6))
    assert f1.read_bytes() == f2.read_bytes()

    # non-increasing training log-loss over a 20-round trace: round r's
    # trees do not depend on later rounds, so an r-round model is the first
    # r rounds of a longer one; r = 0 is the base score, every class at 1/6
    from dgadiag.gbt import _softmax, predict_logits

    y_idx = [CLASS_ORDER.index(label) for label in y]
    prev = math.log(len(CLASS_ORDER))
    for r in range(1, 21):
        p = _softmax(predict_logits(train(x, y, GbtConfig(rounds=r), seed=0), x))
        loss = float(-np.mean(np.log(p[np.arange(len(y)), y_idx])))
        assert loss <= prev + 1e-9
        prev = loss

    # perfect fit on the separable blobs
    assert predict_many(m1, x) == y

    # 5-fold CV pooled accuracy >= 0.95
    folds = stratified_folds(y, 5, seed=2)
    pooled = np.zeros((6, 6), dtype=np.int64)
    for test_idx in folds:
        mask = np.ones(len(y), dtype=bool)
        mask[test_idx] = False
        model = train(x[mask], [y[i] for i in np.flatnonzero(mask)], GbtConfig(), seed=0)
        predicted = predict_many(model, x[test_idx])
        pooled += confusion([y[i] for i in test_idx], predicted).counts
    assert metrics(ConfusionMatrix(counts=pooled)).accuracy >= 0.95
    assert time.perf_counter() - start < 60.0


@criterion(7, "oversampling balance and collinearity")
def test_criterion_7_smote():
    counts = (42, 67, 113, 80, 21, 53)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(sum(counts), 5))
    y = [lbl for lbl, c in zip(CLASS_ORDER, counts) for _ in range(c)]
    x2, y2 = smote(x, y, seed=2)
    assert len(y2) == 678
    for lbl in CLASS_ORDER:
        assert sum(1 for v in y2 if v == lbl) == 113

    n = len(y)
    by_class = {lbl: x[[i for i, v in enumerate(y) if v == lbl]] for lbl in CLASS_ORDER}
    for row, lbl in zip(x2[n:], y2[n:]):
        pts = by_class[lbl]
        best = np.inf
        for i in range(len(pts)):
            seg = pts - pts[i]
            norms = (seg * seg).sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                u = ((row - pts[i]) @ seg.T) / norms
            ok = (u >= -1e-9) & (u <= 1 + 1e-9) & (norms > 0)
            if ok.any():
                proj = pts[i] + u[ok, None] * seg[ok]
                best = min(best, float(np.min(np.linalg.norm(row - proj, axis=1))))
        assert best < 1e-9


@criterion(8, "end-to-end pipeline, deterministic, best_k consistent")
def test_criterion_8_end_to_end(tmp_path):
    start = time.perf_counter()

    # the subprocesses import the same dgadiag as this test, installed or not
    src = os.path.dirname(os.path.dirname(dgadiag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "dgadiag", *argv],
            capture_output=True,
            text=True,
            timeout=280,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    data = tmp_path / "synth.csv"
    cli("synth", "--seed", "11", "--out", str(data))
    cli("synth", "--seed", "11", "--out", str(tmp_path / "synth2.csv"))
    assert data.read_bytes() == (tmp_path / "synth2.csv").read_bytes()

    rank_out = cli("rank", "--data", str(data))
    assert len(rank_out.strip().splitlines()) == 38

    curve_path = tmp_path / "curve.tsv"
    out1 = cli("searchk", "--data", str(data), "--kmin", "18", "--kmax", "37",
               "--seed", "5", "--out", str(curve_path))
    best_k = int(out1.strip().split("\t")[1])

    lines = curve_path.read_text().strip().splitlines()[1:]
    curve = {int(k): float(v) for k, v in (line.split("\t") for line in lines)}
    assert sorted(curve) == list(range(18, 38))
    top = max(curve.values())
    assert best_k == min(k for k, v in curve.items() if v == top)

    out2 = cli("searchk", "--data", str(data), "--kmin", "18", "--kmax", "37",
               "--seed", "5", "--out", str(tmp_path / "curve2.tsv"))
    assert out1 == out2
    assert curve_path.read_bytes() == (tmp_path / "curve2.tsv").read_bytes()

    model = tmp_path / "model.json"
    cli("train", "--data", str(data), "--k", str(best_k), "--model", str(model))

    report1 = cli("evaluate", "--data", str(data), "--model", str(model),
                  "--cv", "5", "--smote", "--seed", "5")
    report2 = cli("evaluate", "--data", str(data), "--model", str(model),
                  "--cv", "5", "--smote", "--seed", "5")
    assert report1 == report2
    assert "pooled out-of-fold report:" in report1
    assert time.perf_counter() - start < 300.0


@criterion(9, "dataset-bound figures recorded as constants only")
def test_criterion_9_reference_constants_documented():
    assert reference.REFERENCE_ACCURACY_PCT == 95.35
    assert reference.REFERENCE_BEST_K == 24
    assert reference.REFERENCE_MEAN_ANOVA_P == 0.0879
    assert reference.REFERENCE_CV_KAPPA == 0.91
    assert reference.REFERENCE_CV_MACRO_F1 == 0.92
    assert reference.REFERENCE_CLASS_COUNTS == (42, 67, 113, 80, 21, 53)
    assert sum(reference.REFERENCE_CLASS_COUNTS) == reference.REFERENCE_DATASET_SIZE
    assert reference.REFERENCE_METHOD_ACCURACY_PCT["duval"][-1] == 62.79
    # and they are constants, not recomputed results: nothing in this suite
    # derives them from data
