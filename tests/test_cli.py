import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadiag import cli
from dgadiag.cli import main
from dgadiag.core import CLASS_ORDER, param_matrix
from dgadiag.evaluation import (
    confusion,
    fit_and_score,
    kfold_cv,
    metrics,
    train_test_split,
)
from dgadiag.features import build_features
from dgadiag.gbt import predict_many
from dgadiag.io import load_dataset, load_model, load_table_iv, write_dataset
from dgadiag.ranking import rank_params


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "six.csv"
    write_dataset(path, load_table_iv())
    return str(path)


@pytest.fixture
def synth_csv(tmp_path):
    out = str(tmp_path / "synth.csv")
    assert main(["synth", "--seed", "5", "--out", out, "--counts", "9,9,9,9,9,9"]) == 0
    return out


@pytest.fixture(scope="module")
def seed11_model(tmp_path_factory):
    """`synth --seed 11` then `train --k 24`: (data path, model path)."""
    tmp = tmp_path_factory.mktemp("seed11")
    data, model = str(tmp / "s11.csv"), str(tmp / "model.json")
    assert main(["synth", "--seed", "11", "--out", data]) == 0
    assert main(["train", "--data", data, "--k", "24", "--model", model]) == 0
    return data, model


FAST = ["--rounds", "8", "--max-depth", "3"]
# near-subnormal gases below MIN_PPM, which ingest refuses, naming h2; their
# ratio parameters would overflow an ITD slope under the seed-11 rank order
# at k = 24
OVERFLOWING_GASES = {"h2": "2.2e-309", "ch4": "100", "c2h6": "5e-324", "c2h4": "5e-324",
                     "c2h2": "0.001"}
OVERFLOWING_MESSAGE = "gas h2 must be 0 or in 1e-09..1e+06 ppm, got 2.2e-309"


def run(capsys, argv):
    capsys.readouterr()  # drop any fixture output
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_canonical(self, capsys):
        code, out, _ = run(capsys, ["rank", "--canonical"])
        lines = out.strip().splitlines()
        assert lines[0] == "position\tparam"
        assert lines[1] == "1\t28"
        assert len(lines) == 38

    def test_from_data(self, capsys, synth_csv):
        code, out, _ = run(capsys, ["rank", "--data", synth_csv])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "position\tparam\tskewness"
        assert len(lines) == 38

    def test_two_samples_rank_in_parameter_order(self, capsys, tmp_path):
        two = tmp_path / "two.csv"
        two.write_text(
            "id,h2,ch4,c2h6,c2h4,c2h2,label\n"
            "a,292,346,32,313,196,D2\n"
            "b,34,8.6,70.3,3.1,0.001,T1\n"
        )
        code, out, _ = run(capsys, ["rank", "--data", str(two)])
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert rows == [[str(pos), str(pos), "0.0"] for pos in range(1, 38)]

    RANKING = [
        "rank", "train --model {tmp}/m.json", "searchk --out {tmp}/curve.tsv",
        "features --k 24", "decompose --k 24 --out {tmp}/d.tsv",
    ]
    # one row is enough for these, since no ranking runs first
    NOT_RANKING = [
        "diagnose --model {model} --out {tmp}/p.tsv", "evaluate --model {model} --json {tmp}/r.json",
        "evaluate --model {model} --holdout 0.2", "evaluate --model {model} --cv 5",
        "features --k 24 --canonical", "decompose --k 24 --canonical --out {tmp}/d.tsv",
    ]

    @pytest.mark.parametrize("command, rows, message", [
        *(pytest.param(c, [], "empty dataset", id=f"no-row-{c}") for c in RANKING + NOT_RANKING),
        *(pytest.param(c, ["a,292,346,32,313,196,D2"],
                       "ranking needs at least two samples, got 1", id=f"one-row-{c}")
          for c in RANKING),
    ])
    def test_fewer_than_two_rows_are_refused_by_name(
        self, capsys, tmp_path, table_model, command, rows, message
    ):
        data = tmp_path / "few.csv"
        data.write_text("\n".join(["id,h2,ch4,c2h6,c2h4,c2h2,label", *rows]) + "\n")
        argv = command.format(tmp=tmp_path, model=table_model[1]).split() + ["--data", str(data)]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["few.csv"]  # no --out, --json or model

    def test_requires_data_without_canonical(self, capsys):
        with pytest.raises(SystemExit):
            main(["rank"])

    def test_refuses_data_with_canonical(self, capsys):
        # the canonical order was printed and the file never read
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--canonical", "--data", "/nonexistent.csv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "error: argument --data: not allowed with argument --canonical" in err


class TestConventional:
    def test_all_methods_on_reference_rows(self, capsys, table_csv):
        code, out, _ = run(capsys, ["conventional", "--data", table_csv])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "id\tactual\tduval\trogers\tiec"
        got = [tuple(line.split("\t")[2:]) for line in lines[1:]]
        assert got == [
            ("D2", "UD", "UD"),
            ("D2", "UD", "UD"),
            ("T2", "T1", "NF"),
            ("T2", "T1", "NF"),
            ("D1", "UD", "UD"),
            ("T2", "UD", "UD"),
        ]

    def test_header_only_file_is_refused(self, capsys, tmp_path):
        # as `rank`, `train` and the other data commands refuse it
        data, out = tmp_path / "empty.csv", tmp_path / "out.tsv"
        data.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\n")
        argv = ["conventional", "--data", str(data), "--out", str(out)]
        assert run(capsys, argv) == (1, "", "error: empty dataset\n")
        assert not out.exists()
        assert run(capsys, argv[:3]) == (1, "", "error: empty dataset\n")

    def test_single_method(self, capsys, table_csv):
        code, out, _ = run(capsys, ["conventional", "--data", table_csv, "--method", "duval"])
        assert out.splitlines()[0] == "id\tactual\tduval"

    def test_zero_triangle_row_does_not_abort_the_batch(self, capsys, tmp_path, synth_csv):
        data = tmp_path / "zero.csv"
        data.write_text(
            "id,h2,ch4,c2h6,c2h4,c2h2,label\n"
            "a,292,346,32,313,196,D2\n"
            "z,100,0,50,0,0,\n"
        )
        code, out, err = run(capsys, ["conventional", "--data", str(data)])
        assert (code, err) == (0, "")
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[1:] == [["a", "D2", "D2", "UD", "UD"], ["z", "", "UD", "UD", "PD"]]

        model = str(tmp_path / "m.json")
        main(["train", "--data", synth_csv, "--k", "18", "--model", model] + FAST)
        code, out, err = run(capsys, ["diagnose", "--data", str(data), "--model", model,
                                      "--compare"])
        assert (code, err) == (0, "")
        header, _, zero = out.strip().splitlines()
        assert dict(zip(header.split("\t"), zero.split("\t")))["duval"] == "UD"


class TestSynth:
    def test_byte_reproducible(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["synth", "--seed", "3", "--out", a]) == 0
        assert main(["synth", "--seed", "3", "--out", b]) == 0
        capsys.readouterr()
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_counts(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["synth", "--seed", "1", "--out", str(tmp_path / "x.csv"), "--counts", "1,2"],
        )
        assert code == 1
        assert "error" in err

    def test_empty_counts_are_refused(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, ["synth", "--seed", "1", "--out", str(out), "--counts", ""])
        assert (code, err) == (1, "error: bad --counts value ''\n")
        assert not out.exists()

    def test_all_zero_counts_are_refused(self, tmp_path, capsys):
        # a header-only file, which every data command would refuse
        out = tmp_path / "x.csv"
        argv = ["synth", "--seed", "1", "--out", str(out), "--counts", "0,0,0,0,0,0"]
        assert run(capsys, argv) == (1, "", "error: --counts 0,0,0,0,0,0 draws no samples\n")
        assert not out.exists()

    def test_count_beyond_any_memory_is_one_error_line(self, tmp_path, capsys):
        # 1e15 rows of five float64 gases are 35.5 PiB, more than a 64-bit
        # address space holds, so the allocation fails at once wherever it runs
        out = tmp_path / "x.csv"
        argv = ["synth", "--seed", "1", "--out", str(out), "--counts", "1,1,1,1,1,1000000000000000"]
        code, stdout, err = run(capsys, argv)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())


class TestTrainDiagnoseEvaluate:
    def test_full_cycle(self, capsys, tmp_path, synth_csv):
        model = str(tmp_path / "m.json")
        code, out, _ = run(capsys, ["train", "--data", synth_csv, "--k", "20",
                                    "--model", model] + FAST)
        assert code == 0
        assert "trained" in out

        code, out, _ = run(capsys, ["diagnose", "--data", synth_csv, "--model", model])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id\tpredicted"
        assert len(lines) == 55

        code, out, _ = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", model, "--compare",
        ])
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split("\t"), row.split("\t")))
        assert cols["duval"] == "D2"
        assert cols["rogers"] == "UD"
        assert cols["iec"] == "UD"
        assert cols["predicted"] in {"PD", "D1", "D2", "T1", "T2", "T3"}

        report_json = str(tmp_path / "report.json")
        code, out, _ = run(capsys, ["evaluate", "--data", synth_csv, "--model", model,
                                    "--cv", "3", "--smote", "--seed", "4",
                                    "--json", report_json])
        assert code == 0
        assert "pooled out-of-fold report:" in out
        doc = json.loads(open(report_json).read())
        assert doc["mode"] == "cv"
        assert len(doc["fold_reports"]) == 3
        assert 0.0 <= doc["pooled"]["accuracy"] <= 1.0

    @pytest.mark.seed11
    def test_synth_file_is_byte_identical(self, seed11_model):
        # pins the CSV bytes of `synth --seed 11`, the data behind the model below
        data, _ = seed11_model
        assert hashlib.sha256(Path(data).read_bytes()).hexdigest() == (
            "a6a264b1ecb94bd7df7ed473a85c46a56dff4f30cc93707feec527cac895d70f"
        )

    @pytest.mark.seed11
    def test_model_file_is_byte_identical(self, seed11_model):
        # pins the format-v6 bytes of a training run; the same model took
        # 23,664 bytes as format v5, 29,213 as v4, 29,358 as v3 and 62,486 as v2
        _, model = seed11_model
        assert hashlib.sha256(Path(model).read_bytes()).hexdigest() == (
            "4fa0f4fc12f10ef91aaca38e08b049c18efadcc63b3d22ee99d5e97a4a7ce14e"
        )
        assert Path(model).stat().st_size <= 20_126

    @pytest.mark.seed11
    def test_model_nodes_are_those_of_format_v5(self, seed11_model):
        # format 6 dropped only the lists the leaf marks fix: the feature
        # and value lists are those the format-v5 file of the same run held
        _, model = seed11_model
        trees = json.loads(Path(model).read_text())["trees"]
        assert hashlib.sha256(repr([trees["feature"], trees["value"]]).encode()).hexdigest() == (
            "5e1cddae739e3c1699051dc834ad160a175949e05e9e771beb7ff7593d676dbb"
        )

    def test_model_file_of_any_seed_diagnoses_alike(self, capsys, tmp_path, seed11_model):
        # `train --seed 5` wrote this file: the seed-0 one with seed 5
        # recorded.  It still loads and labels every row alike
        data, model = seed11_model
        text = Path(model).read_text()
        assert text.count('"seed":0') == 1
        seed5 = tmp_path / "seed5.json"
        seed5.write_text(text.replace('"seed":0', '"seed":5'))
        assert load_model(seed5).model.seed == 5
        new, old = (run(capsys, ["diagnose", "--data", data, "--model", m])
                    for m in (model, str(seed5)))
        assert new[0] == 0 and old == new

    def test_evaluate_holdout(self, capsys, tmp_path, synth_csv):
        model = str(tmp_path / "m.json")
        main(["train", "--data", synth_csv, "--k", "18", "--model", model] + FAST)
        capsys.readouterr()
        code, out, _ = run(capsys, ["evaluate", "--data", synth_csv, "--model", model,
                                    "--holdout", "0.25", "--seed", "6"])
        assert code == 0
        assert "holdout report" in out

    def test_evaluate_apply_mode(self, capsys, tmp_path, synth_csv):
        model = str(tmp_path / "m.json")
        main(["train", "--data", synth_csv, "--k", "18", "--model", model] + FAST)
        capsys.readouterr()
        code, out, _ = run(capsys, ["evaluate", "--data", synth_csv, "--model", model])
        assert code == 0
        assert "accuracy" in out

    def test_diagnose_needs_gases_or_data(self, capsys, tmp_path, synth_csv):
        model = str(tmp_path / "m.json")
        main(["train", "--data", synth_csv, "--k", "18", "--model", model] + FAST)
        capsys.readouterr()
        code, _, err = run(capsys, ["diagnose", "--h2", "1", "--model", model])
        assert code == 1
        assert "error" in err

    def test_diagnose_rejects_data_with_gases(self, capsys, tmp_path, synth_csv):
        model = str(tmp_path / "m.json")
        main(["train", "--data", synth_csv, "--k", "18", "--model", model] + FAST)
        code, out, err = run(capsys, ["diagnose", "--data", synth_csv, "--h2", "1",
                                      "--model", model])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not both" in err

    def test_failed_train_warns_of_nothing(self, capsys, tmp_path, table_csv):
        # k = 5 was warned of before training refused the unlabeled row
        data = tmp_path / "u.csv"
        data.write_text(Path(table_csv).read_text() + "u1,10,20,30,40,50,\n")
        model = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["train", "--data", str(data), "--k", "5",
                                          "--rounds", "2", "--model", str(model)])
        assert (code, out, err) == (1, "", "error: label None is not a FaultLabel: samples must be labeled\n")
        assert caught == [] and not model.exists()

    def test_failed_cv_warns_of_nothing(self, capsys, tmp_path, table_csv):
        model = str(tmp_path / "m10.json")
        with pytest.warns(UserWarning, match="k=10 outside the usual 18..37 range"):
            assert main(["train", "--data", table_csv, "--k", "10", "--rounds", "2",
                         "--model", model]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["evaluate", "--data", table_csv, "--model", model,
                                          "--cv", "2"])
        assert (code, out, caught) == (1, "", [])
        assert err.startswith("error: stratification impossible") and err.count("\n") == 1

    def test_more_folds_than_a_class_has_rows_is_refused_at_once(self, capsys, seed11_model):
        # no list or array is sized by the fold count before the classes are checked
        data, model = seed11_model
        folds = "99999999999999999999999"
        code, out, err = run(capsys, ["evaluate", "--data", data, "--model", model, "--cv", folds])
        assert (code, out, err) == (
            1, "", f"error: stratification impossible: class PD has 42 samples, fewer than {folds} folds\n"
        )

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_seed_requires_holdout_or_cv(self, capsys, table_model, seed):
        # apply mode drew nothing from the seed and printed the same report
        data, model, _ = table_model
        code, out, err = run(capsys, ["evaluate", "--data", data, "--model", model,
                                      "--seed", seed])
        assert (code, out, err) == (1, "", "error: --seed requires --holdout or --cv\n")

    @pytest.mark.parametrize("holdout", ["0", "1", "nan", "-0.1", "1.5"])
    def test_holdout_outside_0_1_is_refused_by_name(self, capsys, table_model, holdout):
        data, model, _ = table_model
        code, out, err = run(capsys, ["evaluate", "--data", data, "--model", model,
                                      "--holdout", holdout])
        message = f"error: --holdout must be in (0, 1), got {float(holdout)}\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("holdout", ["1e-10", "5e-17", "1e-20", "5e-324"])
    def test_holdout_of_no_test_row_is_refused_as_such(self, capsys, table_model, holdout):
        # below 2**-54, 1 - holdout rounds to 1, and the value in (0, 1) was
        # refused as outside (0, 1)
        data, model, tmp = table_model
        report = tmp / "tiny.json"
        code, out, err = run(capsys, ["evaluate", "--data", data, "--model", model,
                                      "--holdout", holdout, "--json", str(report)])
        assert (code, out, err) == (1, "", "error: degenerate split sizes (6, 0) for n=6\n")
        assert not report.exists()

    @pytest.mark.parametrize("mode", [[], ["--holdout", "0.25"]])
    def test_smote_requires_cv(self, capsys, tmp_path, synth_csv, mode):
        model = str(tmp_path / "m.json")
        main(["train", "--data", synth_csv, "--k", "18", "--model", model] + FAST)
        code, out, err = run(capsys, ["evaluate", "--data", synth_csv, "--model", model,
                                      "--smote"] + mode)
        assert code == 1
        assert out == ""
        assert err == "error: --smote requires --cv\n"


class TestSearchK:
    def test_curve_and_best_k(self, capsys, tmp_path, synth_csv):
        curve_path = str(tmp_path / "curve.tsv")
        code, out, _ = run(capsys, ["searchk", "--data", synth_csv,
                                    "--kmin", "18", "--kmax", "21",
                                    "--seed", "3", "--out", curve_path] + FAST)
        assert code == 0
        best_k = int(out.strip().split("\t")[1])
        lines = open(curve_path).read().strip().splitlines()
        assert lines[0] == "k\taccuracy"
        curve = {int(k): float(v) for k, v in (line.split("\t") for line in lines[1:])}
        assert sorted(curve) == [18, 19, 20, 21]
        top = max(curve.values())
        assert best_k == min(k for k, v in curve.items() if v == top)


class TestDecompose:
    def test_tsv_shape_and_reconstruction(self, capsys, tmp_path, table_csv):
        out_path = str(tmp_path / "dec.tsv")
        code, _, _ = run(capsys, ["decompose", "--data", table_csv, "--k", "20",
                                  "--canonical", "--out", out_path])
        assert code == 0
        lines = open(out_path).read().strip().splitlines()
        assert lines[0] == "id\tposition\tparam\tvalue\tbaseline\tprc"
        assert len(lines) == 1 + 6 * 20
        for line in lines[1:]:
            _, _, _, value, baseline, prc = line.split("\t")
            # repr round-trips, so the construction identity is exact
            assert float(value) - float(baseline) == float(prc)

    @pytest.mark.parametrize("k", ["40", "-3", "1"])
    def test_k_outside_2_to_37_rejected(self, capsys, tmp_path, table_csv, k):
        out_path = tmp_path / "dec.tsv"
        code, _, err = run(capsys, ["decompose", "--data", table_csv, "--k", k,
                                    "--canonical", "--out", str(out_path)])
        assert code == 1
        assert err.startswith("error:") and "k must be in 2..37" in err
        assert not out_path.exists()

    def test_k_outside_usual_range_warns(self, capsys, tmp_path, table_csv):
        out_path = str(tmp_path / "dec.tsv")
        with pytest.warns(UserWarning, match="outside"):
            code, _, _ = run(capsys, ["decompose", "--data", table_csv, "--k", "10",
                                      "--canonical", "--out", out_path])
        assert code == 0
        assert len(open(out_path).read().strip().splitlines()) == 1 + 6 * 10

    def test_unusual_k_warning_names_cmd_decompose(self, capsys, tmp_path, table_csv):
        lines, first = inspect.getsourcelines(cli.cmd_decompose)
        call = first + next(i for i, text in enumerate(lines) if "build_features(" in text)
        with pytest.warns(UserWarning, match="k=2 outside") as record:
            code, _, _ = run(capsys, ["decompose", "--data", table_csv, "--k", "2",
                                      "--canonical", "--out", str(tmp_path / "dec.tsv")])
        assert code == 0
        assert [(w.filename, w.lineno) for w in record] == [(cli.__file__, call)]


    def test_overflowing_row_is_named(self, capsys, tmp_path, seed11_model):
        data, _ = seed11_model
        batch = tmp_path / "batch.csv"
        batch.write_text(Path(data).read_text()
                         + "r-bad," + ",".join(OVERFLOWING_GASES.values()) + ",\n")
        out_path = tmp_path / "dec.tsv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["decompose", "--data", str(batch), "--k", "24",
                                          "--out", str(out_path)])
        line = len(Path(data).read_text().splitlines()) + 1
        assert (code, out, caught) == (1, "", [])
        assert err == f"error: {batch}:{line}: {OVERFLOWING_MESSAGE} (sample r-bad)\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("k", [2, 24, 37])
    def test_decompose_shows_what_the_classifier_sees(self, capsys, tmp_path, seed11_model, k):
        # decompose's prc column, regrouped per id, is the features rows, and
        # its value column is the parameter matrix in rank order
        data, _ = seed11_model
        dec, feat = tmp_path / "dec.tsv", tmp_path / "feat.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k = 2 lies outside 18..37
            assert main(["decompose", "--data", data, "--k", str(k), "--out", str(dec)]) == 0
            assert main(["features", "--data", data, "--k", str(k), "--out", str(feat)]) == 0
        samples = load_dataset(data)
        order = rank_params(samples)
        ranked = param_matrix(samples)[:, np.array(order[:k]) - 1]
        rows = [line.split("\t") for line in dec.read_text().splitlines()[1:]]
        assert len(rows) == len(samples) * k
        features = [line.split("\t") for line in feat.read_text().splitlines()[1:]]
        assert len(features) == len(samples)
        for i, (s, feature_row) in enumerate(zip(samples, features)):
            block = rows[i * k:(i + 1) * k]
            assert [r[0] for r in block] == [s.id] * k == [feature_row[0]] * k
            assert [r[1] for r in block] == [str(j) for j in range(1, k + 1)]
            assert [r[2] for r in block] == [str(num) for num in order[:k]]
            assert [r[3] for r in block] == [repr(float(v)) for v in ranked[i]]
            assert [r[5] for r in block] == feature_row[2:]


class TestFeaturesCommand:
    def test_header_and_rows(self, capsys, table_csv):
        code, out, _ = run(capsys, ["features", "--data", table_csv, "--k", "18",
                                    "--canonical"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[:2] == ["id", "label"]
        assert len(lines[0].split("\t")) == 20
        assert len(lines) == 7

    def test_warning_made_an_error_after_success_is_one_line(self, tmp_path, table_csv):
        # the command had written its file when the re-emitted k warning
        # raised, which exited 1 with a traceback
        src = Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        outputs = {}
        for flags in ([], ["-W", "error::UserWarning"]):
            out = tmp_path / f"f{len(flags)}.tsv"
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "dgadiag", "features", "--data", table_csv,
                 "--k", "10", "--out", str(out)],
                capture_output=True, text=True, timeout=120, env=env)
            outputs[bool(flags)] = out.read_bytes()
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert [line for line in proc.stderr.splitlines() if line.startswith("warning:")] == [
            "warning: k=10 outside the usual 18..37 range"]
        assert outputs[True] == outputs[False]


# the sha256 of every table the CLI writes, on the `synth --seed 11` file and
# on the bundled Table IV rows; `diagnose` uses the model that
# `train --k 24` fits to the synth file
TABLE_ARGV = {
    "rank": "rank --data {data}",
    "rank-canonical": "rank --canonical",
    "features": "features --data {data} --k 24",
    "features-canonical": "features --data {data} --k 24 --canonical",
    "decompose": "decompose --data {data} --k 24 --out {out}",
    "diagnose": "diagnose --data {data} --model {model}",
    "diagnose-compare": "diagnose --data {data} --model {model} --compare",
    "diagnose-reading": "diagnose --h2 292 --ch4 346 --c2h6 32 --c2h4 313 --c2h2 196"
                        " --model {model}",
    "diagnose-reading-compare": "diagnose --h2 292 --ch4 346 --c2h6 32 --c2h4 313 --c2h2 196"
                                " --model {model} --compare",
    "conventional": "conventional --data {data}",
    "conventional-iec": "conventional --data {data} --method iec",
    "searchk": "searchk --data {data} --kmin 18 --kmax 21 --rounds 8 --max-depth 3 --out {out}",
}
TABLE_DIGESTS = {
    "synth/rank": "fdbb6a4a7986426ffa8d6d58e3067783d384f578493892f9ced2d1b10d33c86e",
    "synth/rank-canonical": "9e67640cf8d930aa81236659cc7a654de148d0cc3d3b7fff492d3c692c047558",
    "synth/features": "69fe7e92718f7f3ab7456a4b724b1f367506815cadf62febc4c5d5211ec156b9",
    "synth/features-canonical": "52a95c651d5e3e741d365468b8f86ccc852ac8ff0ba25f06dcfd05681aefefc5",
    "synth/decompose": "81c033144a89e1cb2df9c01b34f16510e15721a587d8cad5618485da705b568a",
    "synth/diagnose": "26032e216773d4a64f20951eb29359b2e33ec6b29b5e62acff54de4200212f50",
    "synth/diagnose-compare": "accae8d959a2c0b7bb3e59aa833ef10b6c87989243252bf3b6fe0bc13d9aeebd",
    "synth/diagnose-reading": "6a81990572e8723c9b01b52a06797af161244f778cfd9724b78129447ca44036",
    "synth/diagnose-reading-compare":
        "49434fa426990284e972d002029e33cdaae2b6c83d12e3e55b6647132090568d",
    "synth/conventional": "b1e0d08dcfb65f483d44e85f463c57eaa46e43cdf7ceb82a4db1ff70fe4177f5",
    "synth/conventional-iec": "246dc5b656b375f6419928969a51a90c2441781bc90aa9e4a7a384d796bad1d3",
    "synth/searchk": "2e3834f2e034be5874332bb4697e688dcc44c469275ffbb16a812063391dcd14",
    "table/rank": "5ab9a242b21907d7b783cbac0f97952b35c19471f8ed6fded433078b5097794d",
    "table/features": "859ab410c52cdfa958e4f8b8ab767bd80dad73ffd98b7c9b191b6d3a24796144",
    "table/features-canonical": "6b542270945c66f703b2c50dc3a8a714a9cbd4cad2df0e454291f9f84c3ffb58",
    "table/decompose": "b466ea4bc881c39419a10f9ac13dc2e942d65520822510229ead9d263bdd696c",
    "table/diagnose": "44c4d614d7b122bfe475ebf92b2cd51290c69599c52bbed72960ba97146bdfff",
    "table/diagnose-compare": "e39d712e86e1a84d8db8b502c34ef861b4b046e8b50f9062a076c14d20aa18be",
    "table/conventional": "d76b59c51d28b531b062df7d6f6a00727ee3587fdde79220d467ee04702c548c",
    "table/conventional-iec": "7d40794488b3db1d302357ac201b5486c55519ae75a75d42b7629b74e2a4bc21",
    "table/searchk": "9cd1af37a2ae192f3943551c2f4775372b91b48f9c6736fc9a8ff4bc615f33a6",
}


@pytest.mark.seed11
@pytest.mark.parametrize("case", sorted(TABLE_DIGESTS))
def test_table_is_byte_identical(capsys, tmp_path, seed11_model, table_csv, case):
    source, name = case.split("/")
    data, model = seed11_model
    out = tmp_path / "out.tsv"
    argv = TABLE_ARGV[name].format(
        data=data if source == "synth" else table_csv, model=model, out=out
    ).split()
    code, stdout, err = run(capsys, argv)
    assert (code, err) == (0, "")
    if "--out" in argv:
        table = out.read_bytes()
    else:  # the same bytes go to --out
        table = stdout.encode()
        assert run(capsys, [*argv, "--out", str(out)]) == (0, "", "")
        assert out.read_bytes() == table
    assert hashlib.sha256(table).hexdigest() == TABLE_DIGESTS[case]



# The report renderers of the last version that built the text and the JSON
# report side by side from an EvalReport, kept as the oracle of `evaluate`.
def _oracle_report_lines(report, title):
    names = [label.value for label in CLASS_ORDER]
    lines = [title, "confusion (rows actual, cols predicted):"]
    lines.append("\t" + "\t".join(names))
    for i, name in enumerate(names):
        lines.append(name + "\t" + "\t".join(str(int(v)) for v in report.matrix.counts[i]))
    lines.append("class\tsensitivity\tprecision\tf1")
    for i, name in enumerate(names):
        lines.append(
            f"{name}\t{report.sensitivity[i]:.4f}\t{report.precision[i]:.4f}"
            f"\t{report.f1[i]:.4f}"
        )
    lines.append(f"accuracy\t{report.accuracy:.4f}")
    lines.append(f"macro_f1\t{report.macro_f1:.4f}")
    lines.append(f"kappa\t{report.kappa:.4f}")
    return lines


def _oracle_report_json(report):
    return {
        "confusion": report.matrix.counts.tolist(),
        "class_order": [label.value for label in CLASS_ORDER],
        "sensitivity": report.sensitivity.tolist(),
        "precision": report.precision.tolist(),
        "f1": report.f1.tolist(),
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "kappa": report.kappa,
    }


def _oracle_evaluate(data, model, holdout=None, cv=None, smote=False, seed=0):
    """`evaluate`'s stdout text and JSON document, from the library's results
    rendered by the oracle."""
    samples, bundle = load_dataset(data), load_model(model)
    config = bundle.model.config
    if cv is not None:
        result = kfold_cv(samples, bundle.rank_order, bundle.k, folds=cv, seed=seed,
                          use_smote=smote, config=config)
        lines = [f"fold {i}: accuracy={rep.accuracy:.4f} kappa={rep.kappa:.4f}"
                 for i, rep in enumerate(result.fold_reports, start=1)]
        lines += _oracle_report_lines(result.pooled, "pooled out-of-fold report:")
        doc = {
            "mode": "cv",
            "folds": cv,
            "smote": smote,
            "fold_reports": [_oracle_report_json(r) for r in result.fold_reports],
            "pooled": _oracle_report_json(result.pooled),
        }
    else:
        fm = build_features(samples, bundle.rank_order, bundle.k)
        if holdout is not None:
            split = train_test_split(len(samples), 1.0 - holdout, seed)
            report = metrics(fit_and_score(fm, *split, config))
            lines = _oracle_report_lines(report, f"holdout report (test fraction {holdout}):")
            doc = {"mode": "holdout", "test_fraction": holdout,
                   "report": _oracle_report_json(report)}
        else:
            report = metrics(confusion(fm.labels, predict_many(bundle.model, fm.x)))
            lines = _oracle_report_lines(report, "report (model applied to the full file):")
            doc = {"mode": "apply", "report": _oracle_report_json(report)}
    return "\n".join(lines) + "\n", json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("flags, oracle", [
    pytest.param([], {}, id="apply"),
    pytest.param(["--holdout", "0.2", "--seed", "3"], dict(holdout=0.2, seed=3), id="holdout"),
    pytest.param(["--cv", "5", "--seed", "2"], dict(cv=5, seed=2), id="cv"),
    pytest.param(["--cv", "3", "--smote", "--seed", "1"], dict(cv=3, smote=True, seed=1),
                 id="cv-smote"),
])
def test_evaluate_report_matches_the_oracle(capsys, tmp_path, seed11_model, flags, oracle):
    data, model = seed11_model
    report = tmp_path / "report.json"
    argv = ["evaluate", "--data", data, "--model", model, *flags, "--json", str(report)]
    code, stdout, err = run(capsys, argv)
    assert (code, err) == (0, "")
    text, doc = _oracle_evaluate(data, model, **oracle)
    assert stdout == text
    assert report.read_bytes() == doc.encode()


# Every option of every subcommand as (option strings, dest, type, default,
# required, choices), then its mutually exclusive groups as (dests,
# required); argparse's own --help is left out.
OPTION_TABLE = {
    "rank": ([
        ("--data", "data", None, None, False, None),
        ("--canonical", "canonical", None, False, False, None),
        ("--out", "out", None, None, False, None),
    ], [(("data", "canonical"), True)]),
    "features": ([
        ("--data", "data", None, None, True, None),
        ("--k", "k", int, None, True, None),
        ("--canonical", "canonical", None, False, False, None),
        ("--out", "out", None, None, False, None),
    ], []),
    "searchk": ([
        ("--data", "data", None, None, True, None),
        ("--kmin", "kmin", int, 18, False, None),
        ("--kmax", "kmax", int, 37, False, None),
        ("--seed", "seed", int, 0, False, None),
        ("--train-frac", "train_frac", float, 0.85, False, None),
        ("--canonical", "canonical", None, False, False, None),
        ("--out", "out", None, None, True, None),
        ("--rounds", "rounds", int, 100, False, None),
        ("--learning-rate", "learning_rate", float, 0.3, False, None),
        ("--max-depth", "max_depth", int, 6, False, None),
    ], []),
    "train": ([
        ("--data", "data", None, None, True, None),
        ("--k", "k", int, 24, False, None),
        ("--model", "model", None, None, True, None),
        ("--canonical", "canonical", None, False, False, None),
        ("--rounds", "rounds", int, 100, False, None),
        ("--learning-rate", "learning_rate", float, 0.3, False, None),
        ("--max-depth", "max_depth", int, 6, False, None),
    ], []),
    "evaluate": ([
        ("--data", "data", None, None, True, None),
        ("--model", "model", None, None, True, None),
        ("--holdout", "holdout", float, None, False, None),
        ("--cv", "cv", int, None, False, None),
        ("--smote", "smote", None, False, False, None),
        ("--seed", "seed", int, None, False, None),
        ("--json", "json", None, None, False, None),
    ], [(("holdout", "cv"), False)]),
    "diagnose": ([
        ("--data", "data", None, None, False, None),
        ("--h2", "h2", float, None, False, None),
        ("--ch4", "ch4", float, None, False, None),
        ("--c2h6", "c2h6", float, None, False, None),
        ("--c2h4", "c2h4", float, None, False, None),
        ("--c2h2", "c2h2", float, None, False, None),
        ("--model", "model", None, None, True, None),
        ("--compare", "compare", None, False, False, None),
        ("--out", "out", None, None, False, None),
    ], []),
    "conventional": ([
        ("--data", "data", None, None, True, None),
        ("--method", "method", None, "all", False, ["duval", "rogers", "iec", "all"]),
        ("--out", "out", None, None, False, None),
    ], []),
    "decompose": ([
        ("--data", "data", None, None, True, None),
        ("--k", "k", int, None, True, None),
        ("--canonical", "canonical", None, False, False, None),
        ("--out", "out", None, None, True, None),
    ], []),
    "synth": ([
        ("--seed", "seed", int, None, True, None),
        ("--out", "out", None, None, True, None),
        ("--counts", "counts", None, None, False, None),
    ], []),
}


def test_option_surface_matches_the_table():
    """Every subcommand's options, in order, with their types and defaults:
    an option added, dropped or changed anywhere fails this."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: (
            [(", ".join(a.option_strings), a.dest, a.type, a.default, a.required, a.choices)
             for a in p._actions if not isinstance(a, argparse._HelpAction)],
            [(tuple(a.dest for a in g._group_actions), g.required)
             for g in p._mutually_exclusive_groups],
        )
        for name, p in sub.choices.items()
    }
    assert list(surface.items()) == list(OPTION_TABLE.items())


# Each mode of each subcommand: its argv, then each option it covers as the
# argv words that change it, appended (argparse keeps an option's last
# value).  {data} and {model} are the seed-11 file and model, {data2} and
# {model2} others of each; output names are relative to the run's
# directory.  A mode may list an option it does not take: that must be
# refused, as `train --seed` is, since training draws nothing at random.
OPTION_MODES = {
    "rank": ("rank --data {data}", {
        "--data": "--data {data2}", "--canonical": "--canonical", "--out": "--out r.tsv"}),
    "rank-canonical": ("rank --canonical", {"--data": "--data {data}", "--out": "--out r.tsv"}),
    "features": ("features --data {data} --k 20", {
        "--data": "--data {data2}", "--k": "--k 21", "--canonical": "--canonical",
        "--out": "--out f.tsv"}),
    "features-canonical": ("features --data {data} --k 20 --canonical", {
        "--data": "--data {data2}", "--k": "--k 21", "--out": "--out f.tsv"}),
    "searchk": ("searchk --data {data} --kmin 18 --kmax 19 --rounds 2 --max-depth 1"
                " --out c.tsv", {
        "--data": "--data {data2}", "--kmin": "--kmin 19", "--kmax": "--kmax 20",
        "--seed": "--seed 1", "--train-frac": "--train-frac 0.7", "--canonical": "--canonical",
        "--out": "--out d.tsv", "--rounds": "--rounds 5", "--learning-rate": "--learning-rate 0.05",
        "--max-depth": "--max-depth 2"}),
    "train": ("train --data {data} --k 20 --model m.json --rounds 3", {
        "--data": "--data {data2}", "--k": "--k 21", "--model": "--model n.json",
        "--canonical": "--canonical", "--rounds": "--rounds 4",
        "--learning-rate": "--learning-rate 0.1", "--max-depth": "--max-depth 1",
        "--seed": "--seed 5"}),
    "evaluate-apply": ("evaluate --data {data} --model {model}", {
        "--data": "--data {data2}", "--model": "--model {model2}", "--holdout": "--holdout 0.2",
        "--cv": "--cv 3", "--smote": "--smote", "--seed": "--seed 1", "--json": "--json r.json"}),
    "evaluate-holdout": ("evaluate --data {data} --model {model2} --holdout 0.2", {
        "--data": "--data {data2}", "--model": "--model {model}", "--holdout": "--holdout 0.3",
        "--cv": "--cv 3", "--smote": "--smote", "--seed": "--seed 1", "--json": "--json r.json"}),
    "evaluate-cv": ("evaluate --data {data} --model {model2} --cv 3", {
        "--data": "--data {data2}", "--model": "--model {model}", "--holdout": "--holdout 0.2",
        "--cv": "--cv 4", "--smote": "--smote", "--seed": "--seed 1", "--json": "--json r.json"}),
    "diagnose": ("diagnose --data {data} --model {model}", {
        "--data": "--data {data2}", "--model": "--model {model2}", "--compare": "--compare",
        "--out": "--out p.tsv", "--h2": "--h2 292"}),
    "diagnose-reading": ("diagnose --h2 292 --ch4 346 --c2h6 32 --c2h4 313 --c2h2 196"
                         " --model {model} --compare", {
        "--h2": "--h2 30", "--ch4": "--ch4 35", "--c2h6": "--c2h6 3", "--c2h4": "--c2h4 31",
        "--c2h2": "--c2h2 19", "--model": "--model {model2}", "--out": "--out p.tsv",
        "--data": "--data {data}"}),
    "conventional": ("conventional --data {data}", {
        "--data": "--data {data2}", "--method": "--method duval", "--out": "--out c.tsv"}),
    "decompose": ("decompose --data {data} --k 20 --out d.tsv", {
        "--data": "--data {data2}", "--k": "--k 21", "--canonical": "--canonical",
        "--out": "--out e.tsv"}),
    "synth": ("synth --seed 1 --out s.csv --counts 2,2,2,2,2,2", {
        "--seed": "--seed 2", "--out": "--out t.csv", "--counts": "--counts 3,2,2,2,2,2"}),
}


@pytest.fixture(scope="module")
def option_inputs(seed11_model, tmp_path_factory):
    """The names OPTION_MODES fills in: the seed-11 file and model, 20 PD
    and 20 D1 rows of `synth --seed 12`, and a 5-round depth-2 model of
    them at k = 20, which labels each seed-11 row PD or D1."""
    tmp = tmp_path_factory.mktemp("options")
    data, model = seed11_model
    data2, model2 = str(tmp / "s12.csv"), str(tmp / "model2.json")
    assert main(["synth", "--seed", "12", "--out", data2, "--counts", "20,20,0,0,0,0"]) == 0
    assert main(["train", "--data", data2, "--k", "20", "--rounds", "5", "--max-depth", "2",
                 "--model", model2]) == 0
    return dict(data=data, model=model, data2=data2, model2=model2)


def _run_in(monkeypatch, folder, argv):
    """`main(argv)` run in a new `folder`: (exit code, stdout, stderr, what
    it wrote), a model file as prediction reads it (not its seed)."""
    folder.mkdir()
    monkeypatch.chdir(folder)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    written = {}
    for path in sorted(folder.iterdir()):
        written[path.name] = path.read_bytes()
        if b'"trees"' in written[path.name]:
            bundle = load_model(path)
            written[path.name] = (bundle.model.config, bundle.rank_order, bundle.k,
                                  bundle.model.feature.tolist(), bundle.model.value.tolist())
    return code, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("mode, option", [
    pytest.param(mode, option, id=f"{mode} {option}")
    for mode, (_, changes) in OPTION_MODES.items() for option in changes
])
def test_each_option_of_each_mode_is_read_or_refused(
    monkeypatch, tmp_path, option_inputs, mode, option
):
    """Changing one option in one mode changes stdout or what the command
    writes, or the command exits 1 or 2 with one error message and writes
    nothing: no option is taken and then ignored."""
    argv, changes = OPTION_MODES[mode]
    base = argv.format(**option_inputs).split()
    changed = base + changes[option].format(**option_inputs).split()
    assert changed[len(base)] == option
    code, out, _, written = _run_in(monkeypatch, tmp_path / "base", base)
    assert code == 0
    got = _run_in(monkeypatch, tmp_path / "changed", changed)
    if got[0] == 0:
        assert (got[1], got[3]) != (out, written)
    else:
        code, out, err, written = got
        assert (out, written) == ("", {})
        errors = [line for line in err.splitlines() if "error: " in line]
        if code == 1:
            assert errors == err.splitlines() and len(errors) == 1
        else:
            assert code == 2 and err.startswith("usage: ") and len(errors) == 1


def test_option_modes_cover_every_option():
    """Each option of each subcommand is changed in at least one mode."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        options = {o for a in p._actions if not isinstance(a, argparse._HelpAction)
                   for o in a.option_strings}
        covered = {o for argv, changes in OPTION_MODES.values() if argv.split()[0] == name
                   for o in changes}
        assert options <= covered, name


@pytest.mark.seed11
def test_readme_command_line_block_runs_as_written(capsys, tmp_path, monkeypatch):
    """Each `dgadiag` line of the README's "Command line" block exits 0, run
    in order from the block's own `synth`, and its `train` writes a model
    file of the size the README's "Model file" section states."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
    lines = [
        line for line in block.replace("\\\n", " ").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert lines[0].startswith("dgadiag synth ") and all(line.startswith("dgadiag ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        code, _, err = run(capsys, argv)
        assert code == 0, (line, err)
    stated = re.search(r"The\s+seed-11\s+model\s+\(`synth --seed 11`,\s+`train --k 24`\)"
                       r"\s+takes\s+([\d,]+)\s+bytes", readme).group(1)
    assert "train --data data.csv --k 24 --model model.json" in block
    assert (tmp_path / "model.json").stat().st_size == int(stated.replace(",", ""))


class TestExitCodes:
    def test_invalid_model_is_validation_error(self, capsys, tmp_path, synth_csv):
        path = tmp_path / "model.json"
        main(["train", "--data", synth_csv, "--k", "18", "--model", str(path)] + FAST)
        doc = json.loads(path.read_text())
        doc["trees"]["feature"][0] = doc["k"]  # out of range
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", str(path),
        ])
        assert code == 1
        assert err.startswith("error: ") and "model.json" in err
        assert "Traceback" not in err

    def test_bool_in_a_model_tree_list_is_refused_by_kind(self, capsys, tmp_path, seed11_model):
        # numpy would read `true` as feature 1
        doc = json.loads(Path(seed11_model[1]).read_text())
        doc["trees"]["feature"][doc["trees"]["feature"].index(1)] = True
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["diagnose", "--data", seed11_model[0], "--model", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {path}: feature must be a signed integer array\n"

    @pytest.mark.parametrize("command", ["diagnose", "train"])
    def test_nul_id_is_refused_by_line(self, capsys, tmp_path, seed11_model, command):
        # Python 3.11 and later read the line, and GasSample refuses the id;
        # 3.10's csv reader refuses the line itself
        data = tmp_path / "nul.csv"
        data.write_bytes(b"id,h2,ch4,c2h6,c2h4,c2h2,label\nok,1,2,3,4,5,PD\na\0b,1,2,3,4,5,D1\n")
        extra = {"diagnose": ["--model", seed11_model[1]],
                 "train": ["--k", "24", "--model", str(tmp_path / "m.json")]}[command]
        code, out, err = run(capsys, [command, "--data", str(data), *extra])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {data}:3: ")
        if sys.version_info >= (3, 11):
            assert err == f"error: {data}:3: id 'a\\x00b' holds a NUL character\n"
        assert [p.name for p in tmp_path.iterdir()] == ["nul.csv"]

    def test_float_k_in_model_is_validation_error(self, capsys, tmp_path, synth_csv):
        path = tmp_path / "model.json"
        main(["train", "--data", synth_csv, "--k", "18", "--model", str(path)] + FAST)
        doc = json.loads(path.read_text())
        doc["k"] = 18.9  # `int()` truncated it to n_features and the file loaded
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "model.json" in err and "k must be" in err
        assert "Traceback" not in err

    def test_v2_model_file_is_refused(self, capsys, seed11_model, tmp_path):
        # the seed-11 model rewritten as format v2: one dict per tree
        _, model = seed11_model
        doc = json.loads(Path(model).read_text())
        doc["trees"] = [
            [{"feature": t.feature.tolist(), "value": t.value.tolist()} for t in round_trees]
            for round_trees in load_model(model).model.trees
        ]
        doc["format_version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and "format_version 2" in err
        assert "Traceback" not in err

    def test_v3_model_file_is_refused(self, capsys, seed11_model, tmp_path):
        # the seed-11 model rewritten as format v3, which also stored the
        # regularisers, the class order and count, the base score and n_features
        _, model = seed11_model
        doc = json.loads(Path(model).read_text())
        doc["config"].update(reg_lambda=1.0, gamma=0.0, min_child_weight=1.0, n_classes=6)
        doc.update(format_version=3, class_order=["PD", "D1", "D2", "T1", "T2", "T3"],
                   base_score=0.5, n_features=doc["k"])
        path = tmp_path / "v3.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err == f"error: {path}: unsupported format_version 3, expected 6\n"

    def test_v5_model_file_is_refused(self, capsys, seed11_model, tmp_path):
        # the seed-11 model as format v5 wrote it, with each tree's node count
        # and each split's right child, which the leaf marks fix
        _, model = seed11_model
        doc = json.loads(Path(model).read_text())
        forest = load_model(model).model._forest
        trees = doc["trees"]
        starts = forest.starts.tolist()
        trees["node_counts"] = np.diff([*starts, len(trees["feature"])]).tolist()
        tree_of = np.repeat(forest.starts, trees["node_counts"])
        right = forest.child[1::2] - tree_of
        trees["right"] = np.where(np.array(trees["feature"]) >= 0, right, -1).tolist()
        doc["format_version"] = 5
        path = tmp_path / "v5.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err == f"error: {path}: unsupported format_version 5, expected 6\n"

    def test_nan_reg_lambda_model_fails_holdout(self, capsys, tmp_path, synth_csv):
        # such a file loaded, and the holdout retrained to all-PD labels; lambda
        # is no longer a setting, so the key itself is refused
        path = tmp_path / "model.json"
        main(["train", "--data", synth_csv, "--k", "18", "--model", str(path)] + FAST)
        doc = json.loads(path.read_text())
        doc["config"]["reg_lambda"] = float("nan")
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["evaluate", "--data", synth_csv, "--model", str(path),
                                      "--holdout", "0.25", "--seed", "6"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and "reg_lambda" in err
        assert "Traceback" not in err

    def test_zero_reg_lambda_model_is_refused(self, capsys, tmp_path, synth_csv):
        # lambda 0 let H + lambda reach 0: a NaN gain or a leaf weight 1/0.
        # lambda is now the constant gbt.REG_LAMBDA, which a file cannot set
        path = tmp_path / "model.json"
        main(["train", "--data", synth_csv, "--k", "18", "--model", str(path)] + FAST)
        doc = json.loads(path.read_text())
        doc["config"]["reg_lambda"] = 0.0
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["evaluate", "--data", synth_csv, "--model", str(path),
                                      "--holdout", "0.25", "--seed", "6"])
        assert (code, out) == (1, "")
        assert err == f"error: {path}: config has unknown keys reg_lambda\n"

    def test_model_config_missing_keys_is_refused(self, capsys, seed11_model, tmp_path):
        # such a file loaded with the default learning_rate and max_depth filled in
        _, model = seed11_model
        doc = json.loads(Path(model).read_text())
        del doc["config"]["learning_rate"], doc["config"]["max_depth"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err == f"error: {path}: config lacks learning_rate, max_depth\n"

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, ["rank", "--data", "/nonexistent/file.csv"])
        assert code == 2
        assert "i/o error" in err

    def test_io_error_names_the_given_path(self, capsys, tmp_path, table_csv):
        # the write goes through a temp file beside the target, which the
        # message must not name and which must not stay behind
        missing = str(tmp_path / "no-such-dir" / "x.csv")
        a_dir = tmp_path / "a-dir"
        a_dir.mkdir()
        for argv, path in [
            (["synth", "--seed", "1", "--out", missing], missing),
            (["features", "--data", table_csv, "--k", "6", "--out", str(a_dir)], str(a_dir)),
        ]:
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith("i/o error: ") and repr(path) in err
            assert ".tmp-" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "six.csv"]
        assert list(a_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["diagnose", "features", "conventional", "decompose"])
    @pytest.mark.parametrize("bad_id", ["a\tb", "c\nd", "e\rf"])
    def test_id_that_breaks_a_tsv_line_is_refused(
        self, capsys, tmp_path, seed11_model, command, bad_id
    ):
        samples = load_table_iv()
        samples[2] = dataclasses.replace(samples[2], id=bad_id)
        data = tmp_path / "ids.csv"
        write_dataset(data, samples)
        assert load_dataset(data)[2].id == bad_id
        out = tmp_path / "out.tsv"
        extra = {
            "diagnose": ["--model", seed11_model[1]],
            "features": ["--k", "24"],
            "conventional": [],
            "decompose": ["--k", "24", "--out", str(out)],  # --out is required
        }[command]
        code, stdout, err = run(capsys, [command, "--data", str(data), *extra])
        assert (code, stdout) == (1, "")
        assert err == (
            f"error: id {bad_id!r} holds a tab or line break, which TSV output cannot carry\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--model", "{dir}/m.json", "--rounds", "3"]),
        ("rank", []),
        ("searchk", ["--out", "{dir}/curve.tsv", "--rounds", "2"]),
        ("evaluate", ["--model", "{model}"]),
    ])
    def test_command_that_prints_no_id_takes_any_id(
        self, capsys, tmp_path, table_model, command, extra
    ):
        # the TSV check sits with the table writer, not the loader
        def outputs(name, bad_id):
            samples = load_table_iv()
            samples[2] = dataclasses.replace(samples[2], id=bad_id or samples[2].id)
            folder = tmp_path / name
            folder.mkdir()
            write_dataset(folder / "in.csv", samples)
            argv = [command, "--data", str(folder / "in.csv"),
                    *(a.format(dir=folder, model=table_model[1]) for a in extra)]
            code, out, err = run(capsys, argv)
            files = {p.name: p.read_bytes() for p in folder.iterdir() if p.name != "in.csv"}
            return code, out.replace(str(folder), "{dir}"), err, files

        plain = outputs("plain", None)
        assert plain[0] == 0
        assert outputs("tabbed", "a\tb") == plain

    def test_gas_above_ceiling(self, capsys, tmp_path, synth_csv):
        model = str(tmp_path / "m.json")
        main(["train", "--data", synth_csv, "--k", "18", "--model", model] + FAST)
        code, out, err = run(capsys, [
            "diagnose", "--h2", "1e308", "--ch4", "1e308", "--c2h6", "1",
            "--c2h4", "1", "--c2h2", "1", "--model", model,
        ])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "h2" in err

    def test_overlong_csv_field(self, capsys, tmp_path):
        bad = tmp_path / "long.csv"
        bad.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\n" + "x" * 200_000 + ",1,1,1,1,1,\n")
        code, _, err = run(capsys, ["conventional", "--data", str(bad)])
        assert code == 1
        assert err.startswith("error: ") and "long.csv:2" in err
        assert "Traceback" not in err

    def test_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\na,1,1,1,1,1,WAT\n")
        code, _, err = run(capsys, ["rank", "--data", str(bad)])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_base_score(self, capsys, tmp_path, synth_csv, bad):
        # the base score is gbt.BASE_SCORE, not file contents: a file that
        # sets one, to any value, is refused by name
        path = tmp_path / "model.json"
        main(["train", "--data", synth_csv, "--k", "18", "--model", str(path)] + FAST)
        doc = json.loads(path.read_text())
        doc["base_score"] = bad
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "100", "--ch4", "10", "--c2h6", "5",
            "--c2h4", "1", "--c2h2", "0.5", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and "base_score" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("class_order", [["PD"] * 6, ["T3", "T2", "T1", "D2", "D1", "PD"]])
    def test_non_canonical_class_order(self, capsys, tmp_path, synth_csv, class_order):
        # any other list would relabel the argmax columns; the class order is
        # CLASS_ORDER, not file contents, so a file that sets one is refused
        path = tmp_path / "model.json"
        main(["train", "--data", synth_csv, "--k", "18", "--model", str(path)] + FAST)
        doc = json.loads(path.read_text())
        doc["class_order"] = class_order
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "292", "--ch4", "346", "--c2h6", "32",
            "--c2h4", "313", "--c2h2", "196", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and "class_order" in err
        assert "Traceback" not in err

    def test_overflowing_reading_is_named(self, capsys, seed11_model):
        _, model = seed11_model
        gases = [arg for gas, value in OVERFLOWING_GASES.items() for arg in (f"--{gas}", value)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["diagnose", *gases, "--model", model])
        assert (code, out, caught) == (1, "", [])
        assert err == f"error: {OVERFLOWING_MESSAGE} (sample cli)\n"

    def test_overflowing_row_fails_the_batch_by_name(self, capsys, tmp_path, seed11_model):
        data, model = seed11_model
        batch = tmp_path / "batch.csv"
        lines = Path(data).read_text().splitlines()[:4]
        batch.write_text("\n".join(lines + ["r-bad," + ",".join(OVERFLOWING_GASES.values()) + ","]) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["diagnose", "--data", str(batch), "--model", model])
        assert (code, out, caught) == (1, "", [])
        assert err == f"error: {batch}:5: {OVERFLOWING_MESSAGE} (sample r-bad)\n"

    def test_non_utf8_model(self, capsys, tmp_path, synth_csv):
        path = tmp_path / "model.json"
        main(["train", "--data", synth_csv, "--k", "18", "--model", str(path)] + FAST)
        path.write_bytes(path.read_bytes().replace(b'"seed"', b'"se\xffed"'))
        code, out, err = run(capsys, [
            "diagnose", "--h2", "100", "--ch4", "10", "--c2h6", "5",
            "--c2h4", "1", "--c2h2", "0.5", "--model", str(path),
        ])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not UTF-8")
        assert "Traceback" not in err


GAS_TEXT = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "0", "-0", "-0.0", "1e400", "-1e400", "5e-324",
        "2.2e-309", "1e-310", "2e6", "1000000", "1000000.0000001", "0x10", "1_0",
        " 5 ", "\t7.5\n", "", "abc", "1e", "-1", "100", "0.001",
    ]),
    st.floats(0, 1e6).map(repr),
    st.floats(0, 2.2250738585072014e-308).map(repr),  # zero and subnormals
    st.floats(allow_nan=True, allow_infinity=True).map(str),
)


@settings(max_examples=150, deadline=None)
@given(gases=st.lists(GAS_TEXT, min_size=5, max_size=5), compare=st.booleans())
def test_diagnose_argv_ends_in_a_documented_exit(seed11_model, gases, compare):
    """Any gas text on the `diagnose` command line ends in exit 0, 1 (bad
    value) or 2 (usage), with an `error:` line on failure and no traceback
    or warning."""
    _, model = seed11_model
    argv = ["diagnose", "--model", model] + ["--compare"] * compare
    for name, text in zip(("h2", "ch4", "c2h6", "c2h4", "c2h2"), gases):
        argv.append(f"--{name}={text}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the text
            code = exc.code
    assert caught == []
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().startswith("id\t") and err.getvalue() == ""
    else:
        assert code in (1, 2) and out.getvalue() == ""
        assert "error: " in err.getvalue()


@pytest.fixture(scope="module")
def table_model(tmp_path_factory):
    """The bundled Table IV file, a 3-round model trained on it at k = 24,
    and a scratch directory: (data path, model path, directory)."""
    tmp = tmp_path_factory.mktemp("table")
    data, model = str(tmp / "six.csv"), str(tmp / "model.json")
    write_dataset(data, load_table_iv())
    assert main(["train", "--data", data, "--model", model, "--rounds", "3"]) == 0
    return data, model, tmp


def _seed_argv(command, data, model, tmp):
    return {
        "synth": ["synth", "--out", str(tmp / "s.csv")],
        "searchk": ["searchk", "--data", data, "--out", str(tmp / "c.tsv"), "--rounds", "2"],
        "evaluate-holdout": ["evaluate", "--data", data, "--model", model, "--holdout", "0.5"],
        "evaluate-cv": ["evaluate", "--data", data, "--model", model, "--cv", "2"],
        "evaluate-apply": ["evaluate", "--data", data, "--model", model],
    }[command]


@pytest.mark.parametrize("command", ["synth", "searchk", "evaluate-holdout", "evaluate-cv",
                                     "evaluate-apply"])
def test_negative_seed_is_refused_by_name(capsys, table_model, command):
    # numpy refused it without naming the flag; the seed's one owner refuses
    # it now, and `evaluate` without --holdout or --cv reads no seed at all
    code, out, err = run(capsys, _seed_argv(command, *table_model) + ["--seed", "-1"])
    assert (code, out) == (1, "")
    if command == "evaluate-apply":
        assert err == "error: --seed requires --holdout or --cv\n"
    else:
        assert err == "error: seed must be a non-negative integer, got -1\n"


BAD_NUMBER_TEXT = ["", "x", "1e", "0x10", "1_0", " 5 ", "nan", "-inf", "1e400", "2.5", "-0"]


def _number(values):
    """A flag value: one of `values` as text, or one time in eight text
    that may not parse."""
    return st.integers(0, 7).flatmap(
        lambda roll: st.sampled_from(BAD_NUMBER_TEXT) if roll == 0 else values.map(str)
    )


def _optional(name, values):
    """`--name=<value>` or nothing."""
    return st.one_of(st.just([]), _number(values).map(lambda text: [f"--{name}={text}"]))


K = st.one_of(st.integers(2, 37), st.integers(-2, 40))
FRACTION = st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5), st.just(1e-300))
SEED = st.one_of(st.integers(0, 3), st.integers(-3, -1), st.integers(0, 2**80))
GBT_FLAGS = st.tuples(
    _number(st.integers(0, 4)).map(lambda text: [f"--rounds={text}"]),  # never the default 100
    _optional("learning-rate", st.one_of(FRACTION, st.floats())),
    _optional("max-depth", st.integers(-1, 8)),
).map(lambda parts: sum(parts, []))


@st.composite
def _numeric_argv(draw, data, model, tmp):
    command = draw(st.sampled_from(["train", "searchk", "evaluate"]))
    if command == "train":
        argv = ["train", "--data", data, "--model", str(tmp / "m.json")]
        argv += draw(_optional("k", K)) + draw(GBT_FLAGS)
    elif command == "searchk":
        argv = ["searchk", "--data", data, "--out", str(tmp / "curve.tsv")]
        argv += draw(_optional("kmin", K)) + draw(_optional("kmax", K))
        argv += draw(_optional("train-frac", FRACTION)) + draw(_optional("seed", SEED))
        argv += draw(GBT_FLAGS)
    else:
        argv = ["evaluate", "--data", data, "--model", model]
        mode = draw(st.sampled_from(["apply", "holdout", "cv", "both"]))
        if mode in ("holdout", "both"):
            argv.append(f"--holdout={draw(_number(FRACTION))}")
        if mode in ("cv", "both"):
            argv.append(f"--cv={draw(_number(st.integers(-1, 4)))}")
        argv += draw(_optional("seed", SEED))
        argv += ["--smote"] * draw(st.sampled_from([False, False, False, True]))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numeric_flags_end_in_a_documented_exit(table_model, data):
    """Any text for the numeric flags of `train`, `searchk` and `evaluate`
    on the Table IV file ends in exit 0, 1 (bad value) or 2 (usage), never
    in a traceback; a failure prints an `error:` line and warns of nothing,
    and a success warns of nothing but a k outside the usual range."""
    argv = data.draw(_numeric_argv(*table_model))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the text
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
        # a k in 2..17 may be warned of, as documented, and nothing else
        assert all("outside the usual 18..37 range" in str(w.message) for w in caught)
    else:
        assert code in (1, 2) and out.getvalue() == ""
        assert "error: " in err.getvalue()
        assert caught == []


COUNTS = st.one_of(
    st.lists(st.integers(0, 2), min_size=6, max_size=6).map(lambda c: ",".join(map(str, c))),
    st.lists(st.integers(-1, 2), min_size=0, max_size=8).map(lambda c: ",".join(map(str, c))),
    st.sampled_from(["1,1,1,1,1,x", "1,,1,1,1,1", "1.5,1,1,1,1,1", ",", " "]),
)


@st.composite
def _other_argv(draw, data, tmp):
    command = draw(st.sampled_from(["rank", "features", "conventional", "decompose", "synth"]))
    out = ["--out", str(tmp / f"{command}.out")]
    canonical = ["--canonical"] * draw(st.booleans())
    if command == "rank":
        argv = ["rank"] + draw(st.sampled_from([[], ["--data", data]])) + canonical
    elif command in ("features", "decompose"):
        argv = [command, "--data", data] + draw(_optional("k", K)) + canonical
    elif command == "conventional":
        argv = ["conventional", "--data", data]
        argv += draw(_optional("method", st.sampled_from(["duval", "rogers", "iec", "all", "x"])))
    else:
        argv = ["synth"] + draw(_optional("seed", SEED)) + draw(_optional("counts", COUNTS))
    return argv + out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_other_commands_end_in_a_documented_exit(table_model, data):
    """Any text for the flags of `rank`, `features`, `conventional`,
    `decompose` and `synth` ends in exit 0, 1 (bad value) or 2 (usage),
    never in a traceback; a failure prints an `error:` line and warns of
    nothing, and a success warns of nothing but a k outside the usual range."""
    path, _, tmp = table_model
    argv = data.draw(_other_argv(path, tmp))
    Path(argv[-1]).unlink(missing_ok=True)  # the --out file of an earlier example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the text
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert Path(argv[-1]).exists()
        assert all("outside the usual 18..37 range" in str(w.message) for w in caught)
    else:
        assert code in (1, 2) and out.getvalue() == ""
        assert "error: " in err.getvalue()
        assert caught == []
