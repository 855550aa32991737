import copy
import csv
import dataclasses
import functools
import json
import os
import re
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgadiag.conventional import duval
from dgadiag.core import CLASS_ORDER, GAS_NAMES, MAX_PPM, MIN_PPM, FaultLabel, GasSample
from dgadiag.features import build_features
from dgadiag.gbt import GbtConfig, GbtModel, predict_logits, predict_proba_many, train
from dgadiag.io import (
    CSV_HEADER,
    DEFAULT_SYNTH_COUNTS,
    MODEL_FORMAT_VERSION,
    ModelBundle,
    SYNTH_GAS_RANGES,
    generate_synthetic,
    load_dataset,
    load_model,
    load_table_iv,
    save_model,
    write_dataset,
)
from dgadiag.ranking import CANONICAL_RANK_ORDER


class TestLoadDataset:
    def test_bundled_reference_file(self):
        samples = load_table_iv()
        assert len(samples) == 6
        labels = [s.label.value for s in samples]
        assert labels == ["D2", "D1", "T1", "T1", "D2", "PD"]
        assert samples[0].gases() == (292, 346, 32, 313, 196)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\n")
        assert load_dataset(path) == []

    @pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf"], ids=["empty", "bom-only"])
    def test_no_header_at_all(self, tmp_path, data):
        path = tmp_path / "none.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=r"none\.csv: empty file, expected header \["):
            load_dataset(path)

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\na,1,1,1,1,1,X9\n")
        with pytest.raises(ValueError, match=r":2.*X9"):
            load_dataset(path)

    def test_negative_gas(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\na,-1,1,1,1,1,PD\n")
        with pytest.raises(ValueError, match=r":2"):
            load_dataset(path)

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\na,1,1,1,oops,1,\n")
        with pytest.raises(ValueError, match="c2h4"):
            load_dataset(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\na,1,1,1\n")
        with pytest.raises(ValueError, match=":2"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("h2,ch4\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)

    def test_blank_id_takes_line_number(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            "id,h2,ch4,c2h6,c2h4,c2h2,label\n,1,1,1,1,1,PD\n,2,2,2,2,2,\n"
        )
        samples = load_dataset(path)
        assert [s.id for s in samples] == ["2", "3"]
        assert samples[1].label is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.csv")

    def test_gas_above_ceiling_names_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\na,2e6,1,1,1,1,PD\n")
        with pytest.raises(ValueError, match=r"big\.csv:2: gas h2"):
            load_dataset(path)

    def test_overlong_field_names_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "id,h2,ch4,c2h6,c2h4,c2h2,label\na,1,1,1,1,1,\n" + "x" * 200_000 + ",1,1,1,1,1,\n"
        )
        with pytest.raises(ValueError, match=r"long\.csv:3: field larger"):
            load_dataset(path)

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,h2,ch4,c2h6,c2h4,c2h2,label\na,1,1,1,1,1,\nb\xff,1,1,1,1,1,\n")
        with pytest.raises(ValueError, match=r"latin1\.csv:3: not UTF-8"):
            load_dataset(path)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one; it was read as part
        # of the header's first field, and the header was refused
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_dataset(plain, generate_synthetic(11))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_dataset(bom) == load_dataset(plain)

    def test_a_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,h2,ch4,c2h6,c2h4,c2h2,label\nb\xff,1,1,1,1,1,\n")
        with pytest.raises(ValueError, match=r"bom\.csv:2: not UTF-8"):
            load_dataset(path)


VALID_CSV = (
    b"id,h2,ch4,c2h6,c2h4,c2h2,label\n"
    b"a,292,346,32,313,196,D2\n"
    b",34,8.6,70.3,3.1,0.001,\n"
    b'"q,1",1e-3,0,5e5,1000000,0,T1\n'
)
csv_bytes = st.sampled_from(list(b'\x00",\n\r\xffe.-9') + [0x80, 0xC3])
csv_edit = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(min_value=0, max_value=len(VALID_CSV)),
    st.one_of(
        st.lists(csv_bytes, min_size=1, max_size=4).map(bytes),
        # long runs reach past the csv module's 131,072-character field limit
        st.tuples(csv_bytes, st.sampled_from([100, 131_072, 131_073, 140_000])).map(
            lambda run: bytes([run[0]]) * run[1]
        ),
        st.binary(min_size=1, max_size=4),
    ),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(csv_edit, min_size=1, max_size=4))
def test_mutated_csv_loads_or_raises_value_error(tmp_path, edits):
    data = VALID_CSV
    for kind, at, chunk in edits:
        at = min(at, len(data))
        if kind == "insert":
            data = data[:at] + chunk + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + len(chunk) :]
        else:
            data = data[:at] + chunk + data[at + len(chunk) :]
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    try:
        samples = load_dataset(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path))
    else:
        assert isinstance(samples, list)
        assert all(isinstance(s, GasSample) for s in samples)


def _oracle_csv_rows(path):
    """The records of a UTF-8 CSV file, each as (file line it starts on,
    fields), as `load_dataset` read them through a generator before it
    became one loop over `csv.reader`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(StringIO(text, newline=""))
    line_no = 1
    try:
        for row in reader:
            yield line_no, row
            line_no = reader.line_num + 1  # a quoted field may span lines
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _oracle_load_dataset(path) -> list[GasSample]:
    """`load_dataset` as written over `_oracle_csv_rows`, with one `float`
    call per gas, the label through the FaultLabel call and keyword
    construction.  The reference for the differential test below."""
    samples: list[GasSample] = []
    rows = _oracle_csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected header {CSV_HEADER}")
    if [h.strip().lower() for h in header] != CSV_HEADER:
        raise ValueError(f"{path}: bad header {header!r}, expected {CSV_HEADER}")
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ValueError(
                f"{path}:{line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            )
        sample_id = row[0].strip() or str(line_no)
        gases = []
        for name, text in zip(GAS_NAMES, row[1:6]):
            try:
                gases.append(float(text))
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: gas {name} is not a number: {text!r}"
                ) from None
        label_text = row[6].strip()
        try:
            label = FaultLabel(label_text) if label_text else None
        except ValueError:
            raise ValueError(f"{path}:{line_no}: unknown label {label_text!r}") from None
        try:
            samples.append(GasSample(*gases, label=label, id=sample_id))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return samples


GOOD_GAS = st.one_of(
    st.floats(min_value=MIN_PPM, max_value=MAX_PPM).map(repr),
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(["0", "-0.0", " 1.5 ", "1e3", "1_000", "1e-9", "1000000", ".5"]),
)
NOT_A_NUMBER = st.sampled_from(["", " ", "x", "1,5", "0x10", "1e", "1..2", "\u00bd", "nan!"])
OUT_OF_RANGE = st.sampled_from(["-1", "2e6", "nan", "inf", "-inf", "1000000.0000000002", "1e400",
                                "5e-324", "9.999999999999999e-10"])
GOOD_LABEL = st.sampled_from(["", " ", "PD", "D1", "D2", "T1", " T2", "T3 "])
BAD_LABEL = st.sampled_from(["X9", "pd", "P D", "NF", "UD", "FaultLabel.PD"])
# quoted ids may span lines, and one of only white space takes the number
# of the line its record starts on
GOOD_ID = st.sampled_from(["", "  ", "a", "q,1", 'x"y', "r 7", "12", "a\nb", "\r\n", " \n\n "])


@st.composite
def csv_row(draw) -> list[str]:
    """One CSV record: clean, blank, or with one bad field of one kind."""
    row = [draw(GOOD_ID), *(draw(GOOD_GAS) for _ in GAS_NAMES), draw(GOOD_LABEL)]
    kind = draw(st.sampled_from(["clean", "clean", "blank", "count", "gas", "label", "range"]))
    if kind == "blank":
        return []
    if kind == "count":
        return row[:-1] if draw(st.booleans()) else row + [draw(GOOD_LABEL)]
    if kind == "label":
        row[6] = draw(BAD_LABEL)
    elif kind in ("gas", "range"):
        row[1 + draw(st.integers(0, 4))] = draw(NOT_A_NUMBER if kind == "gas" else OUT_OF_RANGE)
    return row


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(csv_row(), max_size=8),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    tail=st.sampled_from(["", "", "\n\n", '"an id never closed,1', "a\0b,1,1,1,1,1,PD\n"]),
)
def test_load_dataset_matches_the_oracle(tmp_path, rows, newline, tail):
    text = StringIO()
    writer = csv.writer(text, lineterminator=newline)
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    path = tmp_path / "rows.csv"
    path.write_bytes((text.getvalue() + tail).encode("utf-8"))
    try:
        expected = _oracle_load_dataset(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_dataset(path)
        assert str(got.value) == str(exc)  # the first bad line, named the same way
    else:
        got = load_dataset(path)
        assert got == expected
        assert repr(got) == repr(expected)  # signed zeros and float types too


class TestWriteDataset:
    def test_round_trip(self, tmp_path):
        samples = generate_synthetic(3, counts=(2, 2, 2, 2, 2, 2))
        path = tmp_path / "out.csv"
        write_dataset(path, samples)
        assert load_dataset(path) == samples

    def test_unlabeled_round_trip(self, tmp_path):
        samples = [GasSample(1.5, 2.25, 0.1, 7.0, 0.0, id="u")]
        path = tmp_path / "u.csv"
        write_dataset(path, samples)
        assert load_dataset(path) == samples

    def test_quoted_id_round_trip(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('id,h2,ch4,c2h6,c2h4,c2h2,label\n"a,b",1,2,3,4,5,PD\n')
        samples = load_dataset(path)
        assert samples[0].id == "a,b"
        write_dataset(path, samples)
        assert path.read_text().splitlines()[1] == '"a,b",1.0,2.0,3.0,4.0,5.0,PD'
        assert load_dataset(path) == samples

    def test_plain_ids_are_not_quoted(self, tmp_path):
        samples = [GasSample(1.0, 2.0, 3.0, 4.0, 5.0, id=i) for i in ("u", "a b", "x'y", ";")]
        path = tmp_path / "p.csv"
        write_dataset(path, samples)
        assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == [
            "u", "a b", "x'y", ";"
        ]

    def test_nul_id_is_refused(self, tmp_path):
        # no sample holds one, so no file is written with one; Python 3.10's
        # csv reader refuses the line, later ones pass the id to GasSample
        with pytest.raises(ValueError, match=r"^id 'a\\x00b' holds a NUL character$"):
            GasSample(1.0, 2.0, 3.0, 4.0, 5.0, id="a\0b")
        path = tmp_path / "nul.csv"
        path.write_bytes(b"id,h2,ch4,c2h6,c2h4,c2h2,label\nok,1,2,3,4,5,PD\na\0b,1,2,3,4,5,\n")
        with pytest.raises(ValueError, match=r"nul\.csv:3: "):
            load_dataset(path)

    def test_multi_line_id_keeps_file_line_numbers(self, tmp_path):
        # the id spans lines 2-3, so the blank id is line 4 and the bad label
        # line 6; an id reads back stripped
        path = tmp_path / "nl.csv"
        samples = [GasSample(1.0, 2.0, 3.0, 4.0, 5.0, id=i) for i in ("a\nb", "", " c ")]
        write_dataset(path, samples)
        assert [s.id for s in load_dataset(path)] == ["a\nb", "4", "c"]
        with open(path, "a") as fh:
            fh.write("c,1,1,1,1,1,X9\n")
        with pytest.raises(ValueError, match=r"nl\.csv:6: unknown label 'X9'"):
            load_dataset(path)


# ids load_dataset keeps as written: non-blank, no surrounding whitespace
# (it strips ids and numbers blank ones) and no NUL (GasSample refuses
# it); the first alphabet holds every character that needs quoting
csv_id = st.text(
    st.sampled_from(',"\r\n ab')
    | st.characters(exclude_categories=("Cs",), exclude_characters="\0"),
    min_size=1,
).filter(lambda text: text == text.strip())
gas_value = st.just(0.0) | st.floats(min_value=MIN_PPM, max_value=MAX_PPM) | st.integers(0, 10**6)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    samples=st.lists(
        st.builds(
            GasSample, gas_value, gas_value, gas_value, gas_value, gas_value,
            st.none() | st.sampled_from(CLASS_ORDER), csv_id,
        ),
        max_size=6,
    )
)
def test_write_dataset_round_trips_any_id(tmp_path, samples):
    path = tmp_path / "ids.csv"
    write_dataset(path, samples)
    assert load_dataset(path) == samples


class TestGenerateSynthetic:
    def test_default_counts(self):
        samples = generate_synthetic(0)
        assert len(samples) == 376
        hist = {lbl: 0 for lbl in CLASS_ORDER}
        for s in samples:
            hist[s.label] += 1
        assert tuple(hist[lbl] for lbl in CLASS_ORDER) == DEFAULT_SYNTH_COUNTS

    def test_zero_counts(self):
        assert generate_synthetic(0, counts=(0, 0, 0, 0, 0, 0)) == []

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(a, generate_synthetic(42))
        write_dataset(b, generate_synthetic(42))
        assert a.read_bytes() == b.read_bytes()

    def test_gas_values_within_ranges(self):
        for s in generate_synthetic(1, counts=(20,) * 6):
            ranges = SYNTH_GAS_RANGES[s.label]
            for gas, (lo, hi) in ranges.items():
                assert lo <= getattr(s, gas) <= hi

    def test_duval_zone_hit_rates(self):
        # the documented design constraint on the generator parameters
        samples = generate_synthetic(123, counts=(200,) * 6)
        hits = {lbl: 0 for lbl in CLASS_ORDER}
        for s in samples:
            if duval(s).value == s.label.value:
                hits[s.label] += 1
        for lbl in CLASS_ORDER:
            assert hits[lbl] / 200 > 0.5, lbl

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, counts=(1, 2, 3))
        for bad in (-1, True, False, 2.0, "3", None, np.float64(1.0), np.bool_(True)):
            with pytest.raises(ValueError) as exc:
                generate_synthetic(0, counts=(0, 0, bad, 0, 0, 0))
            must = ">= 0" if bad == -1 else "an integer"
            assert str(exc.value) == f"D2 count must be {must}, got {bad!r}"

    def test_numpy_integer_counts(self):
        counts = (np.int64(2), np.int32(0), np.uint8(1), 1, 0, np.int16(3))
        assert generate_synthetic(4, counts) == generate_synthetic(4, (2, 0, 1, 1, 0, 3))


def _oracle_generate_synthetic(seed, counts=DEFAULT_SYNTH_COUNTS) -> list[GasSample]:
    """`generate_synthetic` as written before it drew a class at a time:
    scalar log bounds, one scalar `uniform` and `exp` per gas.  The
    reference for the differential test below."""
    rng = np.random.default_rng(seed)
    samples: list[GasSample] = []
    serial = 0
    for label, count in zip(CLASS_ORDER, counts):
        ranges = SYNTH_GAS_RANGES[label]
        for _ in range(count):
            serial += 1
            gases = {
                name: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                for name, (lo, hi) in ranges.items()
            }
            samples.append(GasSample(**gases, label=label, id=f"syn-{serial:04d}"))
    return samples


synth_seed = st.sampled_from([0, 2**32 - 1, 2**63 + 5, 2**128]) | st.integers(0, 2**128)
synth_counts = (
    st.tuples(*[st.integers(0, 40)] * len(CLASS_ORDER))
    | st.just((0,) * len(CLASS_ORDER))
    | st.builds(
        lambda i, n: tuple(n if j == i else 0 for j in range(len(CLASS_ORDER))),
        st.integers(0, len(CLASS_ORDER) - 1),
        st.integers(1, 40),
    )
)


@settings(max_examples=300, deadline=None)
@given(seed=synth_seed, counts=synth_counts)
def test_generate_synthetic_matches_per_gas_draws(seed, counts):
    got = generate_synthetic(seed, counts)
    expected = _oracle_generate_synthetic(seed, counts)
    assert got == expected  # labels and ids in order too
    assert [[g.hex() for g in s.gases()] for s in got] == [
        [g.hex() for g in s.gases()] for s in expected
    ]


NODE_FIELDS = ["feature", "value"]
NODE_DTYPES = [np.int64, np.float64]


def _toy_bundle() -> ModelBundle:
    samples = generate_synthetic(5, counts=(8,) * 6)
    order = CANONICAL_RANK_ORDER
    fm = build_features(samples, order, 20)
    model = train(fm.x, fm.labels, GbtConfig(rounds=8, max_depth=3), seed=2)
    return ModelBundle(model=model, rank_order=order, k=20)


def _tree_sizes(feature) -> list[int]:
    """The node count of each whole tree in a preorder node list, read one
    node at a time: a tree ends when it has no open child left."""
    sizes, size, open_children = [], 0, 1
    for f in feature:
        size += 1
        open_children += 1 if f != -1 else -1
        if open_children == 0:
            sizes.append(size)
            size, open_children = 0, 1
    return sizes


def _right_children(feature) -> list[int]:
    """Each node's right child counted from its tree's root, -1 at a leaf,
    as format 5 stored them: a split's left subtree is the first whole tree
    after it."""
    right, start = [], 0
    for size in _tree_sizes(feature):
        for i in range(start, start + size):
            split = feature[i] != -1
            right.append(i - start + 1 + _tree_sizes(feature[i + 1 :])[0] if split else -1)
        start += size
    return right


def _split_root(trees) -> tuple[int, int]:
    """(node index, node count) of the first tree whose root splits."""
    start = 0
    for size in _tree_sizes(trees["feature"]):
        if trees["feature"][start] >= 0:
            return start, size
        start += size
    raise AssertionError("no tree splits")


def _feature_out_of_range(doc):
    root, _ = _split_root(doc["trees"])
    doc["trees"]["feature"][root] = doc["k"]


def _extra_tree_in_round(doc):
    # a one-leaf tree more
    for name, leaf in zip(NODE_FIELDS, [-1, 0.0]):
        doc["trees"][name].append(leaf)


def _no_trees(doc):
    for name in NODE_FIELDS:
        doc["trees"][name] = []


def _nan_threshold(doc):
    root, _ = _split_root(doc["trees"])
    doc["trees"]["value"][root] = float("nan")  # a split node's value is its threshold


def _unequal_lengths(doc):
    doc["trees"]["value"].append(0.0)


def _zero_node_count(doc):
    # the first tree emptied: a tree of no nodes is no tree at all, so one
    # tree is missing
    size = _tree_sizes(doc["trees"]["feature"])[0]
    for name in NODE_FIELDS:
        del doc["trees"][name][:size]


def _extra_round(doc):
    # a round of one-leaf trees more, and rounds unchanged
    for _ in CLASS_ORDER:
        _extra_tree_in_round(doc)


def _child_into_next_tree(doc):
    # the last leaf of the first tree that splits marked a split: its two
    # children are the next two trees, so two trees fewer
    root, size = _split_root(doc["trees"])
    doc["trees"]["feature"][root + size - 1] = 0


def _root_marked_a_leaf(doc):
    # the first split root marked a leaf: its two subtrees read as two trees more
    root, _ = _split_root(doc["trees"])
    doc["trees"]["feature"][root] = -1


def _last_leaf_marked_a_split(doc):
    # the last node marked a split: the lists end inside the last tree
    doc["trees"]["feature"][-1] = 0


def _cut_inside_a_tree(doc):
    # both lists cut just before the last node of the first tree that splits
    root, size = _split_root(doc["trees"])
    for name in NODE_FIELDS:
        del doc["trees"][name][root + size - 1 :]


def _k_mismatch(doc):
    # k is the feature count: one at or below a feature the trees split on
    # would let the walk index past the end of a row
    root, _ = _split_root(doc["trees"])
    doc["k"] = doc["trees"]["feature"][root]


# Format 3 also stored the class order, the class count, the base score and
# n_features; they are the package's constants and k in format 4, so a
# document that still sets one is refused by name, whatever its value.
CLASS_NAMES = [label.value for label in CLASS_ORDER]


def _short_class_order(doc):
    doc["class_order"] = CLASS_NAMES[:-1]


def _permuted_class_order(doc):
    doc["class_order"] = CLASS_NAMES[::-1]


def _repeated_class_order(doc):
    doc["class_order"] = ["PD"] * len(CLASS_NAMES)


def _n_classes_five(doc):
    doc["config"]["n_classes"] = 5


def _nan_base_score(doc):
    doc["base_score"] = float("nan")


def _infinite_base_score(doc):
    doc["base_score"] = float("inf")


def _v3_keys(doc):
    doc.update(base_score=0.5, class_order=CLASS_NAMES, n_features=doc["k"])


def _v5_trees(doc):
    # format 5's node counts and right children, which the leaf marks fix;
    # with format_version 6 they are refused, not ignored
    trees = doc["trees"]
    trees["node_counts"] = _tree_sizes(trees["feature"])
    trees["right"] = _right_children(trees["feature"])


def _format_v5(doc):
    _v5_trees(doc)
    doc["format_version"] = 5


def _v4_trees(doc):
    # format 4's node lists: format 5's, the left child stored, and the
    # threshold apart from the leaf weight, which was 0.0 at internal nodes
    _v5_trees(doc)
    trees = doc["trees"]
    position = [i for size in trees["node_counts"] for i in range(size)]
    split = [feature >= 0 for feature in trees["feature"]]
    value = trees.pop("value")
    trees["threshold"] = [v if s else 0.0 for v, s in zip(value, split)]
    trees["left"] = [i + 1 if s else -1 for i, s in zip(position, split)]
    trees["value"] = [0.0 if s else v for v, s in zip(value, split)]


def _format_v4(doc):
    _v4_trees(doc)
    doc["format_version"] = 4


def _format_v3(doc):
    # a whole format 3 document: every key format 4 dropped is back
    _v4_trees(doc)
    _v3_keys(doc)
    doc["config"].update(reg_lambda=1.0, gamma=0.0, min_child_weight=1.0, n_classes=6)
    doc["format_version"] = 3


# mutations of the node lists that change how many trees they parse into,
# and the message that names each fault
NODE_COUNT_FAULTS = [
    (_zero_node_count, "the model has 47 trees, not 8 rounds of 6"),
    (_extra_tree_in_round, "the model has 49 trees, not 8 rounds of 6"),
    (_extra_round, "the model has 54 trees, not 8 rounds of 6"),
    (_child_into_next_tree, "the model has 46 trees, not 8 rounds of 6"),
    (_root_marked_a_leaf, "the model has 50 trees, not 8 rounds of 6"),
    (_last_leaf_marked_a_split, "the model has 47 trees, then part of one, not 8 rounds of 6"),
    (_cut_inside_a_tree, r"the model has \d+ trees, then part of one, not 8 rounds of 6"),
]


def _config_lacks_keys(doc):
    # `GbtConfig(**config)` filled these in with its defaults
    del doc["config"]["learning_rate"], doc["config"]["max_depth"]


def _config_unknown_key(doc):
    doc["config"]["subsample"] = 0.5


def _config_keeps_reg_lambda(doc):
    doc["config"]["reg_lambda"] = 1.0  # now the constant gbt.REG_LAMBDA


# mutations of the version and the keys, and the message that names each fault
CONFIG_KEY_FAULTS = [
    (_config_lacks_keys, "config lacks learning_rate, max_depth"),
    (_config_unknown_key, "config has unknown keys subsample"),
    (_config_keeps_reg_lambda, "config has unknown keys reg_lambda"),
    (_n_classes_five, "config has unknown keys n_classes"),
    (_v3_keys, "model file has unknown keys base_score, class_order, n_features"),
    (_format_v3, "unsupported format_version 3, expected 6"),
    (_format_v4, "unsupported format_version 4, expected 6"),
    (_format_v5, "unsupported format_version 5, expected 6"),
    (_v4_trees, "trees has unknown keys left, node_counts, right, threshold"),
    (_v5_trees, "trees has unknown keys node_counts, right"),
]


def _overflowing_leaves(doc):
    # each leaf is finite, but a row reaching both sums to an infinite logit:
    # the last node of the class-0 trees of rounds 0 and 1
    ends = np.cumsum(_tree_sizes(doc["trees"]["feature"])) - 1
    for tree in 0, len(CLASS_ORDER):
        doc["trees"]["value"][int(ends[tree])] = 1e308


def _set(*keys, value):
    """A mutation that sets the field at `keys` to `value`."""

    def mutate(doc):
        *path, last = keys
        for key in path:
            doc = doc[key]
        doc[last] = value

    return mutate


def _set_root(name, value):
    """A mutation that sets field `name` of the first split root to `value`."""

    def mutate(doc):
        root, _ = _split_root(doc["trees"])
        doc["trees"][name][root] = value

    return mutate


# loosely typed fields that `int()` or `float()` used to truncate or parse
# (on the toy model: canonical rank order 28, 24, 1, ..., k = 20, seed 2,
# rounds 8, max_depth 3), and format 3's fields, refused as unknown keys
LOOSE_FIELDS = {
    "rank_order-float": _set("rank_order", 0, value=28.9),
    "rank_order-string": _set("rank_order", 0, value="28"),
    "rank_order-bool": _set("rank_order", 2, value=True),
    "k-float": _set("k", value=20.9),
    "n_features-float": _set("n_features", value=20.0),
    "seed-string": _set("seed", value="2"),
    "base_score-string": _set("base_score", value="0.5"),
    "base_score-bool": _set("base_score", value=True),
    "rounds-float": _set("config", "rounds", value=8.0),
    "max_depth-float": _set("config", "max_depth", value=3.5),
    "reg_lambda-bool": _set("config", "reg_lambda", value=True),
    "learning_rate-string": _set("config", "learning_rate", value="0.3"),
    "feature-bool": _set_root("feature", True),
    "feature-float": _set_root("feature", 2.0),
    "threshold-bool": _set_root("value", True),  # a split node's value is its threshold
}


def _mutated_model(tmp_path, mutate):
    """Save the toy model, apply `mutate` to its JSON document, and write
    the result to model.json."""
    source = tmp_path / "source.json"
    save_model(source, _toy_bundle())
    doc = json.loads(source.read_text())
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


def _value_one_short(doc):
    doc["trees"]["value"].pop()


def _negative_feature(doc):
    root, _ = _split_root(doc["trees"])
    doc["trees"]["feature"][root] = -2  # only -1 marks a leaf


def _model_of_doc(doc) -> GbtModel:
    """A `GbtModel` built in memory from a model document's fields, without
    `load_model`."""
    trees = doc["trees"]
    return GbtModel(
        GbtConfig(**doc["config"]),
        doc["k"],
        *(np.array(trees[name], dtype) for name, dtype in zip(NODE_FIELDS, NODE_DTYPES)),
        seed=doc["seed"],
    )


# mutations of the trees and the message `GbtModel` names each with, however
# the model was built: `load_model` gives the same
TREE_FAULTS = [
    (_zero_node_count, "the model has 47 trees, not 8 rounds of 6"),
    (_child_into_next_tree, "the model has 46 trees, not 8 rounds of 6"),
    (_last_leaf_marked_a_split, "the model has 47 trees, then part of one, not 8 rounds of 6"),
    (_feature_out_of_range, r"feature index out of range 0\.\.19"),
    (_negative_feature, r"feature index out of range 0\.\.19"),
    (_nan_threshold, "non-finite threshold or leaf value"),
    (_overflowing_leaves, "leaf values can add up to a non-finite logit"),
    (_value_one_short, "feature and value must be flat arrays with one entry per node"),
]


@pytest.mark.parametrize("mutate, message", TREE_FAULTS,
                         ids=[mutate.__name__ for mutate, _ in TREE_FAULTS])
def test_tree_faults_are_refused_in_memory(mutate, message):
    # a model built by hand gets the checks a loaded one does, at
    # construction, so that no walk runs on it
    doc = json.loads(_toy_model_text())
    mutate(doc)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _model_of_doc(doc)


def test_node_arrays_must_be_flat():
    # a (rounds, classes) or column-shaped array raised IndexError or
    # TypeError from the checks themselves
    model = _model_of_doc(json.loads(_toy_model_text()))
    for feature, value in [(model.feature[:, None], model.value),
                           (model.feature[None], model.value[None])]:
        with pytest.raises(ValueError, match="^feature and value must be flat arrays with one entry per node$"):
            GbtModel(model.config, model.n_features, feature, value)


@pytest.mark.parametrize("name", ["feature"])
def test_ids_must_be_signed_integers(name):
    # a float feature index would pass every other check, then raise
    # IndexError inside the walk; an unsigned one has no -1 leaf mark
    model = _model_of_doc(json.loads(_toy_model_text()))
    for dtype in (np.float64, np.uint64):
        arrays = {n: getattr(model, n) for n in NODE_FIELDS}
        arrays[name] = arrays[name].astype(dtype)
        with pytest.raises(ValueError, match=f"^{name} must be a signed integer array$"):
            GbtModel(model.config, model.n_features, **arrays)


def test_values_must_be_real():
    # a complex value lost its imaginary part with only a ComplexWarning,
    # and an object one raised TypeError from the finiteness check
    model = _model_of_doc(json.loads(_toy_model_text()))
    for dtype in (np.complex128, object, bool, str):
        with pytest.raises(ValueError, match="^value must be a real array$"):
            GbtModel(model.config, model.n_features, model.feature, model.value.astype(dtype))


@pytest.mark.parametrize("form", [list, tuple])
@pytest.mark.parametrize("flag", [True, np.bool_(False)], ids=["bool", "np.bool_"])
@pytest.mark.parametrize("name, message", [("feature", "a signed integer"), ("value", "a real")])
def test_a_bool_in_a_node_list_is_refused(form, flag, name, message):
    # numpy reads a bool among numbers as 1 or 0: True at a split built a
    # model that split on feature 1
    doc = json.loads(_toy_model_text())
    model = _model_of_doc(doc)
    root, _ = _split_root(doc["trees"])
    columns = {n: doc["trees"][n] for n in NODE_FIELDS}
    built = GbtModel(model.config, model.n_features, **{n: form(c) for n, c in columns.items()})
    assert np.array_equal(built.feature, model.feature) and np.array_equal(built.value, model.value)
    columns[name][root] = flag
    with pytest.raises(ValueError, match=f"^{name} must be {message} array$"):
        GbtModel(model.config, model.n_features, **{n: form(c) for n, c in columns.items()})


FLAT_NODES = "feature and value must be flat arrays with one entry per node"
# mutations that give a tree list elements of a kind or a shape the model
# refuses, and the message the loader names each with (GbtModel's own)
NODE_KIND_FAULTS = {
    "feature-float": (_set_root("feature", 2.0), "feature must be a signed integer array"),
    "feature-past-int64": (_set_root("feature", 2**63), "feature must be a signed integer array"),
    "value-past-float": (_set_root("value", 10**400), "value must be a real array"),
    "feature-bool": (_set_root("feature", True), "feature must be a signed integer array"),
    "value-bool": (_set_root("value", False), "value must be a real array"),
    "value-string": (_set_root("value", "0.5"), "value must be a real array"),
    "value-object": (_set("trees", "value", value={}), "value must be a real array"),
    "feature-null": (_set_root("feature", None), "feature must be a signed integer array"),
    "value-null": (_set_root("value", None), "value must be a real array"),
    "value-number": (_set("trees", "value", value=0.5), FLAT_NODES),
    "feature-nested": (lambda doc: doc["trees"].update(feature=[doc["trees"]["feature"]]),
                       FLAT_NODES),
}


@pytest.mark.parametrize("mutate, message", NODE_KIND_FAULTS.values(), ids=NODE_KIND_FAULTS.keys())
def test_loader_names_the_node_list_of_a_wrong_kind(tmp_path, mutate, message):
    path = _mutated_model(tmp_path, mutate)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_model(path)


# dtypes of each numpy kind, and the kinds each node array accepts, in words
KIND_DTYPES = [np.int8, np.int32, np.int64, np.uint8, np.uint64, np.float16, np.float32,
               np.float64, np.longdouble, np.complex64, np.bool_, object, np.str_,
               "datetime64[s]", "timedelta64[s]"]
ACCEPTED_KINDS = {"feature": ("i", "a signed integer"), "value": ("iuf", "a real")}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(NODE_FIELDS), dtype=st.sampled_from(KIND_DTYPES),
       form=st.sampled_from([np.asarray, list, tuple]))
def test_node_arrays_are_refused_by_name_or_kept_as_own_copies(name, dtype, form):
    doc = json.loads(_toy_model_text())
    model = _model_of_doc(doc)
    base = getattr(model, name).astype(dtype)
    if form is not np.asarray and base.dtype.kind == "O":
        return  # a list of an object array's elements is a list of Python numbers
    arrays = {n: getattr(model, n) for n in NODE_FIELDS}
    arrays[name] = form(base[:])  # an array's base is `base`
    kinds, kind_words = ACCEPTED_KINDS[name]
    if base.dtype.kind not in kinds:
        with pytest.raises(ValueError, match=f"^{name} must be {kind_words} array$"):
            GbtModel(model.config, model.n_features, **arrays)
        return
    built = GbtModel(model.config, model.n_features, **arrays)
    own = getattr(built, name)
    assert own.dtype == dict(zip(NODE_FIELDS, NODE_DTYPES))[name] and not own.flags.writeable
    assert own.tolist() == base.astype(own.dtype).tolist()
    assert not np.shares_memory(own, base)
    assert form is not np.asarray or arrays[name].flags.writeable  # the caller's array
    rows = np.random.default_rng(0).normal(scale=4.0, size=(40, model.n_features))
    bundle = ModelBundle(built, doc["rank_order"], doc["k"])

    def outputs():
        with tempfile.TemporaryDirectory() as tmp:
            save_model(os.path.join(tmp, "m.json"), bundle)
            saved = Path(tmp, "m.json").read_bytes()
        return predict_logits(built, rows).tobytes(), saved

    before = outputs()
    base[...] = base[::-1]  # the model's first split moves to the last node
    if isinstance(arrays[name], list):
        arrays[name].reverse()
    assert outputs() == before


def test_document_fields_build_the_loaded_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(_toy_model_text())
    loaded = load_model(path).model
    built = _model_of_doc(json.loads(_toy_model_text()))
    rows = np.random.default_rng(1).normal(size=(50, loaded.n_features))
    assert predict_logits(built, rows).tobytes() == predict_logits(loaded, rows).tobytes()


# k and seed values of each kind a caller may pass, with whether the toy
# model (20 features, 8 rounds) accepts them
K_VALUES = [(20, True), (np.int64(20), True), (np.uint8(20), True), (21, False),
            (20.0, False), (np.float64(20.0), False), (True, False), ("20", False)]
SEED_VALUES = [(0, True), (np.int64(3), True), (np.uint16(7), True), (2**70, True),
               (2.5, False), (3.0, False), (True, False), (np.bool_(False), False),
               ("x", False), (None, False)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    k=st.sampled_from(K_VALUES),
    seed=st.sampled_from(SEED_VALUES),
    extra_rounds=st.sampled_from([-1, 0, 1]),
    order=st.sampled_from([CANONICAL_RANK_ORDER, list(CANONICAL_RANK_ORDER),
                           np.array(CANONICAL_RANK_ORDER, dtype=np.int16)]),
)
def test_every_bundle_saves_a_file_that_loads_back_equal(tmp_path, k, seed, extra_rounds, order):
    # a value the loader would refuse is refused by name when the model or
    # the bundle is built; any bundle that is built reads back equal
    (k, k_ok), (seed, seed_ok) = k, seed
    checks = {"k": k_ok, "seed": seed_ok, "rounds": extra_rounds == 0}
    faults = {name for name, ok in checks.items() if not ok}
    base = _model_of_doc(json.loads(_toy_model_text()))
    try:
        model = dataclasses.replace(base, config=GbtConfig(rounds=8 + extra_rounds), seed=seed)
        bundle = ModelBundle(model=model, rank_order=order, k=k)
    except ValueError as exc:
        named = "rounds" if " rounds of " in str(exc) else str(exc).split()[0]
        assert named in faults, exc
        return
    assert not faults
    path = tmp_path / "model.json"
    save_model(path, bundle)
    loaded = load_model(path)
    assert type(loaded.k) is type(bundle.k) is int and loaded.k == k
    assert type(loaded.model.seed) is type(bundle.model.seed) is int and loaded.model.seed == seed
    assert loaded.rank_order == bundle.rank_order == CANONICAL_RANK_ORDER
    rows = np.random.default_rng(0).normal(size=(40, 20))
    assert predict_logits(loaded.model, rows).tobytes() == predict_logits(bundle.model, rows).tobytes()


class TestModelPersistence:
    def test_round_trip_predictions(self, tmp_path):
        bundle = _toy_bundle()
        path = tmp_path / "model.json"
        save_model(path, bundle)
        loaded = load_model(path)
        assert loaded.k == bundle.k
        assert loaded.rank_order == bundle.rank_order
        assert loaded.model.config == bundle.model.config
        rows = np.random.default_rng(0).normal(size=(100, 20))
        assert np.array_equal(
            predict_proba_many(bundle.model, rows),
            predict_proba_many(loaded.model, rows),
        )

    def test_save_deterministic_bytes(self, tmp_path):
        bundle = _toy_bundle()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, bundle)
        save_model(b, bundle)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file(self, tmp_path):
        bundle = _toy_bundle()
        path = tmp_path / "model.json"
        save_model(path, bundle)
        truncated = tmp_path / "trunc.json"
        truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match="corrupt"):
            load_model(truncated)

    def test_version_mismatch(self, tmp_path):
        bundle = _toy_bundle()
        path = tmp_path / "model.json"
        save_model(path, bundle)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_model(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": MODEL_FORMAT_VERSION}))
        with pytest.raises(ValueError, match=": model file lacks config, k, rank_order, seed, trees$"):
            load_model(path)

    def test_trees_are_flat_lists(self, tmp_path):
        bundle = _toy_bundle()
        path = tmp_path / "model.json"
        save_model(path, bundle)
        doc = json.loads(path.read_text())
        assert list(doc) == ["format_version", "config", "rank_order", "k", "seed", "trees"]
        trees = doc["trees"]
        assert list(trees) == NODE_FIELDS
        model = bundle.model
        sizes = _tree_sizes(trees["feature"])
        assert len(sizes) == model.config.rounds * len(CLASS_ORDER)
        assert sum(sizes) == len(trees["feature"]) == len(trees["value"])
        assert np.cumsum([0, *sizes[:-1]]).tolist() == model._forest.starts.tolist()
        for name in NODE_FIELDS:
            assert trees[name] == getattr(model, name).tolist()

    @pytest.mark.parametrize("mutate", [
        _feature_out_of_range,
        _extra_tree_in_round,
        _no_trees,
        _nan_threshold,
        _unequal_lengths,
        _k_mismatch,
        _short_class_order,
        _permuted_class_order,
        _repeated_class_order,
        _n_classes_five,
        _nan_base_score,
        _infinite_base_score,
        _overflowing_leaves,
        _zero_node_count,
        _child_into_next_tree,
        _root_marked_a_leaf,
        _last_leaf_marked_a_split,
        _cut_inside_a_tree,
        _config_lacks_keys,
        _config_unknown_key,
        _config_keeps_reg_lambda,
        _v3_keys,
        _format_v3,
        _format_v4,
        _format_v5,
        _v4_trees,
        _v5_trees,
        *(pytest.param(m, id=name) for name, m in LOOSE_FIELDS.items()),
    ])
    def test_invalid_structure_rejected(self, tmp_path, mutate):
        path = _mutated_model(tmp_path, mutate)
        with pytest.raises(ValueError, match="model.json"):
            load_model(path)

    @pytest.mark.parametrize("mutate, message", NODE_COUNT_FAULTS,
                             ids=[mutate.__name__ for mutate, _ in NODE_COUNT_FAULTS])
    def test_node_count_faults_are_named(self, tmp_path, mutate, message):
        path = _mutated_model(tmp_path, mutate)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_model(path)

    @pytest.mark.parametrize("mutate, message", CONFIG_KEY_FAULTS,
                             ids=[mutate.__name__ for mutate, _ in CONFIG_KEY_FAULTS])
    def test_config_key_faults_are_named(self, tmp_path, mutate, message):
        path = _mutated_model(tmp_path, mutate)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_model(path)

    @pytest.mark.parametrize("k", [0, 1, 38, 2**63])
    def test_k_outside_the_parameter_count_is_refused(self, tmp_path, k):
        # k = n_features = 2**63 used to load, and a feature row of that
        # length could not even be allocated; k = 1 loaded, and no feature
        # row could be built for it
        def mutate(doc):
            doc["k"] = k

        path = _mutated_model(tmp_path, mutate)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: k must be in 2\.\.37, got {k}$"):
            load_model(path)

    def test_thresholds_do_not_count_as_leaf_weights(self, tmp_path):
        # the logit bound sums the largest leaf of each tree: a threshold
        # of 1e308 at every split is no leaf weight, and the model loads
        def mutate(doc):
            trees = doc["trees"]
            trees["value"] = [
                1e308 if f >= 0 else v for f, v in zip(trees["feature"], trees["value"])
            ]

        bundle = load_model(_mutated_model(tmp_path, mutate))
        rows = np.random.default_rng(0).normal(size=(50, bundle.k))
        assert np.all(np.isfinite(predict_logits(bundle.model, rows)))

    def test_bundle_k_must_match_the_model(self):
        model = _toy_bundle().model
        with pytest.raises(ValueError, match="^k = 24, but the model has 20 features$"):
            ModelBundle(model=model, rank_order=CANONICAL_RANK_ORDER, k=24)

    def test_every_bundle_saves_a_loadable_file(self, tmp_path):
        # a rank order or k that load_model would refuse is refused when the
        # bundle is built, so save_model never writes such a file
        model = _toy_bundle().model
        with pytest.raises(ValueError, match=r"^rank order must be a permutation of 1\.\.37$"):
            ModelBundle(model=model, rank_order=(1, 2, 3), k=20)
        one_column = train(np.arange(12.0)[:, None], [*CLASS_ORDER] * 2, GbtConfig(rounds=2))
        with pytest.raises(ValueError, match=r"^k must be in 2\.\.37, got 1$"):
            ModelBundle(model=one_column, rank_order=CANONICAL_RANK_ORDER, k=1)
        bundle = ModelBundle(model=model, rank_order=np.array(CANONICAL_RANK_ORDER), k=20)
        assert type(bundle.rank_order) is tuple and bundle.rank_order == CANONICAL_RANK_ORDER
        save_model(tmp_path / "m.json", bundle)
        assert load_model(tmp_path / "m.json").rank_order == CANONICAL_RANK_ORDER

    def test_bundle_refuses_trees_that_do_not_match_the_rounds(self):
        # a model whose tree count is not its rounds is refused when it is
        # built, so no bundle holds one and saves a file load_model refuses
        with pytest.raises(ValueError, match="^the model has 48 trees, not 5 rounds of 6$"):
            dataclasses.replace(_toy_bundle().model, config=GbtConfig(rounds=5))

    def test_readme_trees_example_loads(self, tmp_path):
        # the README's "trees" example, in a full document, is a model
        # this loader reads, and each row gets the leaves the text says
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r'```\n("trees":\{.*?\})\n```', readme, re.DOTALL).group(1)
        trees = json.loads("{" + block + "}")["trees"]
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "config": {"rounds": 1, "learning_rate": 0.3, "max_depth": 6},
            "rank_order": list(CANONICAL_RANK_ORDER),
            "k": 24,
            "seed": 0,
            "trees": trees,
        }
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(doc))
        model = load_model(path).model
        assert model.feature.tolist() == trees["feature"]
        rows = np.zeros((2, 24))
        rows[:, 3] = [0.0, 1.0]  # below and above the root's threshold 0.25
        leaves = trees["value"]
        want = [[leaves[1], *leaves[3:]], [leaves[2], *leaves[3:]]]
        assert predict_logits(model, rows).tolist() == (0.5 + np.array(want)).tolist()

    def test_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, _toy_bundle())
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(ValueError, match=r"model\.json: not UTF-8"):
            load_model(path)

    def test_deep_nesting_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match=r"model\.json: corrupt"):
            load_model(path)

    def test_an_integer_past_the_digit_limit_is_corrupt(self, tmp_path):
        # json refuses to read it with a ValueError that names no file
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 1' + "0" * 5000 + "}")
        with pytest.raises(ValueError, match=r"model\.json: corrupt model file: .*4300 digits"):
            load_model(path)


@functools.cache
def _toy_model_text() -> str:
    """The saved toy model, trained once per session."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "toy.json")
        save_model(path, _toy_bundle())
        with open(path, encoding="utf-8") as fh:
            return fh.read()


JSON_VALUES = [
    None, True, False, 0, 1, -1, 2, 5, 20, 37, 2**63, 10**30, 0.5, -0.0,
    1e-300, 1e308, -1e308, float("nan"), float("inf"), float("-inf"),
    "", "PD", "2", [], [1], [[1]], {}, {"feature": [-1]},
]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_model_loads_or_raises_value_error(tmp_path, data):
    doc = json.loads(_toy_model_text())
    trees = doc["trees"]
    for _ in range(data.draw(st.integers(0, 2))):
        # the node lists: a leaf mark flipped either way, or one list or both
        # cut short or extended by nodes of any kind
        kind = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
        names = data.draw(st.sampled_from([NODE_FIELDS, ["feature"], ["value"]]))
        feature = trees["feature"]
        if kind == "flip" and feature:
            i = data.draw(st.integers(0, len(feature) - 1))
            feature[i] = data.draw(st.integers(-1, doc["k"] - 1)) if feature[i] == -1 else -1
        elif kind == "truncate":
            cut = data.draw(st.integers(0, len(feature)))
            for name in names:
                del trees[name][cut:]
        elif kind == "extend":
            for _ in range(data.draw(st.integers(1, 7))):
                for name in names:
                    trees[name].append(
                        data.draw(st.integers(-1, doc["k"] - 1)) if name == "feature"
                        else data.draw(st.sampled_from([0.0, -1.5, 2.0, 1e308])))
    for _ in range(data.draw(st.integers(0, 3))):
        # walk down from the top, so that every level is mutated often
        parent, key = doc, data.draw(st.sampled_from(list(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
            parent = parent[key]
            keys = list(parent) if isinstance(parent, dict) else range(len(parent))
            key = data.draw(st.sampled_from(keys))
        kind = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if kind == "replace":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(JSON_VALUES)))
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):  # one element more
            parent.insert(key, copy.deepcopy(parent[key]))
        else:  # the value again under an unknown key
            parent[key + "_"] = copy.deepcopy(parent[key])
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        bundle = load_model(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path))
        return
    rows = np.random.default_rng(0).normal(scale=4.0, size=(8, bundle.model.n_features))
    assert np.all(np.isfinite(predict_logits(bundle.model, rows)))
    assert np.all(np.isfinite(predict_proba_many(bundle.model, rows)))
