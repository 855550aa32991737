"""Dataset CSV ingestion, synthetic data generation, and model persistence.

CSV schema (UTF-8, a leading byte-order mark skipped, comma separator, dot
decimal, header required):

    id,h2,ch4,c2h6,c2h4,c2h2,label

Gas fields are decimals, each 0 or in MIN_PPM..MAX_PPM (1e-9..1e6 ppm);
label is one of PD/D1/D2/T1/T2/T3 or empty for unlabeled rows; a blank id is
replaced by the file line number.  Every malformed file raises ValueError
naming the path.
Model files are versioned JSON documents carrying the boosting config, the
rank order and k the model was trained with (k is its feature count), the
train seed (it drives nothing; the CLI's `train` takes none and writes 0),
and the full tree ensemble; `config` holds exactly the
`GbtConfig` fields, and neither the document nor "trees" holds any other
key.  Format version 6 stores the ensemble as the `GbtModel` node arrays:
under "trees", the two lists feature and value, every tree's nodes in
preorder one after another, [round][class].  feature is -1 at a leaf, and
value is a split's threshold or a leaf's weight; the leaf marks fix where
each tree ends and where each right child is (see `dgadiag.gbt`).  The
class order, class count and base score are the package's constants
(CLASS_ORDER, its length and `gbt.BASE_SCORE`), not file contents.
`load_model` checks the document's keys, its version and that each tree
list holds JSON numbers and no bools, and passes the plain values to the
types that own their rules, as in memory: `GbtConfig` checks the config,
`features._check_k` k, `validate_rank_order` the rank order, and
`GbtModel` the seed and the trees (each list's kind, per `NODE_ARRAYS`,
lists of one length that parse into `config.rounds` rounds of whole
trees, finite values, features below k, and leaves with a finite sum).
All writes go through a temp file + rename so readers never observe
partial output.
"""

from __future__ import annotations

import codecs
import csv
import json
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from importlib import resources
from io import StringIO
from typing import Sequence

import numpy as np

from .core import CLASS_ORDER, GAS_NAMES, FaultLabel, GasSample, _integer, _rng, _shown
from .features import _check_k
from .gbt import NODE_ARRAYS, GbtConfig, GbtModel
from .ranking import validate_rank_order

CSV_HEADER = ["id", *GAS_NAMES, "label"]
_LABELS = {label.value: label for label in FaultLabel}  # FaultLabel(text), as a lookup
MODEL_FORMAT_VERSION = 6

# Per-class log-uniform gas ranges (ppm) for the synthetic generator, chosen
# so each class's draws land in its own Duval-triangle zone with probability
# well above one half (measured rates: PD/D1/T1/T3 ~1.0, T2 ~0.92, D2 ~0.75).
SYNTH_GAS_RANGES: dict[FaultLabel, dict[str, tuple[float, float]]] = {
    FaultLabel.PD: dict(
        h2=(600, 3000), ch4=(60, 250), c2h6=(5, 40), c2h4=(0.05, 0.8), c2h2=(0.01, 0.3)
    ),
    FaultLabel.D1: dict(
        h2=(150, 1200), ch4=(20, 120), c2h6=(2, 25), c2h4=(2, 15), c2h2=(30, 250)
    ),
    FaultLabel.D2: dict(
        h2=(80, 600), ch4=(130, 350), c2h6=(5, 40), c2h4=(95, 220), c2h2=(80, 220)
    ),
    FaultLabel.T1: dict(
        h2=(60, 400), ch4=(90, 300), c2h6=(40, 200), c2h4=(7, 16), c2h2=(0.001, 0.3)
    ),
    FaultLabel.T2: dict(
        h2=(40, 300), ch4=(160, 420), c2h6=(30, 150), c2h4=(95, 230), c2h2=(0.01, 1.5)
    ),
    FaultLabel.T3: dict(
        h2=(30, 250), ch4=(50, 180), c2h6=(10, 60), c2h4=(250, 900), c2h2=(2, 25)
    ),
}

# the original dataset's class counts (`reference.REFERENCE_CLASS_COUNTS`)
DEFAULT_SYNTH_COUNTS: tuple[int, ...] = (42, 67, 113, 80, 21, 53)


def atomic_write_text(path: str, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`.

    A failure leaves no temp file behind, and an OSError names `path`, not
    the temp file the user never gave.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_dataset(path) -> list[GasSample]:
    """Read gas samples from a UTF-8 CSV file; raises ValueError naming the
    first bad line, or the line of a decoding or CSV syntax error."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)  # as Excel's "CSV UTF-8" starts
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(StringIO(text, newline=""))
    samples: list[GasSample] = []
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected header {CSV_HEADER}")
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {CSV_HEADER}")
        start = reader.line_num + 1
        for row in reader:
            line_no, start = start, reader.line_num + 1  # a quoted field may span lines
            try:
                ident, h2, ch4, c2h6, c2h4, c2h2, label_text = row
            except ValueError:
                if not row:
                    continue
                raise ValueError(
                    f"{path}:{line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                ) from None
            try:
                h2, ch4, c2h6, c2h4, c2h2 = (
                    float(h2), float(ch4), float(c2h6), float(c2h4), float(c2h2)
                )
            except ValueError:
                for name, text in zip(GAS_NAMES, row[1:6]):  # the first bad gas
                    try:
                        float(text)
                    except ValueError:
                        raise ValueError(
                            f"{path}:{line_no}: gas {name} is not a number: {text!r}"
                        ) from None
            label_text = label_text.strip()
            label = _LABELS.get(label_text)
            if label is None and label_text:
                raise ValueError(f"{path}:{line_no}: unknown label {label_text!r}")
            try:
                sample = GasSample(h2, ch4, c2h6, c2h4, c2h2, label, ident.strip() or str(line_no))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            samples.append(sample)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return samples


def _csv_field(text: str) -> str:
    """`text` as one CSV field, quoted the way `csv.QUOTE_MINIMAL` quotes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_dataset(path, samples: Sequence[GasSample]) -> None:
    """Write samples as CSV that `load_dataset` reads back equal, floats
    exactly.  An id holding a NUL character raises ValueError and nothing
    is written: the csv reader of Python 3.10 rejects NUL."""
    lines = [",".join(CSV_HEADER)]
    for s in samples:
        label = s.label.value if s.label is not None else ""
        gases = ",".join(repr(float(g)) for g in s.gases())
        lines.append(f"{_csv_field(s.id)},{gases},{label}")
    text = "\n".join(lines) + "\n"
    if "\0" in text:  # only an id can hold one
        bad = next(s.id for s in samples if "\0" in s.id)
        raise ValueError(f"id {bad!r} holds a NUL character, which cannot be written")
    atomic_write_text(str(path), text)


def load_table_iv() -> list[GasSample]:
    """The bundled six-transformer reference samples."""
    with resources.as_file(resources.files("dgadiag.data") / "tableIV.csv") as path:
        return load_dataset(path)


def generate_synthetic(
    seed: int, counts: Sequence[int] = DEFAULT_SYNTH_COUNTS
) -> list[GasSample]:
    """Draw labeled samples per class from the documented log-uniform ranges.

    `counts` gives the number of samples per class in canonical class order,
    each an integer >= 0.  Output is deterministic in `seed`, a non-negative
    integer: each class takes one `Generator.uniform` call over a (count, 5)
    array of log-gases, filled in C order (sample by sample, gases in
    `GAS_NAMES` order), the order of the per-gas scalar draws it replaced:
    a seed's samples are unchanged.
    """
    counts = list(counts)
    if len(counts) != len(CLASS_ORDER):
        raise ValueError(f"expected {len(CLASS_ORDER)} class counts, got {len(counts)}")
    rng = _rng(seed)
    samples: list[GasSample] = []
    for label, count in zip(CLASS_ORDER, counts):
        if _integer(f"{label.value} count", count) < 0:
            raise ValueError(f"{label.value} count must be >= 0, got {_shown(count)}")
        bounds = np.log([SYNTH_GAS_RANGES[label][name] for name in GAS_NAMES])  # (5, 2)
        draws = rng.uniform(bounds[:, 0], bounds[:, 1], size=(count, len(GAS_NAMES)))
        samples += [
            GasSample(*gases, label, f"syn-{serial:04d}")
            for serial, gases in enumerate(np.exp(draws).tolist(), start=len(samples) + 1)
        ]
    return samples


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """A trained classifier plus the feature recipe it expects: a rank
    order (stored as a tuple of ints) and `k` (stored as an int), which must
    be in 2..37 and the model's feature count, so that every bundle saves a
    file that `load_model` reads back with equal fields.  Compares and
    hashes by identity."""

    model: GbtModel
    rank_order: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank_order", validate_rank_order(self.rank_order))
        object.__setattr__(self, "k", _check_k(self.k))
        if self.k != self.model.n_features:
            raise ValueError(f"k = {self.k}, but the model has {self.model.n_features} features")


def _exact_keys(name: str, obj, keys) -> dict:
    """`obj`, once it is a JSON object with exactly the `keys`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} is not a JSON object")
    missing, unknown = keys - obj.keys(), obj.keys() - keys
    if missing:
        raise ValueError(f"{name} lacks {', '.join(sorted(missing))}")
    if unknown:
        raise ValueError(f"{name} has unknown keys {', '.join(sorted(unknown))}")
    return obj


def save_model(path, bundle: ModelBundle) -> None:
    model = bundle.model
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "rank_order": list(bundle.rank_order),
        "k": bundle.k,
        "seed": model.seed,
        "trees": {name: getattr(model, name).tolist() for name in NODE_ARRAYS},
    }
    atomic_write_text(str(path), json.dumps(doc, separators=(",", ":")) + "\n")


def load_model(path) -> ModelBundle:
    """Parse a model file into a bundle; corrupt, version-mismatched or
    structurally invalid files (the bundle and its model check the values)
    raise ValueError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (ValueError, RecursionError) as exc:  # ValueError: also an integer past the digit limit
        raise ValueError(f"{path}: corrupt model file: {exc}") from None
    try:
        version = doc["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}, "
                             f"expected {MODEL_FORMAT_VERSION}")
        # a key the loader would ignore (an older format's) is refused, not dropped
        keys = {"format_version", "config", "rank_order", "k", "seed", "trees"}
        _exact_keys("model file", doc, keys)
        config = _exact_keys("config", doc["config"], {f.name for f in fields(GbtConfig)})
        k = _check_k(doc["k"])  # before the trees, whose feature indices k bounds
        trees = _exact_keys("trees", doc["trees"], NODE_ARRAYS.keys())
        for name, column in trees.items():
            # numpy would read a bool as a number; GbtModel checks each list's kind
            if not isinstance(column, list) or not set(map(type, column)) <= {int, float}:
                raise ValueError(f"trees.{name} is not a list of numbers")
        model = GbtModel(GbtConfig(**config), k, **trees, seed=doc["seed"])
        return ModelBundle(model=model, rank_order=doc["rank_order"], k=k)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
