"""Feature panel handling: loading and quantile discretization.

The raw panel is a time-indexed collection of (date, stock_id, feature vector,
forward excess return) records. Numeric features are discretized into m
modalities with empirical quantiles fitted on a learning sample and applied
unchanged out of sample; categorical features keep their own code set.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .csvio import BLOCK_ROWS, InputCsv, parse_columns
from .errors import (
    DuplicateRow,
    EmptyPanel,
    NonPositiveModalities,
    SpecMismatch,
)

# Code assigned to missing feature values. Intervals only cover codes >= 0,
# so a missing value can never activate a condition on that feature.
MISSING_CODE = -1

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureSpec:
    """Declares one feature column."""

    feature_id: str
    kind: str = NUMERIC

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SpecMismatch(f"unknown feature kind {self.kind!r}")


@dataclass
class RawPanel:
    """Column-oriented raw panel of (date, stock_id) rows. columns[k] is a
    float64 array (NaN = missing) for numeric features and an object array
    (None = missing) for categorical ones; y is the 3-month forward excess
    return as a decimal (0.01 = 1%), NaN when the outcome is not observed.
    Rows are in record_keys order, each key once (dates ascending, then stock
    ids in string order); else DuplicateRow or SpecMismatch names the row."""

    dates: np.ndarray
    stock_ids: np.ndarray
    columns: List[np.ndarray]
    y: np.ndarray

    def __post_init__(self):
        dates, ids = self.dates, self.stock_ids
        ok = (dates[1:] > dates[:-1]) | (dates[1:] == dates[:-1]) & (ids[1:] > ids[:-1])
        if not ok.all():
            i = int(np.argmin(ok)) + 1
            key, prior = f"({dates[i]}, {ids[i]!r})", f"({dates[i - 1]}, {ids[i - 1]!r})"
            if key == prior:
                raise DuplicateRow(f"panel row {i}: repeated (date, stock_id) key {key}")
            raise SpecMismatch(f"panel row {i}: (date, stock_id) key {key} comes after {prior}")

    @property
    def n(self) -> int:
        return len(self.dates)

    def take(self, index) -> "RawPanel":
        """Rows selected by an ascending index array, boolean mask or slice."""
        return RawPanel(
            dates=self.dates[index],
            stock_ids=self.stock_ids[index],
            columns=[c[index] for c in self.columns],
            y=self.y[index],
        )


def _check_columns(panel: RawPanel, specs: Sequence[FeatureSpec]) -> None:
    if len(panel.columns) != len(specs):
        raise SpecMismatch(
            f"panel has {len(panel.columns)} columns, specs declare {len(specs)}"
        )


def empirical_quantile(sorted_values: np.ndarray, p: float):
    """Smallest sample value whose empirical CDF is >= p."""
    n = len(sorted_values)
    idx = int(np.ceil(p * n)) - 1
    return sorted_values[max(idx, 0)]


@dataclass
class Discretizer:
    """Fitted binning for one panel: quantile cut points per numeric feature,
    category tables per categorical feature."""

    specs: List[FeatureSpec]
    edges: Dict[str, np.ndarray] = field(default_factory=dict)
    categories: Dict[str, List[str]] = field(default_factory=dict)

    def n_codes(self, feature_id: str) -> int:
        """Size of the code set for one feature (full-interval width)."""
        if feature_id in self.categories:
            return max(len(self.categories[feature_id]), 1)
        return len(self.edges[feature_id]) + 1

    def code_counts(self) -> List[int]:
        return [self.n_codes(s.feature_id) for s in self.specs]

    def to_json(self) -> str:
        blob = {}
        for spec in self.specs:
            if spec.kind == NUMERIC:
                blob[spec.feature_id] = {
                    "kind": NUMERIC,
                    "edges": [float(e) for e in self.edges[spec.feature_id]],
                }
            else:
                blob[spec.feature_id] = {
                    "kind": CATEGORICAL,
                    "categories": list(self.categories[spec.feature_id]),
                }
        return json.dumps(blob, indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Discretizer":
        blob = json.loads(text)
        specs = []
        edges: Dict[str, np.ndarray] = {}
        categories: Dict[str, List[str]] = {}
        for feature_id, entry in blob.items():
            kind = entry["kind"]
            specs.append(FeatureSpec(feature_id=feature_id, kind=kind))
            if kind == NUMERIC:
                cuts = np.asarray(entry["edges"], dtype=np.float64)
                if cuts.ndim != 1 or not np.isfinite(cuts).all() or np.any(np.diff(cuts) < 0):
                    raise ValueError(f"edges of {feature_id!r} are not finite and ascending")
                edges[feature_id] = cuts
            else:
                labels = entry["categories"]
                if not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)
                        and len(set(labels)) == len(labels)):
                    raise ValueError(f"categories of {feature_id!r} are not distinct strings")
                categories[feature_id] = labels
        return cls(specs=specs, edges=edges, categories=categories)


def fit_discretizer(panel: RawPanel, specs: Sequence[FeatureSpec], m: int) -> Discretizer:
    """Fit per-feature binning on a sample.

    Numeric features with more than m distinct values get m-1 cut points at
    the k/m empirical quantiles (smallest value with CDF >= k/m). Numeric
    features with at most m distinct values get identity binning: each
    distinct value is its own modality, in sorted order. Categorical features
    keep the sorted set of their observed labels, str(value), as code table.
    """
    if m < 2:
        raise NonPositiveModalities(f"m must be >= 2, got {m}")
    specs = list(specs)
    if len({s.feature_id for s in specs}) != len(specs):
        raise SpecMismatch("duplicate feature_id in specs")
    _check_columns(panel, specs)
    if panel.n == 0:
        raise EmptyPanel("no observations")

    disc = Discretizer(specs=specs)
    for spec, col in zip(specs, panel.columns):
        if spec.kind == CATEGORICAL:
            disc.categories[spec.feature_id] = sorted({str(v) for v in col if v is not None})
            continue
        values = col[np.isfinite(col)]
        if len(values) == 0:
            # All-missing column: single degenerate modality.
            disc.edges[spec.feature_id] = np.empty(0, dtype=np.float64)
            continue
        values = np.sort(values)
        distinct = np.unique(values)
        if len(distinct) <= m:
            disc.edges[spec.feature_id] = distinct[:-1].astype(np.float64)
        else:
            cuts = np.array(
                [empirical_quantile(values, k / m) for k in range(1, m)],
                dtype=np.float64,
            )
            disc.edges[spec.feature_id] = cuts
    return disc


@dataclass
class DiscretizedPanel:
    """Time-ordered discretized panel.

    x holds modality codes (int32, MISSING_CODE for missing values), y the
    forward excess returns (NaN when unobserved), rows in RawPanel order.
    """

    specs: List[FeatureSpec]
    dates: np.ndarray
    stock_ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    n_codes: List[int]

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def feature_ids(self) -> List[str]:
        return [s.feature_id for s in self.specs]

    def take(self, index) -> "DiscretizedPanel":
        return DiscretizedPanel(
            specs=self.specs,
            dates=self.dates[index],
            stock_ids=self.stock_ids[index],
            x=self.x[index],
            y=self.y[index],
            n_codes=self.n_codes,
        )


def apply_discretizer(panel: RawPanel, discretizer: Discretizer) -> DiscretizedPanel:
    """Map raw values to modality codes with frozen bins.

    Bins are right-closed (a value equal to a cut point falls in the lower
    bin); values outside the fitted range clamp to the extreme modalities;
    missing values map to MISSING_CODE. A categorical value is looked up by
    its str, and an unseen label is missing. Output rows keep the panel's
    (date, stock_id) order.
    """
    specs = discretizer.specs
    _check_columns(panel, specs)
    n, d = panel.n, len(specs)
    x = np.full((n, d), MISSING_CODE, dtype=np.int32)
    for k, spec in enumerate(specs):
        col = panel.columns[k]
        if spec.kind == CATEGORICAL:
            table = {v: code for code, v in enumerate(discretizer.categories[spec.feature_id])}
            x[:, k] = [MISSING_CODE if v is None else table.get(str(v), MISSING_CODE) for v in col]
        else:
            if spec.feature_id not in discretizer.edges:
                raise SpecMismatch(f"no fitted edges for feature {spec.feature_id!r}")
            edges = discretizer.edges[spec.feature_id]
            ok = np.isfinite(col)
            codes = np.searchsorted(edges, col[ok], side="left").astype(np.int32)
            x[ok, k] = codes

    return DiscretizedPanel(
        specs=list(specs),
        dates=panel.dates,
        stock_ids=panel.stock_ids,
        x=x,
        y=panel.y,
        n_codes=discretizer.code_counts(),
    )


# A month-end review acts on the scores and the universe snapshot dated this
# many trading days before it: the data a manager would have had when
# deciding. The study reads it, and synth dates its snapshots by it.
SCORE_LAG_DAYS = 4


def month_ends(dates: np.ndarray) -> np.ndarray:
    """Last date of each calendar month present in a sorted daily grid."""
    months = dates.astype("datetime64[M]")
    keep = np.ones(len(dates), dtype=bool)
    keep[:-1] = months[:-1] != months[1:]
    return dates[keep]


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

# Parsed inputs are cached beside each input file, in this directory, as one
# <input file name>.npz per input name. A cache file is used only when its key
# (CACHE_FORMAT, the loader, its column converters and the sha256 of the
# input's bytes) matches; any other cache file is rewritten. The CSV is always
# the source of truth, and deleting the directory is always safe.
CACHE_DIR = ".rulescreen-cache"
CACHE_FORMAT = 4


def cache_path(path) -> Path:
    """Where the parse cache of the input file `path` lives."""
    path = Path(path)
    return path.parent / CACHE_DIR / f"{path.name}.npz"


def _read_cache(path: Path, key: str) -> Optional[List[np.ndarray]]:
    """The arrays cached under `key`, or None when the file is missing,
    unreadable or holds another key. An object column is stored as a
    unicode array plus a mask of its None cells."""
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile) or str(npz.get("key")) != key:
                return None
            arrays = []
            for i in range(int(npz["count"])):
                values = npz[f"arr_{i}"]
                if f"none_{i}" in npz.files:
                    values = values.astype(object)
                    values[npz[f"none_{i}"]] = None
                arrays.append(values)
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    return arrays


def _write_cache(path: Path, key: str, arrays: Sequence[np.ndarray]) -> None:
    """Store `arrays` under `key` through a temporary file replaced into
    place. A cache that cannot be written is skipped, and no temporary file
    is left behind."""
    blobs = {"key": np.array(key), "count": np.array(len(arrays))}
    for i, values in enumerate(arrays):
        if values.dtype == object:
            none = np.equal(values, None)
            blobs[f"none_{i}"] = none
            values = np.where(none, "", values).astype(str)
        blobs[f"arr_{i}"] = values
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        with open(tmp, "xb") as fh:
            np.savez(fh, **blobs)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()


Converter = Callable[[List[str]], np.ndarray]


def parsed(
    source: InputCsv,
    loader: str,
    columns: Sequence[Tuple[int, Converter]],
    finish: Callable[[List[np.ndarray], List[int]], List[np.ndarray]],
) -> List[np.ndarray]:
    """The arrays `loader` makes of the file `source` reads, from the cache
    beside it when the key matches, else by converting each block of records
    as it is read, so a cache miss holds one block of cells at a time: each
    (column, converter) pair converted by parse_columns one block at a time,
    the blocks joined and passed with the record line numbers to `finish`,
    which checks the records and returns the arrays to keep. They are cached
    only once `finish` has returned, and not for a file without records."""
    key = " ".join(
        [f"rulescreen-cache-{CACHE_FORMAT}", loader]
        + [convert.__name__ for _, convert in columns]
        + [source.sha256]
    )
    cache = cache_path(source.path)
    arrays = _read_cache(cache, key) if source.cacheable else None
    if arrays is None:
        parts, lines = [[] for _ in columns], []
        for cells, block_lines in source.records():
            converted = parse_columns(
                source.path, block_lines, *[(cells[i], f) for i, f in columns]
            )
            for part, array in zip(parts, converted):
                part.append(array)
            lines += block_lines
        # Each column's blocks are let go as soon as they are joined.
        arrays = finish([np.concatenate(parts.pop(0)) for _ in columns], lines)
        if source.cacheable and lines:
            _write_cache(cache, key, arrays)
    return arrays


def to_dates(cells) -> np.ndarray:
    """datetime64[D] column. A cell that numpy reads as NaT (empty, or
    "NaT") fails like one that does not parse."""
    dates = np.array(cells, dtype="datetime64[D]")
    nat = np.isnat(dates)
    if nat.any():
        raise ValueError(f"missing date {cells[int(nat.argmax())]!r}")
    return dates


def to_floats(cells) -> np.ndarray:
    return np.array(cells, dtype=np.float64)


def to_floats_or_nan(cells) -> np.ndarray:
    """float64 column in which an empty cell reads as NaN."""
    return np.array([c or "nan" for c in cells], dtype=np.float64)


def to_finite_or_nan(cells) -> np.ndarray:
    """to_floats_or_nan for labels: only an empty cell reads as NaN, and any
    other cell that is not a finite number ("nan", "inf", 1e400) fails."""
    col = to_floats_or_nan(cells)
    for i in np.flatnonzero(~np.isfinite(col)):
        if cells[i]:
            raise ValueError(f"label {cells[i]!r} is not a finite number")
    return col


def to_labels(cells) -> np.ndarray:
    """Object column of labels in which an empty cell reads as None."""
    col = np.array(cells, dtype=object)
    col[col == ""] = None
    return col


def to_strings(cells) -> np.ndarray:
    """Object column of the cells as they are (ids: an empty cell stays "")."""
    return np.array(cells, dtype=object)


def grid_keys(dates: np.ndarray, stock_ids):
    """The one coder of (date, stock_id) keys: the grid dates, ascending,
    each key's date row, the grid stock ids in stock_id order (an object
    array) and each key's stock column. Keys may repeat; see record_keys.
    A unicode array drops trailing NULs, so each id's length is part of its
    code: "S1" and "S1\\0" are two stocks, in that order."""
    grid_dates, row = np.unique(dates, return_inverse=True)
    _, code = np.unique(np.array(stock_ids, dtype=str), return_inverse=True)
    length = np.fromiter(map(len, stock_ids), dtype=np.int64, count=len(stock_ids))
    code = code * (length.max(initial=0) + 1) + length
    _, first, col = np.unique(code, return_index=True, return_inverse=True)
    return grid_dates, row, np.asarray(stock_ids, dtype=object)[first], col


def record_keys(path, lines, dates: np.ndarray, stock_ids):
    """grid_keys of the records of the file `path`: dates ascending, stock
    ids in stock_id order. Every input table is laid out by it.
    Raises DuplicateRow for the first record whose key an earlier one has."""
    grid_dates, row, ids, col = grid_keys(dates, stock_ids)
    key = row * len(ids) + col
    first_of_key = np.unique(key, return_index=True)[1]
    if len(first_of_key) < len(key):
        i = int(np.setdiff1d(np.arange(len(key)), first_of_key)[0])
        raise DuplicateRow(
            f"{path}, line {lines[i]}: repeated (date, stock_id) key "
            f"({dates[i]}, {stock_ids[i]})"
        )
    return grid_dates, row, ids, col


def key_ordered(path, arrays: List[np.ndarray], lines) -> List[np.ndarray]:
    """The finish (see parsed) of the table loaders: the record arrays of the
    file `path`, dates and stock ids first, laid out in record_keys order.
    parsed's arrays are its own, so each is permuted in place."""
    _, row, ids, col = record_keys(path, lines, arrays[0], arrays[1])
    order = np.argsort(row * len(ids) + col)
    for values in arrays:
        values[:] = values[order]
    return arrays


def load_features_csv(path, specs: Optional[Sequence[FeatureSpec]] = None):
    """Read features.csv (`date,stock_id,<feature_id>...`, empty cell = missing);
    a (date, stock_id) key may appear only once.

    Returns (RawPanel without y, specs). Columns default to numeric unless
    specs say otherwise.
    """
    source = InputCsv(
        path,
        lambda header: header[:2] == ["date", "stock_id"],
        f"{path}: expected header date,stock_id,...",
    )
    feature_ids = source.header[2:]
    if specs is None:
        specs = [FeatureSpec(feature_id=f) for f in feature_ids]
    else:
        specs = list(specs)
        if [s.feature_id for s in specs] != feature_ids:
            raise SpecMismatch(f"{path}: header does not match provided specs")

    convert = {NUMERIC: to_floats_or_nan, CATEGORICAL: to_labels}
    dates, stock_ids, *feature_columns = parsed(
        source,
        "features",
        list(enumerate([to_dates, to_strings] + [convert[spec.kind] for spec in specs])),
        functools.partial(key_ordered, path),
    )
    if not len(dates):
        raise EmptyPanel(f"{path}: no data rows")
    y = np.full(len(dates), np.nan, dtype=np.float64)
    return RawPanel(dates=dates, stock_ids=stock_ids, columns=feature_columns, y=y), specs


def load_returns_csv(path) -> RawPanel:
    """The labels of returns.csv as a RawPanel without feature columns. An
    empty return cell means no label, and any other cell must be a finite
    number; a (date, stock_id) key may appear only once."""
    source = InputCsv(
        path,
        lambda header: header == ["date", "stock_id", "fwd_excess_return_3m"],
        f"{path}: expected header date,stock_id,fwd_excess_return_3m",
    )
    dates, stock_ids, y = parsed(
        source,
        "returns",
        [(0, to_dates), (1, to_strings), (2, to_finite_or_nan)],
        functools.partial(key_ordered, path),
    )
    filled = np.isfinite(y)
    return RawPanel(dates=dates[filled], stock_ids=stock_ids[filled], columns=[], y=y[filled])


def attach_returns(panel: RawPanel, returns: RawPanel) -> RawPanel:
    """The panel with y from returns: each row takes the label of its (date,
    stock_id) key, NaN where returns has none. Both hold each key once, in
    key order, so the rows with a label and the labels with a row pair up."""
    rows = np.flatnonzero(np.isin(panel.dates, returns.dates))
    _, row, ids, col = grid_keys(
        np.concatenate([returns.dates, panel.dates[rows]]),
        np.concatenate([returns.stock_ids, panel.stock_ids[rows]]),
    )
    key, n = row * len(ids) + col, returns.n
    y = np.full(panel.n, np.nan, dtype=np.float64)
    y[rows[np.isin(key[n:], key[:n])]] = returns.y[np.isin(key[:n], key[n:])]
    return replace(panel, y=y)


def _cells_by_value(values: np.ndarray, texts: Callable) -> List[str]:
    """The texts of each distinct value of a numeric or date array, keyed by
    bit pattern (-0.0 and 0.0 apart, as are NaN payloads), mapped to the cells."""
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return np.array(texts(distinct.view(values.dtype)), dtype=object)[inverse].tolist()


def float_cells(values) -> List[str]:
    """Each value as its shortest round-trip decimal (repr); each distinct
    value, by bit pattern, is formatted once."""
    values = np.asarray(values, dtype=np.float64)
    return _cells_by_value(values, lambda v: list(map(repr, v.tolist())))


def finite_float_cells(values) -> List[str]:
    """float_cells, each distinct value formatted once by bit pattern, with a
    non-finite value as an empty cell (see to_floats_or_nan)."""
    values = np.asarray(values, dtype=np.float64)
    return _cells_by_value(
        values, lambda v: [repr(x) if math.isfinite(x) else "" for x in v.tolist()]
    )


def str_cells(values) -> List[str]:
    """Each value as str, with None as an empty cell (see to_labels). Each
    distinct value of a numeric or date array, by bit pattern, is formatted
    once; other values one by one, as 1, 1.0 and True are equal but print apart."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biufmM":
        texts = np.datetime_as_string if values.dtype.kind == "M" else lambda v: list(map(str, v))
        return _cells_by_value(values, texts)
    return ["" if v is None else str(v) for v in values]


def write_csv_columns(path, header: Sequence[str], *columns) -> None:
    """The one writer of the CSV outputs, the counterpart of InputCsv.records
    and parse_columns: write `header`, then one record per position of the
    (values, to_cells) columns, formatted and written a block of BLOCK_ROWS
    records at a time, as InputCsv reads them. Each distinct numeric or date
    value of a block is formatted once, by bit pattern."""
    n = len(columns[0][0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            writer.writerows(zip(*[to_cells(values[block]) for values, to_cells in columns]))


def write_features_csv(path, panel: RawPanel, specs: Sequence[FeatureSpec]) -> None:
    to_cells = {NUMERIC: finite_float_cells, CATEGORICAL: str_cells}
    write_csv_columns(
        path,
        ["date", "stock_id"] + [s.feature_id for s in specs],
        (panel.dates, str_cells),
        (panel.stock_ids, str_cells),
        *[(col, to_cells[spec.kind]) for spec, col in zip(specs, panel.columns)],
    )


def write_returns_csv(path, panel: RawPanel) -> None:
    """Only the labeled records: an unobserved outcome has no line."""
    labeled = np.isfinite(panel.y)
    write_csv_columns(
        path,
        ["date", "stock_id", "fwd_excess_return_3m"],
        (panel.dates[labeled], str_cells),
        (panel.stock_ids[labeled], str_cells),
        (panel.y[labeled], float_cells),
    )
