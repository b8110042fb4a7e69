"""Discretization and panel plumbing."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulescreen.errors import (
    BadSplitPoint,
    DuplicateRow,
    EmptyPanel,
    MalformedRow,
    NonPositiveModalities,
    SpecMismatch,
)
from rulescreen.panel import (
    CATEGORICAL,
    MISSING_CODE,
    Discretizer,
    FeatureSpec,
    RawPanel,
    apply_discretizer,
    attach_returns,
    empirical_quantile,
    finite_float_cells,
    fit_discretizer,
    float_cells,
    grid_keys,
    load_features_csv,
    load_returns_csv,
    record_keys,
    split,
    str_cells,
    write_csv_columns,
    write_features_csv,
    write_returns_csv,
)

SPEC1 = [FeatureSpec("f0")]


def raw_panel(dates, stock_ids, *columns, y=None):
    """A RawPanel of the given rows; None in y (or in a numeric column) is
    NaN, an unobserved outcome (or a missing value)."""
    return RawPanel(
        dates=np.array(dates, dtype="datetime64[D]"),
        stock_ids=np.array(stock_ids, dtype=object),
        columns=list(columns),
        y=np.full(len(stock_ids), np.nan) if y is None else np.array(y, dtype=np.float64),
    )


def numeric(values):
    return np.array(values, dtype=np.float64)


def labels(values):
    return np.array(values, dtype=object)


def panel_of(values, y=None):
    """One numeric column, one row per value, each on its own date."""
    n = len(values)
    return raw_panel(np.datetime64("2020-01-01") + np.arange(n),
                     [f"S{i:03d}" for i in range(n)], numeric(values), y=y)


def test_uniform_1_to_100_m4_edges():
    disc = fit_discretizer(panel_of(range(1, 101)), SPEC1, m=4)
    assert disc.edges["f0"].tolist() == [25.0, 50.0, 75.0]


def test_m10_codes_span_0_to_9():
    rng = np.random.default_rng(7)
    disc = fit_discretizer(panel_of(rng.uniform(size=500)), SPEC1, m=10)
    codes = apply_discretizer(panel_of(rng.uniform(size=500)), disc).x[:, 0]
    assert codes.min() >= 0 and codes.max() <= 9


def test_constant_feature_single_modality():
    disc = fit_discretizer(panel_of([3.5] * 20), SPEC1, m=10)
    assert disc.n_codes("f0") == 1
    codes = apply_discretizer(panel_of([3.5, -1.0, 99.0]), disc).x[:, 0]
    assert codes.tolist() == [0, 0, 0]


def test_few_distinct_values_identity_binning():
    # 3 distinct values with m=5: each value becomes its own modality.
    disc = fit_discretizer(panel_of([2.0, 1.0, 2.0, 7.0, 1.0]), SPEC1, m=5)
    assert disc.n_codes("f0") == 3
    codes = apply_discretizer(panel_of([1.0, 2.0, 7.0]), disc).x[:, 0]
    assert codes.tolist() == [0, 1, 2]


def test_cut_point_falls_in_lower_bin():
    disc = fit_discretizer(panel_of(range(1, 101)), SPEC1, m=4)
    codes = apply_discretizer(panel_of([25.0, 25.0001, 50.0, 75.0, 76.0]), disc)
    assert codes.x[:, 0].tolist() == [0, 1, 1, 2, 3]


def test_out_of_range_values_clamp():
    disc = fit_discretizer(panel_of(range(1, 101)), SPEC1, m=4)
    codes = apply_discretizer(panel_of([-1e6, 1e6]), disc).x[:, 0]
    assert codes.tolist() == [0, 3]


def test_missing_value_gets_missing_code():
    disc = fit_discretizer(panel_of([1.0, 2.0, 3.0, 4.0]), SPEC1, m=2)
    codes = apply_discretizer(panel_of([None, 1.0]), disc).x[:, 0]
    assert codes[0] == MISSING_CODE
    assert codes[1] != MISSING_CODE


def test_categorical_feature_passthrough():
    specs = [FeatureSpec("sec", kind="categorical")]
    obs = raw_panel(["2020-01-01"] * 4, [f"S{i}" for i in range(4)],
                    labels(["b", "a", "b", None]))
    disc = fit_discretizer(obs, specs, m=4)
    assert disc.categories["sec"] == ["a", "b"]
    out = apply_discretizer(obs, disc)
    by_stock = dict(zip(out.stock_ids, out.x[:, 0]))
    assert by_stock["S0"] == 1 and by_stock["S1"] == 0
    assert by_stock["S3"] == MISSING_CODE
    # Labels never seen at fit time behave like missing values.
    unseen = apply_discretizer(raw_panel(["2020-01-01"], ["S9"], labels(["zz"])), disc)
    assert unseen.x[0, 0] == MISSING_CODE


def test_categorical_values_are_labels():
    """A categorical value is coded by its str: a column of Python ints codes
    like its string twin, and ints mixed with strings sort as labels."""
    specs = [FeatureSpec("sec", kind="categorical")]
    ids = [f"S{i}" for i in range(5)]

    def codes(values):
        obs = raw_panel(["2020-01-01"] * 5, ids, labels(values))
        disc = fit_discretizer(obs, specs, m=4)
        return disc.categories["sec"], apply_discretizer(obs, disc).x[:, 0].tolist()

    assert codes([0, 1, 2, 1, None]) == codes(["0", "1", "2", "1", None])
    assert codes([0, 1, 2, 1, None]) == (["0", "1", "2"], [0, 1, 2, 1, MISSING_CODE])
    assert codes([1, "a", None, "1", 2]) == (["1", "2", "a"], [0, 2, MISSING_CODE, 0, 1])


def test_quantile_definition_smallest_value_with_cdf_at_least_p():
    v = np.array([10.0, 20.0, 30.0, 40.0])
    assert empirical_quantile(v, 0.25) == 10.0
    assert empirical_quantile(v, 0.26) == 20.0
    assert empirical_quantile(v, 1.0) == 40.0


def test_modality_frequencies_balanced():
    """With many distinct values every modality holds roughly 1/m of the
    sample; the contract band is [0.5/m, 2/m]."""
    rng = np.random.default_rng(11)
    for m in (2, 5, 10):
        values = rng.normal(size=40 * m)
        obs = panel_of(values)
        disc = fit_discretizer(obs, SPEC1, m=m)
        codes = apply_discretizer(obs, disc).x[:, 0]
        freq = np.bincount(codes, minlength=m) / len(codes)
        assert freq.min() >= 0.5 / m - 1e-12
        assert freq.max() <= 2.0 / m + 1e-12


def test_m_below_2_rejected():
    with pytest.raises(NonPositiveModalities):
        fit_discretizer(panel_of([1.0, 2.0]), SPEC1, m=1)


def test_empty_panel_rejected():
    with pytest.raises(EmptyPanel):
        fit_discretizer(panel_of([]), SPEC1, m=4)


def test_column_count_must_match_specs():
    """A panel whose column count differs from the specs' is refused, by the
    fit and by the apply, naming both counts."""
    two = raw_panel(["2020-01-01"] * 3, ["A", "B", "C"],
                    numeric([1.0, 2.0, 3.0]), numeric([4.0, 5.0, 6.0]))
    with pytest.raises(SpecMismatch, match="^panel has 2 columns, specs declare 1$"):
        fit_discretizer(two, SPEC1, m=2)
    disc = fit_discretizer(panel_of([1.0, 2.0, 3.0]), SPEC1, m=2)
    with pytest.raises(SpecMismatch, match="^panel has 2 columns, specs declare 1$"):
        apply_discretizer(two, disc)


def test_discretizer_json_round_trip():
    specs = [FeatureSpec("f0"), FeatureSpec("sec", kind="categorical")]
    obs = raw_panel(["2020-01-01"] * 30, [f"S{i:02d}" for i in range(30)],
                    numeric(range(30)), labels(["ab"[i % 2] for i in range(30)]))
    disc = fit_discretizer(obs, specs, m=4)
    clone = Discretizer.from_json(disc.to_json())
    assert clone.edges["f0"].tolist() == disc.edges["f0"].tolist()
    assert clone.categories["sec"] == disc.categories["sec"]
    assert clone.code_counts() == disc.code_counts()


@pytest.mark.parametrize("categories", [["a", "a", "b"], [1, 2], "ab"],
                         ids=["repeated", "numbers", "string"])
def test_discretizer_json_rejects_malformed_categories(categories):
    """Anything but a list of distinct strings is refused: a repeated label
    would shift the later codes, numbers would make every value missing and
    a bare string would read as its characters."""
    text = json.dumps({"sec": {"kind": "categorical", "categories": categories}})
    with pytest.raises(ValueError, match="^categories of 'sec' are not distinct strings$"):
        Discretizer.from_json(text)


def test_panel_names_the_first_row_out_of_key_order():
    with pytest.raises(SpecMismatch, match=r"^panel row 1: \(date, stock_id\) key "
                       r"\(2020-01-01, 'B'\) comes after \(2020-01-02, 'B'\)$"):
        raw_panel(["2020-01-02", "2020-01-01"], ["B", "B"], numeric([1.0, 2.0]))
    with pytest.raises(SpecMismatch, match=r"^panel row 2: .* \(2020-01-01, 'A'\) comes after"):
        raw_panel(["2020-01-01"] * 3, ["A", "B", "A"], numeric([1.0, 2.0, 3.0]))
    with pytest.raises(DuplicateRow, match=r"^panel row 2: repeated \(date, stock_id\) key "
                       r"\(2020-01-01, 'B'\)$"):
        raw_panel(["2020-01-01"] * 3, ["A", "B", "B"], numeric([1.0, 2.0, 3.0]))


def test_apply_keeps_the_panel_row_order():
    obs = raw_panel(["2020-01-01", "2020-01-01", "2020-01-02"], ["A", "B", "A"],
                    numeric([3.0, 1.0, 2.0]), y=[0.1, 0.2, 0.3])
    out = apply_discretizer(obs, fit_discretizer(obs, SPEC1, m=3))
    assert out.stock_ids.tolist() == ["A", "B", "A"]
    assert out.x[:, 0].tolist() == [2, 0, 1] and out.y.tolist() == [0.1, 0.2, 0.3]


IDS = ["A", "B", "A\0", "Ω", "", "a,b", 'q"']
KEYS = st.tuples(st.integers(0, 5), st.sampled_from(IDS))


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(KEYS, max_size=12))
def test_panel_accepts_keys_exactly_when_record_keys_codes_increase(keys):
    day = np.datetime64("2020-01-01")
    dates = np.array([day + d for d, _ in keys], dtype="datetime64[D]")
    stock_ids = np.array([sid for _, sid in keys], dtype=object)
    _, row, ids, col = grid_keys(dates, stock_ids)
    increasing = bool(np.all(np.diff(row * len(ids) + col) > 0))
    try:
        raw_panel(dates, stock_ids)
    except (DuplicateRow, SpecMismatch):
        assert not increasing
    else:
        assert increasing


def test_split_is_chronological_prefix():
    obs = panel_of(range(10), y=[0.01] * 10)
    disc = fit_discretizer(obs, SPEC1, m=5)
    codes = apply_discretizer(obs, disc)
    parts = split(codes, 7)
    assert parts.learn.n == 7 and parts.aggregate.n == 3
    assert parts.learn.dates.max() < parts.aggregate.dates.min()
    # n = N-1 leaves a single aggregation row
    assert split(codes, 9).aggregate.n == 1


def test_split_rejects_degenerate_points():
    obs = panel_of(range(5))
    codes = apply_discretizer(obs, fit_discretizer(obs, SPEC1, m=3))
    for bad in (0, 5, -1, 6):
        with pytest.raises(BadSplitPoint):
            split(codes, bad)


def shuffle_records(path, rng):
    """Rewrite a CSV file with its records in a random order, header first."""
    header, *records = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(records[i] for i in rng.permutation(len(records))))


def test_shuffled_input_splits_like_sorted_input(tmp_path):
    """The loaders lay records out in (date, stock_id) order, so files whose
    records are shuffled split as the panel they were written from."""
    rng = np.random.default_rng(3)
    obs = panel_of(rng.normal(size=40), y=list(rng.normal(size=40)))
    features, returns = tmp_path / "features.csv", tmp_path / "returns.csv"
    write_features_csv(features, obs, SPEC1)
    write_returns_csv(returns, obs)
    shuffle_records(features, rng)
    shuffle_records(returns, rng)
    loaded, _ = load_features_csv(features)
    shuffled = attach_returns(loaded, load_returns_csv(returns))
    disc = fit_discretizer(obs, SPEC1, m=4)
    a = split(apply_discretizer(obs, disc), 25)
    b = split(apply_discretizer(shuffled, disc), 25)
    assert np.array_equal(a.learn.x, b.learn.x)
    assert np.array_equal(a.aggregate.y, b.aggregate.y)


def test_same_bytes_same_codes():
    rng = np.random.default_rng(5)
    obs = panel_of(rng.normal(size=100))
    disc = fit_discretizer(obs, SPEC1, m=6)
    x1 = apply_discretizer(obs, disc).x
    x2 = apply_discretizer(obs, disc).x
    assert np.array_equal(x1, x2)


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    specs = [FeatureSpec("f0"), FeatureSpec("f1"), FeatureSpec("sector", CATEGORICAL)]
    f1 = rng.normal(size=12)
    f1[5] = np.nan
    panel = raw_panel(
        np.datetime64("2020-01-01") + np.arange(12) // 4,
        [f"S{i % 4}" for i in range(12)],
        rng.normal(size=12),
        f1,
        labels([None if i == 7 else f"sec{i % 3}" for i in range(12)]),
    )
    path = tmp_path / "features.csv"
    write_features_csv(path, panel, specs)
    loaded, loaded_specs = load_features_csv(path, specs=specs)
    assert loaded_specs == specs
    assert np.array_equal(loaded.dates, panel.dates)
    assert np.array_equal(loaded.stock_ids, panel.stock_ids)
    for a, b in zip(loaded.columns[:2], panel.columns[:2]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert loaded.columns[2].tolist() == panel.columns[2].tolist()
    assert loaded.columns[2][7] is None


def test_features_csv_exact_text(tmp_path):
    specs = [FeatureSpec("f0"), FeatureSpec("sector", CATEGORICAL), FeatureSpec("f1")]
    panel = RawPanel(
        dates=np.array(["2020-01-01", "2020-01-02", "2020-01-03"], dtype="datetime64[D]"),
        stock_ids=np.array(["A", "B", "C"], dtype=object),
        columns=[
            np.array([0.1 + 0.2, np.nan, -0.0]),
            np.array(["tech", None, "a,b"], dtype=object),
            np.array([1e-300, np.inf, 3.0]),
        ],
        y=np.full(3, np.nan),
    )
    path = tmp_path / "features.csv"
    write_features_csv(path, panel, specs)
    assert path.read_bytes() == (
        b"date,stock_id,f0,sector,f1\n"
        b"2020-01-01,A,0.30000000000000004,tech,1e-300\n"
        b"2020-01-02,B,,,\n"
        b'2020-01-03,C,-0.0,"a,b",3.0\n'
    )
    loaded, _ = load_features_csv(path, specs=specs)
    assert loaded.columns[1].tolist() == ["tech", None, "a,b"]
    assert np.isnan(loaded.columns[0][1]) and np.isnan(loaded.columns[2][1])


def test_bad_cell_search_names_first_line_across_columns(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(
        "date,stock_id,f0,f1\n"
        "2020-01-01,A,1.0,1.0\n"
        "2020-01-02,A,1.0,oops\n"
        "2020-01-03,A,bad,1.0\n"
        "2020-01-04,A,1.0,worse\n"
    )
    with pytest.raises(MalformedRow, match=f"{path}, line 3: .*oops"):
        load_features_csv(path)


def test_returns_csv_round_trip_and_attach(tmp_path):
    panel = raw_panel(["2020-01-01", "2020-01-01", "2020-01-02"], ["A", "B", "A"],
                      numeric([1.0, 2.0, 3.0]), y=[0.05, None, -0.02])
    path = tmp_path / "returns.csv"
    write_returns_csv(path, panel)
    table = load_returns_csv(path)
    # only labeled rows are written
    assert table.n == 2 and table.columns == []
    stripped = RawPanel(panel.dates, panel.stock_ids, panel.columns,
                        np.full(panel.n, np.nan))
    joined = attach_returns(stripped, table)
    assert joined.y[0] == 0.05 and np.isnan(joined.y[1]) and joined.y[2] == -0.02


def attach_returns_by_loop(panel, returns):
    """The reference join: one dict lookup per panel row."""
    y = np.full(panel.n, np.nan, dtype=np.float64)
    for i in range(panel.n):
        key = (panel.dates[i], panel.stock_ids[i])
        if key in returns:
            y[i] = returns[key]
    return y


@settings(max_examples=200, deadline=None)
@given(
    rows=st.sets(KEYS, max_size=30),
    labels=st.dictionaries(
        KEYS,
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0)),
        max_size=30,
    ),
)
def test_attach_returns_matches_the_loop(rows, labels):
    """Rows without a label, labels without a row and ids that differ only
    in a trailing NUL all join as the per-row loop does. Python's order of
    the (day, id) tuples is the panels' key order."""
    day = np.datetime64("2020-01-01")
    rows, labels = sorted(rows), sorted(labels.items())
    panel = raw_panel([day + d for d, _ in rows], [sid for _, sid in rows])
    table = raw_panel([day + d for (d, _), _ in labels], [sid for (_, sid), _ in labels],
                      y=[value for _, value in labels])
    returns = {(day + d, sid): value for (d, sid), value in labels}
    got = attach_returns(panel, table)
    assert got.y.dtype == np.float64
    assert got.y.tobytes() == attach_returns_by_loop(panel, returns).tobytes()


def test_ids_that_differ_in_a_trailing_nul_stay_apart(tmp_path):
    """A unicode array drops trailing NULs; "S1" and "S1\\0" are still two
    stocks in returns.csv and prices.csv."""
    from rulescreen.backtest import load_prices_csv

    returns = tmp_path / "returns.csv"
    returns.write_text(
        "date,stock_id,fwd_excess_return_3m\n2020-01-01,S1,0.1\n2020-01-01,S1\0,0.2\n",
        encoding="utf-8",
    )
    table = load_returns_csv(returns)
    assert table.stock_ids.tolist() == ["S1", "S1\0"] and table.y.tolist() == [0.1, 0.2]

    prices = tmp_path / "prices.csv"
    prices.write_text(
        "date,stock_id,total_return_daily\n"
        "2020-01-01,S1,0.01\n2020-01-01,S1\0,0.02\n"
        "2020-01-02,S1\0,0.04\n2020-01-02,S1,0.03\n",
        encoding="utf-8",
    )
    table = load_prices_csv(prices)
    assert table.stock_ids == ["S1", "S1\0"]
    assert table.returns.tolist() == [[0.01, 0.02], [0.03, 0.04]]


def test_record_keys_do_not_depend_on_record_order():
    """Shuffled records get the same grid dates and ids, and each key the
    same (row, col): dates ascend and ids come in stock_id order."""
    rng = np.random.default_rng(7)
    days = np.datetime64("2020-01-01") + np.array([3, 0, 3, 1, 0, 1, 3, 0])
    ids = ["S10", "S2", "A\0", "Ω", "A", "S10", "S2", "A\0"]

    def coordinates(order):
        dates, stock_ids = days[order], [ids[i] for i in order]
        grid_dates, row, grid_ids, col = record_keys("k.csv", list(order), dates, stock_ids)
        keys = {(d, sid): (r, c) for d, sid, r, c in zip(dates, stock_ids, row, col)}
        return grid_dates.tolist(), list(grid_ids), keys

    base = coordinates(np.arange(len(ids)))
    assert base[0] == sorted(set(days.tolist()))
    assert base[1] == sorted(set(ids)) == ["A", "A\0", "S10", "S2", "Ω"]
    for _ in range(5):
        assert coordinates(rng.permutation(len(ids))) == base


# ---------------------------------------------------------------------------
# cell formatters: each distinct value once, the same text as value by value

def _float64(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# ±0.0, a quiet NaN and a second NaN payload, ±inf, the least subnormal,
# a large finite value and one that is not a short binary fraction.
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), _float64(0x7FF8000000000001), float("inf"),
                  -float("inf"), 5e-324, 1e300, 0.1]
SPECIAL_BITS = [int(np.float64(v).view(np.uint64)) for v in SPECIAL_FLOATS]
NAT = int(np.iinfo(np.int64).min)


def float_reference(values):
    return [repr(float(v)) for v in values]


def finite_float_reference(values):
    return [repr(float(v)) if math.isfinite(v) else "" for v in values]


def str_reference(values):
    return ["" if v is None else str(v) for v in values]


float_bits = st.lists(st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1), max_size=40)


@settings(max_examples=150, deadline=None)
@given(float_bits)
@example(SPECIAL_BITS + SPECIAL_BITS[::-1])
def test_float_formatters_match_value_by_value(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    for given_values in (values, values.tolist()):
        assert float_cells(given_values) == float_reference(values)
        assert finite_float_cells(given_values) == finite_float_reference(values)
    assert str_cells(values) == [str(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([NAT, 0, 1, 17_000]) | st.integers(-100_000, 2_900_000),
                max_size=40))
@example([17_000, NAT, 17_000, NAT, 0])
def test_date_and_int_str_cells_match_value_by_value(days):
    ints = np.array(days, dtype=np.int64)
    dates = ints.view("datetime64[D]")
    assert str_cells(dates) == [str(v) for v in dates]
    assert str_cells(dates.tolist()) == str_reference(dates.tolist())
    assert str_cells(ints) == [str(v) for v in ints]
    assert str_cells(ints == 0) == [str(v) for v in ints == 0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([1, 1.0, True, None, 0.0, -0.0, "1", "", "S0001"]), max_size=40))
@example([1, 1.0, True, None, 1, 0.0, -0.0])
def test_object_str_cells_keep_each_value_own_text(values):
    """1, 1.0 and True are equal under ==, and print differently."""
    expected = str_reference(values)
    assert str_cells(values) == expected
    assert str_cells(np.array(values, dtype=object)) == expected


def test_write_csv_columns_across_blocks_matches_value_by_value(tmp_path):
    """Runs of equal values that cross the BLOCK_ROWS boundaries get the
    bytes a writer of one record at a time gives them."""
    n = 2 * 4096 + 3
    rng = np.random.default_rng(3)
    run_of = np.arange(n) // 63
    dates = np.datetime64("2020-01-01") + run_of
    dates[::997] = np.datetime64("NaT")
    ids = np.array([f"S{i % 7}" for i in range(n)], dtype=object)
    repeated = np.array(SPECIAL_FLOATS + [0.25, -3.5])[run_of % 11]
    distinct = rng.standard_normal(n)
    labels = np.array([None, "A", 1, 1.0, True], dtype=object)[run_of % 5]
    codes = (run_of % 4).astype(np.int64)
    path = tmp_path / "out.csv"
    write_csv_columns(
        path,
        ["date", "stock_id", "repeated", "finite", "distinct", "label", "code"],
        (dates, str_cells),
        (ids, str_cells),
        (repeated, float_cells),
        (repeated, finite_float_cells),
        (distinct, float_cells),
        (labels, str_cells),
        (codes, str_cells),
    )
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["date", "stock_id", "repeated", "finite", "distinct", "label", "code"])
    for i in range(n):
        writer.writerow([
            str(dates[i]), str(ids[i]), repr(float(repeated[i])),
            finite_float_reference(repeated[i:i + 1])[0], repr(float(distinct[i])),
            str_reference(labels[i:i + 1])[0], str(codes[i]),
        ])
    assert path.read_bytes() == expected.getvalue().encode()
