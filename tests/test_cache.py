"""The parse cache: every input loader returns the same arrays from a cached
read as from a parse of the CSV."""

import os
import tracemalloc
import zipfile

import numpy as np
import pytest

from rulescreen import panel
from rulescreen.backtest import load_prices_csv, load_universe_csv
from rulescreen.panel import (
    CACHE_DIR,
    CATEGORICAL,
    FeatureSpec,
    InputCsv,
    cache_path,
    load_features_csv,
    load_returns_csv,
)

FEATURES = (
    'date,stock_id,f0,"sec,tor",f1\n'
    '2020-01-01,"A,1",0.1,tech,\n'
    '2020-01-01,"B ""q""",,,2.5\n'
    '2020-01-02,"A,1",-0.0,"bänk, ""plc""",1e-300\n'
    "2020-01-02,Ωmega,3.0,énergie,nan\n"
)
SPECS = [FeatureSpec("f0"), FeatureSpec("sec,tor", CATEGORICAL), FeatureSpec("f1")]
RETURNS = (
    "date,stock_id,fwd_excess_return_3m\n"
    '2020-01-01,"A,1",0.05\n'
    '2020-01-01,"B ""q""",\n'
    "2020-01-02,Ωmega,-0.25\n"
)
UNIVERSE = (
    "date,stock_id,cap_weight,sector,peer_group,esg_rating,extra\n"
    '2020-01-01,"A,1",0.6,"tech, ""hw""",p1,3.5,x\n'
    "2020-01-01,Ωmega,0.4,,énergie,2.0,y\n"
    '2020-01-02,"A,1",1.0,"tech, ""hw""",p1,3.0,z\n'
)
PRICES = (
    "date,stock_id,total_return_daily\n"
    '2020-01-01,"A,1",0.01\n'
    "2020-01-01,Ωmega,-0.02\n"
    "2020-01-02,Ωmega,0.0\n"
    '2020-01-02,"A,1",1e-5\n'
)


def arrays_of(result):
    """The loader's result as a flat list of values (arrays and scalars)."""
    if isinstance(result, tuple):  # load_features_csv
        raw, specs = result
        return [raw.dates, raw.stock_ids, *raw.columns, raw.y, specs]
    if isinstance(result, dict):  # load_returns_csv
        return [list(result.keys()), list(result.values())]
    if hasattr(result, "snapshots"):  # UniverseTable
        out = [result.dates]
        for date in result.dates:
            snap = result.at(date)
            out += [snap.date, snap.stock_ids, snap.cap_weight, snap.sector,
                    snap.peer_group, snap.esg_rating]
        return out
    return [result.dates, result.stock_ids, result.returns]  # PriceTable


def assert_same(a, b):
    for x, y in zip(arrays_of(a), arrays_of(b), strict=True):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape
            if x.dtype == object:
                assert x.tolist() == y.tolist()
                assert [type(v) for v in x] == [type(v) for v in y]
            else:
                assert x.tobytes() == y.tobytes()
        else:
            assert repr(x) == repr(y) and x == y


LOADERS = {
    "features": (FEATURES, lambda p: load_features_csv(p, specs=SPECS)),
    "features_numeric": (FEATURES.replace("tech", "1").replace("énergie", "2")
                         .replace('"bänk, ""plc"""', "3"), load_features_csv),
    "returns": (RETURNS, load_returns_csv),
    "universe": (UNIVERSE, load_universe_csv),
    "prices": (PRICES, load_prices_csv),
}


def no_parse(monkeypatch):
    def fail(self):
        raise AssertionError("parsed the CSV on a cache hit")
    monkeypatch.setattr(InputCsv, "records", fail)


@pytest.mark.parametrize("name", LOADERS)
def test_hit_equals_miss(tmp_path, monkeypatch, name):
    text, load = LOADERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(text, encoding="utf-8")
    cold = load(path)
    assert cache_path(path).is_file()
    no_parse(monkeypatch)
    assert_same(load(path), cold)


def test_hit_keeps_none_and_empty_labels(tmp_path, monkeypatch):
    features, returns = tmp_path / "features.csv", tmp_path / "returns.csv"
    features.write_text(FEATURES, encoding="utf-8")
    returns.write_text(RETURNS, encoding="utf-8")
    load_features_csv(features, specs=SPECS)
    load_returns_csv(returns)
    no_parse(monkeypatch)
    raw, _ = load_features_csv(features, specs=SPECS)
    assert raw.columns[1].tolist() == ["tech", None, 'bänk, "plc"', "énergie"]
    assert raw.stock_ids.tolist() == ["A,1", 'B "q"', "A,1", "Ωmega"]
    # an empty return cell is no label
    assert [sid for _, sid in load_returns_csv(returns)] == ["A,1", "Ωmega"]


def test_specs_are_part_of_the_key(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(FEATURES.replace("tech", "1").replace("énergie", "2")
                    .replace('"bänk, ""plc"""', "3"), encoding="utf-8")
    numeric, _ = load_features_csv(path)
    categorical, _ = load_features_csv(path, specs=SPECS)
    assert numeric.columns[1].dtype == np.float64
    assert categorical.columns[1].tolist() == ["1", None, "3", "2"]
    again, _ = load_features_csv(path)
    assert again.columns[1].tobytes() == numeric.columns[1].tobytes()


def test_header_check_runs_on_a_hit(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(FEATURES, encoding="utf-8")
    load_features_csv(path, specs=SPECS)
    with pytest.raises(panel.SpecMismatch, match="header does not match"):
        load_features_csv(path, specs=[FeatureSpec("g0"), SPECS[1], SPECS[2]])


def test_same_size_same_mtime_change_invalidates(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(PRICES, encoding="utf-8")
    before = load_prices_csv(path)
    stat = path.stat()
    path.write_text(PRICES.replace("-0.02", "-0.03"), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
    after = load_prices_csv(path)
    assert before.returns[0, 1] == -0.02 and after.returns[0, 1] == -0.03
    os.remove(cache_path(path))
    assert_same(after, load_prices_csv(path))


@pytest.mark.parametrize(
    "damage", ["truncated", "not_a_zip", "empty", "foreign", "npy", "old_format"]
)
def test_unreadable_or_foreign_cache_is_replaced(tmp_path, monkeypatch, damage):
    path = tmp_path / "features.csv"
    path.write_text(FEATURES, encoding="utf-8")
    cold = load_features_csv(path, specs=SPECS)
    cache = cache_path(path)
    good = cache.read_bytes()
    if damage == "truncated":
        cache.write_bytes(good[: len(good) // 2])
    elif damage == "not_a_zip":
        cache.write_bytes(b"not a zip file" * 10)
    elif damage == "empty":
        cache.write_bytes(b"")
    elif damage == "foreign":
        np.savez(cache, x=np.arange(3))
    elif damage == "npy":
        with open(cache, "wb") as fh:
            np.save(fh, np.arange(3))
    else:
        monkeypatch.setattr(panel, "CACHE_FORMAT", panel.CACHE_FORMAT + 1)
    assert_same(load_features_csv(path, specs=SPECS), cold)
    assert zipfile.is_zipfile(cache)
    if damage != "old_format":
        assert cache.read_bytes() == good
    no_parse(monkeypatch)
    assert_same(load_features_csv(path, specs=SPECS), cold)


def test_unwritable_cache_leaves_no_file(tmp_path):
    path = tmp_path / "universe.csv"
    path.write_text(UNIVERSE, encoding="utf-8")
    (tmp_path / CACHE_DIR).write_text("a regular file where the cache directory goes")
    first = load_universe_csv(path)
    assert_same(load_universe_csv(path), first)
    assert sorted(p.name for p in tmp_path.iterdir()) == [CACHE_DIR, "universe.csv"]
    assert (tmp_path / CACHE_DIR).read_text().startswith("a regular file")


def test_failed_cache_write_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS, encoding="utf-8")

    def savez_then_fail(fh, **arrays):
        fh.write(b"PK partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(panel.np, "savez", savez_then_fail)
    table = load_returns_csv(path)
    monkeypatch.undo()
    assert list((tmp_path / CACHE_DIR).iterdir()) == []
    assert table == load_returns_csv(path)


def test_input_with_nul_is_parsed_every_time(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(FEATURES.replace("Ωmega", "Ω\0"), encoding="utf-8")
    for _ in range(2):
        raw, _ = load_features_csv(path, specs=SPECS)
        assert raw.stock_ids[3] == "Ω\0"
    assert not (tmp_path / CACHE_DIR).exists()


# ---------------------------------------------------------------------------
# files that span several blocks of records and several read chunks


def small_blocks(monkeypatch, rows):
    """Blocks of `rows` records, and files hashed 16 bytes at a time, so
    that the small files here span several blocks and many hash chunks."""
    monkeypatch.setattr(panel, "BLOCK_ROWS", rows)
    monkeypatch.setattr(panel, "READ_CHUNK", 16)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("name", LOADERS)
def test_blocks_parse_as_one(tmp_path, monkeypatch, name, rows):
    """Each loader returns, from a file read in blocks, the arrays of a
    one-block parse, and caches them for a hit that returns them too."""
    text, load = LOADERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(text, encoding="utf-8")
    whole = load(path)
    os.remove(cache_path(path))
    small_blocks(monkeypatch, rows)
    assert_same(load(path), whole)
    assert cache_path(path).is_file()
    no_parse(monkeypatch)
    assert_same(load(path), whole)


def test_records_come_in_blocks(tmp_path, monkeypatch):
    """Blocks of at most BLOCK_ROWS records, with the line of each record
    (a quoted newline makes a record two lines long); a block of
    BLOCK_ROWS records is followed by another, empty if the file ends."""
    small_blocks(monkeypatch, 2)
    path = tmp_path / "calendar.csv"
    path.write_text('year,a\n2010,"1\n2"\n2011,3\n2012,4\n2013,5\n')
    source = panel.InputCsv(path, lambda h: True, "")
    assert list(source.records()) == [
        ([["2010", "2011"], ["1\n2", "3"]], [3, 4]),
        ([["2012", "2013"], ["4", "5"]], [5, 6]),
        ([[], []], []),
    ]


# Six records of features.csv; with blocks of three, lines 2-4 are block 1
# and lines 5-7 are block 2.
SIX = (
    "date,stock_id,f0,f1\n"
    + "".join(f"2020-01-0{day},S{sid},0.5,1.5\n" for day in (1, 2, 3) for sid in (1, 2))
)


@pytest.mark.parametrize("cell_line,short_line", [(3, 6), (6, 3), (3, 4), (4, 3), (2, 7)])
def test_earliest_fault_is_reported_across_blocks(tmp_path, monkeypatch, cell_line, short_line):
    """With a bad cell and a short row, the error names the earlier line,
    whichever block each falls in and whichever kind comes first."""
    small_blocks(monkeypatch, 3)
    lines = SIX.splitlines(keepends=True)
    lines[cell_line - 1] = lines[cell_line - 1].replace("0.5", "n/a")
    lines[short_line - 1] = lines[short_line - 1].replace(",1.5", "")
    path = tmp_path / "features.csv"
    path.write_text("".join(lines))
    line = min(cell_line, short_line)
    fault = "n/a" if line == cell_line else "3 cells, header has 4"
    with pytest.raises(panel.MalformedRow, match=f"^{path}, line {line}: .*{fault}"):
        load_features_csv(path)
    assert not (tmp_path / CACHE_DIR).exists()


def test_repeated_key_across_blocks_names_the_later_line(tmp_path, monkeypatch):
    small_blocks(monkeypatch, 2)
    path = tmp_path / "returns.csv"
    path.write_text(
        "date,stock_id,fwd_excess_return_3m\n"
        "2020-01-01,A,0.1\n2020-01-01,B,0.2\n2020-01-02,A,0.3\n2020-01-01,A,0.4\n"
    )
    with pytest.raises(panel.DuplicateRow, match=f"^{path}, line 5: .*2020-01-01, A"):
        load_returns_csv(path)
    assert not (tmp_path / CACHE_DIR).exists()


def test_nul_in_a_later_block_disables_the_cache(tmp_path, monkeypatch):
    small_blocks(monkeypatch, 2)
    path = tmp_path / "features.csv"
    path.write_text(FEATURES.replace("Ωmega", "Ω\0"), encoding="utf-8")
    assert path.read_bytes().index(b"\0") > 4 * panel.READ_CHUNK
    for _ in range(2):
        raw, _ = load_features_csv(path, specs=SPECS)
        assert raw.stock_ids.tolist() == ["A,1", 'B "q"', "A,1", "Ω\0"]
    assert not (tmp_path / CACHE_DIR).exists()


def test_cold_load_memory_grows_with_one_block_not_the_file(tmp_path):
    """A cold load converts a block of records at a time, so doubling the
    file adds about its arrays to the traced peak, not its bytes and cells.
    The bound is fixed at 2.0 times the growth of the file; a parse that
    holds every cell until the end grows about 5.5 times."""
    n = 2 * panel.BLOCK_ROWS
    rng = np.random.default_rng(0)
    peaks, sizes = [], []
    for records in (n, 2 * n):
        raw = panel.RawPanel(
            dates=np.datetime64("2020-01-01") + np.arange(records) // 20,
            stock_ids=np.array([f"S{i % 20:03d}" for i in range(records)], dtype=object),
            columns=[rng.normal(size=records) for _ in range(8)],
            y=np.full(records, np.nan),
        )
        path = tmp_path / f"features{records}.csv"
        panel.write_features_csv(path, raw, [FeatureSpec(f"f{k}") for k in range(8)])
        tracemalloc.start()
        try:
            load_features_csv(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(path.stat().st_size)
    assert cache_path(path).is_file()
    ratio = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert ratio < 2.0, f"traced peak grew {ratio:.2f} times the file"
