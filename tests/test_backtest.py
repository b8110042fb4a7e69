"""Screens, portfolio simulation, KPI math, and the walk-forward engine."""

import logging
import sys
import threading
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from rulescreen.errors import (
    EmptyAfterFilter,
    GridMismatch,
    InsufficientHistory,
    MissingPriceData,
    NoPopulatedSector,
    SpecMismatch,
    UnknownLearningYear,
)
from rulescreen.backtest import (
    BENCHMARK,
    BEST_IN_CLASS,
    NEGATIVE,
    POSITIVE,
    POSITIVE_SM,
    BacktestReport,
    PortfolioSeries,
    PriceTable,
    UniverseSnapshot,
    UniverseTable,
    WalkForwardConfig,
    best_in_class,
    kpis,
    learning_y,
    load_prices_csv,
    load_universe_csv,
    ml_screen,
    month_ends,
    review_plan,
    run_study,
    sector_match,
    simulate,
    write_calendar_csv,
    write_kpis_json,
    write_levels_csv,
)
from rulescreen import backtest
from rulescreen.aggregate import predict_many, score_many, update
from rulescreen.backtest import _rows_by_key
from rulescreen.panel import (
    CATEGORICAL,
    SCORE_LAG_DAYS,
    FeatureSpec,
    RawPanel,
    apply_discretizer,
)
from rulescreen.synth import PlantedRule, SynthSpec, generate
from rulescreen.rules import Condition, Interval, RuleSet
from test_acceptance import REGIME_CFG, regime_spec

D = np.datetime64


@pytest.fixture(autouse=True)
def cleared_memo(monkeypatch):
    """Every test starts on an empty study memo; the memo it found is put
    back afterwards."""
    monkeypatch.setattr(backtest, "_last_schedule", None)


def snapshot(date="2020-01-31", caps=None, sectors=None, groups=None,
             ratings=None, scores=None, n=4):
    caps = np.full(n, 1.0 / n) if caps is None else np.asarray(caps, float)
    n = len(caps)
    return UniverseSnapshot(
        date=D(date),
        stock_ids=np.array([f"S{i}" for i in range(n)], dtype=object),
        cap_weight=caps,
        sector=np.array(sectors or ["X"] * n, dtype=object),
        peer_group=np.array(groups or ["G"] * n, dtype=object),
        esg_rating=np.asarray(ratings if ratings is not None else range(n), float),
        score=None if scores is None else np.asarray(scores, np.int64),
    )


# --- snapshot validation --------------------------------------------------


def test_cap_weights_must_sum_to_one():
    with pytest.raises(SpecMismatch):
        snapshot(caps=[0.5, 0.4])


@pytest.mark.parametrize("caps,ratings,bad", [
    ([0.5, np.nan, 0.5], None, "S1 at 2020-01-31 has cap weight nan and ESG rating 1.0"),
    ([np.inf, 0.5, 0.5], None, "S0 at 2020-01-31 has cap weight inf and ESG rating 0.0"),
    ([0.6, 0.6, -0.2], None, "S2 at 2020-01-31 has cap weight -0.2 and ESG rating 2.0"),
    ([0.5, 0.25, 0.25], [1.0, 2.0, np.nan], "S2 at 2020-01-31 has cap weight 0.25 and ESG rating nan"),
])
def test_cap_weights_and_ratings_must_be_finite(caps, ratings, bad):
    """A NaN sum passes a tolerance check and negative weights can sum to 1,
    so each cap weight is checked on its own; a NaN rating would survive
    best_in_class as if it were top-rated. The error names date and stock."""
    with pytest.raises(SpecMismatch) as err:
        snapshot(caps=caps, ratings=ratings)
    assert str(err.value) == f"{bad}; both must be finite, the weight >= 0"


def test_duplicate_ids_rejected():
    with pytest.raises(SpecMismatch):
        UniverseSnapshot(
            date=D("2020-01-31"),
            stock_ids=np.array(["A", "A"], dtype=object),
            cap_weight=np.array([0.5, 0.5]),
            sector=np.array(["X", "X"], dtype=object),
            peer_group=np.array(["G", "G"], dtype=object),
            esg_rating=np.array([1.0, 2.0]),
        )


def test_universe_table_missing_date():
    table = UniverseTable.from_rows([])
    with pytest.raises(SpecMismatch):
        table.at(D("2020-01-31"))


# --- best in class ----------------------------------------------------------


def test_bic_ten_equal_caps_thirty_percent():
    snap = snapshot(n=10, ratings=np.arange(10.0))
    w = best_in_class(snap, 0.30)
    assert (w > 0).sum() == 7
    assert w[w > 0] == pytest.approx(np.full(7, 1 / 7))
    # the three lowest-rated names are the ones dropped
    assert w[:3].tolist() == [0.0, 0.0, 0.0]


def test_bic_zero_threshold_is_benchmark():
    snap = snapshot(n=6, caps=[0.3, 0.25, 0.2, 0.15, 0.07, 0.03],
                    ratings=[5, 4, 3, 2, 1, 0])
    assert best_in_class(snap, 0.0) == pytest.approx(snap.cap_weight)


def test_bic_operates_per_peer_group():
    snap = snapshot(n=4, groups=["A", "A", "B", "B"], ratings=[1, 2, 1, 2])
    w = best_in_class(snap, 0.5)
    # lower-rated half of each group dropped, survivors renormalized
    assert w.tolist() == [0.0, 0.5, 0.0, 0.5]


def test_bic_top_name_always_survives():
    snap = snapshot(n=3, ratings=[10, 20, 30])
    w = best_in_class(snap, 0.99)
    assert w.tolist() == [0.0, 0.0, 1.0]


def test_bic_threshold_domain():
    with pytest.raises(SpecMismatch):
        best_in_class(snapshot(), 1.0)


# --- ml screens -------------------------------------------------------------


def test_ml_screen_keeps_matching_sign():
    snap = snapshot(n=3, caps=[1 / 3, 1 / 3, 1 / 3], scores=[1, 0, -1])
    assert ml_screen(snap, 1).tolist() == [1.0, 0.0, 0.0]
    assert ml_screen(snap, -1).tolist() == [0.0, 0.0, 1.0]


def test_ml_screen_legs_never_overlap():
    rng = np.random.default_rng(0)
    caps = rng.uniform(1, 2, 8)
    snap = snapshot(n=8, caps=caps / caps.sum(),
                    scores=rng.integers(-1, 2, 8))
    try:
        pos = ml_screen(snap, 1)
        neg = ml_screen(snap, -1)
    except EmptyAfterFilter:
        return
    assert not np.any((pos > 0) & (neg > 0))


def test_ml_screen_all_positive_is_benchmark():
    snap = snapshot(n=4, caps=[0.4, 0.3, 0.2, 0.1], scores=[1, 1, 1, 1])
    assert ml_screen(snap, 1) == pytest.approx(snap.cap_weight)


def test_ml_screen_unscored_counts_as_zero():
    snap = snapshot(n=3)
    with pytest.raises(EmptyAfterFilter):
        ml_screen(snap, 1)


def test_ml_screen_sign_domain():
    with pytest.raises(SpecMismatch):
        ml_screen(snapshot(scores=[1, 1, 1, 1]), 0)


# --- sector match -----------------------------------------------------------


def test_sector_match_proportional_selection_unchanged():
    snap = snapshot(n=4, caps=[0.3, 0.3, 0.2, 0.2],
                    sectors=["A", "A", "B", "B"])
    w = np.array([0.3, 0.3, 0.2, 0.2])
    assert sector_match(w, snap) == pytest.approx(w)


def test_sector_match_single_populated_sector_takes_all():
    snap = snapshot(n=4, caps=[0.3, 0.3, 0.2, 0.2],
                    sectors=["A", "A", "B", "B"])
    w = np.array([0.5, 0.5, 0.0, 0.0])
    out = sector_match(w, snap)
    assert out.sum() == pytest.approx(1.0)
    assert out[2] == 0.0 and out[3] == 0.0
    assert out[0] == pytest.approx(0.5)


def test_sector_match_three_sector_hand_case():
    # benchmark masses: A 0.5, B 0.3, C 0.2; C has no selected name
    snap = snapshot(n=6, caps=[0.25, 0.25, 0.15, 0.15, 0.1, 0.1],
                    sectors=["A", "A", "B", "B", "C", "C"])
    w = np.array([0.6, 0.0, 0.4, 0.0, 0.0, 0.0])
    out = sector_match(w, snap)
    assert out.sum() == pytest.approx(1.0)
    # C's 0.2 redistributes pro-rata: A -> 0.5/0.8, B -> 0.3/0.8
    assert out[[0, 1]].sum() == pytest.approx(0.625)
    assert out[[2, 3]].sum() == pytest.approx(0.375)
    # within a sector, relative weights are preserved
    assert out[1] == 0.0 and out[3] == 0.0


def test_sector_match_rejects_empty_selection():
    snap = snapshot(n=2, caps=[0.5, 0.5], sectors=["A", "B"])
    with pytest.raises(NoPopulatedSector):
        sector_match(np.zeros(2), snap)


# --- price table and series -------------------------------------------------


def grid(start, n):
    # weekday-only daily grid
    days = []
    d = D(start)
    while len(days) < n:
        if np.is_busday(d):
            days.append(d)
        d += 1
    return np.array(days, dtype="datetime64[D]")


def test_price_table_rejects_incomplete_grid():
    dates = grid("2020-01-06", 4)
    rets = np.zeros((4, 2))
    rets[2, 0] = np.nan
    with pytest.raises(MissingPriceData):
        PriceTable(dates, np.array(["A", "B"], dtype=object), rets)


def test_price_table_rejects_a_return_below_minus_one():
    """A stock can lose all its value (-1) and no more: a return below -1
    is refused, naming the stock, the date and the value."""
    dates = grid("2020-01-06", 4)
    rets = np.zeros((4, 2))
    rets[1, 0] = -1.0
    PriceTable(dates, np.array(["A", "B"], dtype=object), rets)
    rets[2, 1] = -1.5
    rets[3, 0] = -2.0
    with pytest.raises(SpecMismatch, match=r"^return -1\.5 for B on 2020-01-08 is below -1 "
                                           r"\(2 such returns total\)$"):
        PriceTable(dates, np.array(["A", "B"], dtype=object), rets)


def test_portfolio_series_must_start_at_100():
    dates = grid("2020-01-06", 3)
    with pytest.raises(SpecMismatch):
        PortfolioSeries("p", dates, np.array([99.0, 100.0, 101.0]), [])


def test_month_ends_hand_case():
    dates = np.array(["2020-01-30", "2020-01-31", "2020-02-03", "2020-02-27",
                      "2020-02-28", "2020-03-02"], dtype="datetime64[D]")
    assert month_ends(dates).tolist() == [D("2020-01-31"), D("2020-02-28"),
                                          D("2020-03-02")]


# --- simulate ---------------------------------------------------------------


def one_stock_world(returns, start="2020-01-06"):
    dates = grid(start, len(returns))
    prices = PriceTable(dates, np.array(["A"], dtype=object),
                        np.asarray(returns, float).reshape(-1, 1))
    snaps = [UniverseSnapshot(
        date=d, stock_ids=np.array(["A"], dtype=object),
        cap_weight=np.array([1.0]), sector=np.array(["X"], dtype=object),
        peer_group=np.array(["G"], dtype=object), esg_rating=np.array([50.0]),
    ) for d in dates]
    return dates, prices, UniverseTable({s.date: s for s in snaps})


def test_two_days_of_one_percent_compound_to_102_01():
    dates, prices, universe = one_stock_world([0.0, 0.01, 0.01])
    plan = review_plan([dates[0]], prices, universe, score_lag_days=0)
    series = simulate(plan, lambda s: np.array([1.0]), prices)
    assert series.values[-1] == pytest.approx(102.01)
    assert series.values[0] == 100.0


def test_cap_weight_strategy_replicates_benchmark():
    rng = np.random.default_rng(1)
    n_days = 120
    dates = grid("2020-01-06", n_days)
    rets = rng.normal(0.0005, 0.01, size=(n_days, 3))
    rets[0, :] = 0.0
    prices = PriceTable(dates, np.array(["A", "B", "C"], dtype=object), rets)
    caps = np.array([0.5, 0.3, 0.2])
    snaps = {d: UniverseSnapshot(
        date=d, stock_ids=np.array(["A", "B", "C"], dtype=object),
        cap_weight=caps, sector=np.array(["X", "X", "X"], dtype=object),
        peer_group=np.array(["G"] * 3, dtype=object),
        esg_rating=np.array([1.0, 2.0, 3.0])) for d in dates}
    universe = UniverseTable(snaps)
    reviews = month_ends(dates)[:-1]
    plan = review_plan(reviews, prices, universe, score_lag_days=4)
    series = simulate(plan, lambda s: s.cap_weight, prices)

    # independent oracle: plain-float buy-and-hold with monthly rebalance
    i0 = prices.index_of(reviews[0])
    review_set = {prices.index_of(r) for r in reviews[1:]}
    hold = [100.0 * c for c in caps]
    levels = [100.0]
    for t in range(i0 + 1, n_days):
        hold = [h * (1 + rets[t, k]) for k, h in enumerate(hold)]
        if t in review_set:
            total = sum(hold)
            hold = [total * c for c in caps]
        levels.append(sum(hold))
    assert series.values == pytest.approx(np.array(levels), rel=1e-12)


def test_two_stock_two_month_spreadsheet():
    n_days = 46
    dates = grid("2020-01-06", n_days)
    rng = np.random.default_rng(7)
    rets = rng.normal(0, 0.005, size=(n_days, 2))
    rets[0, :] = 0.0
    prices = PriceTable(dates, np.array(["A", "B"], dtype=object), rets)
    reviews = month_ends(dates)[:2]
    w_by_review = {0: [0.7, 0.3], 1: [0.2, 0.8]}
    state = {"i": -1}

    def weights_fn(snap):
        state["i"] += 1
        return np.asarray(w_by_review[state["i"]], float)

    snaps = {d: UniverseSnapshot(
        date=d, stock_ids=np.array(["A", "B"], dtype=object),
        cap_weight=np.array([0.5, 0.5]), sector=np.array(["X", "X"], dtype=object),
        peer_group=np.array(["G", "G"], dtype=object),
        esg_rating=np.array([1.0, 2.0])) for d in dates}
    plan = review_plan(reviews, prices, UniverseTable(snaps), score_lag_days=2)
    series = simulate(plan, weights_fn, prices)

    i0, i1 = prices.index_of(reviews[0]), prices.index_of(reviews[1])
    a, b = 70.0, 30.0
    oracle = [100.0]
    for t in range(i0 + 1, n_days):
        a *= 1 + rets[t, 0]
        b *= 1 + rets[t, 1]
        if t == i1:
            total = a + b
            a, b = 0.2 * total, 0.8 * total
        oracle.append(a + b)
    assert series.values == pytest.approx(np.array(oracle), rel=1e-12)
    assert len(series.weights_history) == 2


def test_simulate_rejects_review_before_snapshot_window():
    dates, prices, universe = one_stock_world([0.0, 0.01, 0.01])
    with pytest.raises(MissingPriceData):
        review_plan([dates[1]], prices, universe, score_lag_days=4)


def test_simulate_rejects_stock_without_prices():
    dates, prices, _ = one_stock_world([0.0, 0.01, 0.01])
    snaps = {d: UniverseSnapshot(
        date=d, stock_ids=np.array(["A", "Z"], dtype=object),
        cap_weight=np.array([0.5, 0.5]), sector=np.array(["X", "X"], dtype=object),
        peer_group=np.array(["G", "G"], dtype=object),
        esg_rating=np.array([1.0, 2.0])) for d in dates}
    with pytest.raises(MissingPriceData, match="no prices for Z"):
        review_plan([dates[0]], prices, UniverseTable(snaps), score_lag_days=0)


def test_review_plan_snapshots_are_read_only_and_not_checked_again(monkeypatch):
    """A plan snapshot is a read-only view of the universe's, with the
    scores of its date. Its arrays were checked when the universe was
    built, so resolving the plan runs no snapshot check."""
    dates, prices, universe = one_stock_world([0.0, 0.01, 0.01])
    checked = []
    check = UniverseSnapshot.__post_init__
    monkeypatch.setattr(UniverseSnapshot, "__post_init__",
                        lambda snap: checked.append(snap.date) or check(snap))
    scores = backtest.Scores(dates[:1], np.array(["A"], dtype=object),
                             np.array([0.1]), np.array([1]))
    snap = review_plan([dates[0]], prices, universe, score_lag_days=0, scores=scores).snapshots[0]
    assert checked == []
    source = universe.at(dates[0])
    assert snap.date == source.date and snap.score.tolist() == [1]
    for name in ("stock_ids", "cap_weight", "sector", "peer_group", "esg_rating", "score"):
        assert not getattr(snap, name).flags.writeable
    assert snap.cap_weight.tolist() == source.cap_weight.tolist()
    assert source.cap_weight.flags.writeable and source.score is None
    with pytest.raises(FrozenInstanceError):
        snap.score = None


def test_simulate_validates_weights():
    dates, prices, universe = one_stock_world([0.0, 0.01, 0.01])
    plan = review_plan([dates[0]], prices, universe, score_lag_days=0)
    with pytest.raises(SpecMismatch):
        simulate(plan, lambda s: np.array([0.9]), prices)
    with pytest.raises(SpecMismatch):
        simulate(plan, lambda s: np.array([2.0, -1.0]), prices)


def reference_simulate(reviews, weights_fn, prices, universe, lag):
    """The simulator as a per-day loop: grow the holdings one day at a time
    and rebalance at each review close."""
    reviews = sorted(np.datetime64(r, "D") for r in reviews)
    idx = [prices.index_of(r) for r in reviews]

    def target(i, level):
        snap = universe.at(prices.dates[i - lag])
        w = np.asarray(weights_fn(snap), dtype=np.float64)
        h = np.zeros(len(prices.stock_ids))
        for sid, wi in zip(snap.stock_ids, w):
            h[prices.col[sid]] = level * wi
        return h, w

    holdings, w0 = target(idx[0], 100.0)
    weights = [w0]
    values = [100.0]
    later = set(idx[1:])
    for t in range(idx[0] + 1, prices.n):
        holdings = holdings * (1.0 + prices.returns[t])
        if t in later:
            holdings, w = target(t, float(holdings.sum()))
            weights.append(w)
        values.append(float(holdings.sum()))
    return np.array(values), weights


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("review_on_last_day", [False, True])
def test_simulate_matches_per_day_loop_bitwise(seed, review_on_last_day):
    rng = np.random.default_rng(seed)
    n_days, n_stocks, lag = 150, 7, 3
    dates = grid("2020-01-06", n_days)
    ids = np.array([f"S{i}" for i in range(n_stocks)], dtype=object)
    prices = PriceTable(dates, ids, rng.normal(0.0003, 0.02, (n_days, n_stocks)))
    held = ids[:5]  # two priced stocks are never in the universe
    snaps = {d: UniverseSnapshot(
        date=d, stock_ids=held, cap_weight=np.full(5, 0.2),
        sector=np.array(["X"] * 5, dtype=object),
        peer_group=np.array(["G"] * 5, dtype=object),
        esg_rating=np.arange(5.0)) for d in dates}
    universe = UniverseTable(snaps)

    def weights_fn(snap):
        w = np.random.default_rng(int(snap.date.astype(int))).random(snap.n)
        return w / w.sum()

    ends = month_ends(dates)
    reviews = list(ends if review_on_last_day else ends[:-1])
    reviews = reviews[::-1] + [reviews[2]]  # unsorted, one review twice
    series = simulate(review_plan(reviews, prices, universe, lag), weights_fn, prices)
    values, weights = reference_simulate(reviews, weights_fn, prices, universe, lag)
    assert series.values.tolist() == values.tolist()
    assert [h[2].tolist() for h in series.weights_history] == \
        [w.tolist() for w in weights]
    assert series.dates.tolist() == dates[prices.index_of(min(reviews)):].tolist()

# --- kpis -------------------------------------------------------------------


def series_from_levels(levels, start="2020-01-06"):
    dates = grid(start, len(levels))
    return PortfolioSeries("s", dates, np.asarray(levels, float), [])


def test_drawdown_hand_case():
    s = series_from_levels([100.0, 120.0, 90.0, 110.0])
    rep = kpis(s, s, 252.0)
    assert rep.max_drawdown == pytest.approx(90.0 / 120.0 - 1.0)
    assert rep.max_drawdown == pytest.approx(-0.25)


def test_monotone_series_has_zero_drawdown():
    s = series_from_levels([100.0, 101.0, 103.0, 108.0])
    assert kpis(s, s, 252.0).max_drawdown == 0.0


def test_benchmark_vs_itself_ir_zero_exact():
    rng = np.random.default_rng(2)
    levels = 100.0 * np.cumprod(np.r_[1.0, 1 + rng.normal(0, 0.01, 60)])
    levels = levels / levels[0] * 100.0
    s = series_from_levels(levels)
    rep = kpis(s, s, 252.0)
    assert rep.information_ratio == 0.0
    assert rep.ann_alpha == pytest.approx(0.0, abs=1e-12)


def test_grid_mismatch_detected():
    a = series_from_levels([100.0, 101.0, 102.0])
    b = series_from_levels([100.0, 101.0, 102.0], start="2020-01-07")
    with pytest.raises(GridMismatch):
        kpis(a, b, 252.0)


def test_kpis_match_brute_force_oracle():
    """Every KPI against a plain-Python daily loop, random 2-asset panels."""
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(30, 400))
        ppy = float(rng.choice([12.0, 52.0, 252.0]))
        ra = rng.normal(0.0003, 0.012, n)
        rb_ = rng.normal(0.0002, 0.010, n)
        va = 100.0 * np.cumprod(np.r_[1.0, 1 + ra])
        vb = 100.0 * np.cumprod(np.r_[1.0, 1 + rb_])
        dates = grid("2015-01-05", n + 1)
        sa = PortfolioSeries("a", dates, va, [])
        sb = PortfolioSeries("b", dates, vb, [])
        rep = kpis(sa, sb, ppy)

        r = [va[i + 1] / va[i] - 1 for i in range(n)]
        rb = [vb[i + 1] / vb[i] - 1 for i in range(n)]
        ann = (va[-1] / va[0]) ** (ppy / n) - 1
        vol = float(np.std(r, ddof=1)) * ppy ** 0.5
        peak, mdd = va[0], 0.0
        for v in va:
            peak = max(peak, v)
            mdd = min(mdd, v / peak - 1)
        ex = [x - y for x, y in zip(r, rb)]
        te = float(np.std(ex, ddof=1)) * ppy ** 0.5
        ir = float(np.mean(ex)) * ppy / te if te > 0 else 0.0
        mb, mr = float(np.mean(rb)), float(np.mean(r))
        var_b = sum((x - mb) ** 2 for x in rb)
        beta = sum((x - mb) * (y - mr) for x, y in zip(rb, r)) / var_b
        alpha = (mr - beta * mb) * ppy

        assert rep.ann_performance == pytest.approx(ann, abs=1e-10)
        assert rep.ann_volatility == pytest.approx(vol, abs=1e-10)
        assert rep.sharpe == pytest.approx(ann / vol, abs=1e-10)
        assert rep.max_drawdown == pytest.approx(mdd, abs=1e-10)
        assert rep.information_ratio == pytest.approx(ir, abs=1e-10)
        assert rep.ann_alpha == pytest.approx(alpha, abs=1e-10)


def test_calendar_excess_by_year():
    n = 300
    dates = grid("2019-10-01", n + 1)
    rng = np.random.default_rng(4)
    ra, rb_ = rng.normal(0, 0.01, n), rng.normal(0, 0.01, n)
    va = 100.0 * np.cumprod(np.r_[1.0, 1 + ra])
    vb = 100.0 * np.cumprod(np.r_[1.0, 1 + rb_])
    rep = kpis(PortfolioSeries("a", dates, va, []),
               PortfolioSeries("b", dates, vb, []), 252.0)
    years = dates[1:].astype("datetime64[Y]").astype(int) + 1970
    for year in np.unique(years):
        m = years == year
        want = np.prod(1 + ra[m]) - np.prod(1 + rb_[m])
        assert rep.calendar_excess[int(year)] == pytest.approx(want, abs=1e-12)
    assert set(rep.calendar_excess) == set(int(y) for y in np.unique(years))


# --- walk-forward engine ------------------------------------------------


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


def small_study(seed=0, planted=None, **cfg_kw):
    spec = SynthSpec(
        n_stocks=20, n_dates=5 * 252, d=4, m=4,
        planted=planted if planted is not None else
        [PlantedRule(C((1, 2, 3)), 0.08), PlantedRule(C((2, 0, 1)), -0.08)],
        noise_sigma=0.02, seed=seed, horizon_days=63, sector_feature=0,
    )
    data = generate(spec)
    cfg = WalkForwardConfig(initial_train_years=3, learn_fraction=0.75,
                            m=4, c_max=0.7, top_m=15, epsilon=0.01,
                            **cfg_kw)
    universe = UniverseTable.from_rows(data.universe)
    prices = PriceTable(data.price_dates, data.price_stock_ids,
                        data.price_returns)
    return data, universe, prices, cfg


def test_study_on_prices_without_a_trading_day_raises_missing_price_data():
    data, universe, prices, cfg = small_study()
    empty = PriceTable(prices.dates[:0], prices.stock_ids, prices.returns[:0])
    with pytest.raises(MissingPriceData, match="no trading day"):
        run_study(data.panel, data.specs, universe, empty, cfg)
    with pytest.raises(MissingPriceData, match="no trading day"):
        learning_y(data.panel, data.specs, universe, empty, cfg, 2012)


def test_walk_forward_emits_all_five_legs():
    data, universe, prices, cfg = small_study()
    reports = run_study(data.panel, data.specs, universe, prices, cfg).reports
    assert set(reports) == {BENCHMARK, POSITIVE, POSITIVE_SM, NEGATIVE,
                            BEST_IN_CLASS}
    for rep in reports.values():
        assert isinstance(rep, BacktestReport)
        assert rep.series.values[0] == 100.0


def test_first_out_of_sample_scores_in_january_of_year_4():
    data, universe, prices, cfg = small_study()
    res = run_study(data.panel, data.specs, universe, prices, cfg)
    first_review = res.reviews[0]
    assert str(first_review).startswith("2013-01")
    assert res.scores.dates[0] < first_review  # score day precedes the review


def test_planted_panel_positive_beats_negative():
    data, universe, prices, cfg = small_study(seed=1)
    reports = run_study(data.panel, data.specs, universe, prices, cfg).reports
    assert (reports[POSITIVE].kpis.ann_performance
            > reports[NEGATIVE].kpis.ann_performance)


def test_one_year_of_data_is_insufficient():
    spec = SynthSpec(n_stocks=5, n_dates=252, d=2, m=3, planted=[],
                     noise_sigma=0.02, seed=0, horizon_days=63,
                     sector_feature=0)
    data = generate(spec)
    cfg = WalkForwardConfig(initial_train_years=3, m=3)
    with pytest.raises(InsufficientHistory):
        run_study(data.panel, data.specs,
                  UniverseTable.from_rows(data.universe),
                  PriceTable(data.price_dates, data.price_stock_ids,
                             data.price_returns), cfg)


def test_null_panel_falls_back_to_benchmark(caplog):
    data, universe, prices, cfg = small_study(seed=2, planted=[])
    with caplog.at_level(logging.WARNING, logger="rulescreen.backtest"):
        reports = run_study(data.panel, data.specs, universe, prices, cfg).reports
    # with nothing score-worthy the ML legs hold the benchmark instead
    assert reports[NEGATIVE].series.values == pytest.approx(
        reports[BENCHMARK].series.values)
    assert any("holding benchmark" in r.message for r in caplog.records)


def test_study_logs_nothing_from_panel(caplog):
    """A learn_fraction above 0.5 is a config choice, not a fault: the
    design/replay split of every learning is in its LearningRecord, and
    the panel logs nothing about it."""
    data, universe, prices, cfg = small_study(seed=3)
    assert cfg.learn_fraction == 0.75
    with caplog.at_level(logging.DEBUG, logger="rulescreen.panel"):
        res = run_study(data.panel, data.specs, universe, prices, cfg)
    assert all(rec.n_design > rec.n_replay for rec in res.learnings)
    assert [r for r in caplog.records if r.name == "rulescreen.panel"] == []


def test_learning_y_first_year_matches_walk_forward_bitwise():
    data, universe, prices, cfg = small_study(seed=3)
    walk = run_study(data.panel, data.specs, universe, prices, cfg)
    frozen = run_study(data.panel, data.specs, universe, prices, cfg,
                       freeze_year=2012)
    wex = walk.reports[POSITIVE].kpis.calendar_excess
    fex = frozen.reports[POSITIVE].kpis.calendar_excess
    assert fex[2013] == wex[2013]  # bitwise, not approx


def test_learning_y_rejects_unknown_year():
    data, universe, prices, cfg = small_study(seed=4)
    with pytest.raises(UnknownLearningYear):
        learning_y(data.panel, data.specs, universe, prices, cfg, 2031)
    with pytest.raises(UnknownLearningYear):
        learning_y(data.panel, data.specs, universe, prices, cfg, 2010)


def test_learning_y_report_is_named_for_its_year():
    data, universe, prices, cfg = small_study(seed=5)
    rep = learning_y(data.panel, data.specs, universe, prices, cfg, 2012)
    assert rep.name == "Learning 2012"


# --- the schedule memo: frozen studies reuse the last study's learnings ----


def frozen_bytes(rep):
    return (rep.name, rep.series.dates.tobytes(), rep.series.values.tobytes(),
            [(str(d), list(ids), w.tobytes()) for d, ids, w in rep.series.weights_history],
            rep.kpis)


@pytest.fixture
def learn_calls(monkeypatch):
    """Learning dates of every backtest.learn call."""
    calls = []
    original = backtest.learn

    def counting(panel, params, learned_at=None, **kw):
        calls.append(learned_at)
        return original(panel, params, learned_at=learned_at, **kw)

    monkeypatch.setattr(backtest, "learn", counting)
    return calls


def test_learning_y_after_study_equals_cold_run(learn_calls):
    data, universe, prices, cfg = small_study(seed=6)
    args = (data.panel, data.specs, universe, prices, cfg)
    res = run_study(*args)
    years = [rec.year for rec in res.learnings]
    warm = [frozen_bytes(learning_y(*args, year)) for year in years]
    for year, got in zip(years, warm):
        backtest._last_schedule = None
        assert frozen_bytes(learning_y(*args, year)) == got


def test_study_and_all_frozen_years_learn_each_year_once(learn_calls):
    data, universe, prices, cfg = small_study(seed=7)
    args = (data.panel, data.specs, universe, prices, cfg)
    res = run_study(*args)
    for rec in res.learnings:
        learning_y(*args, rec.year)
    assert learn_calls == [rec.date for rec in res.learnings]

    # frozen studies on a cleared memo extend it: still one learning per year
    learn_calls.clear()
    backtest._last_schedule = None
    for rec in reversed(res.learnings):
        learning_y(*args, rec.year)
    assert sorted(learn_calls) == [rec.date for rec in res.learnings]


def test_walk_forward_study_never_reads_the_memo(learn_calls):
    data, universe, prices, cfg = small_study(seed=7)
    args = (data.panel, data.specs, universe, prices, cfg)
    first = run_study(*args)
    second = run_study(*args)
    dates = [rec.date for rec in first.learnings]
    assert learn_calls == dates + dates
    assert score_bits(second.scores) == score_bits(first.scores)


def test_panel_changed_in_place_misses_the_memo(learn_calls):
    data, universe, prices, cfg = small_study(seed=8)
    args = (data.panel, data.specs, universe, prices, cfg)
    res = run_study(*args)
    year = res.learnings[0].year
    labeled = np.flatnonzero(np.isfinite(data.panel.y))
    data.panel.y[labeled[0]] += 0.5
    learn_calls.clear()
    got = frozen_bytes(learning_y(*args, year))
    assert learn_calls == [res.learnings[0].date]
    backtest._last_schedule = None
    assert frozen_bytes(learning_y(*args, year)) == got


def categorical_market(seed):
    """small_study(seed) with feature f0 recoded as a categorical column of
    Python ints, its quartile 0 to 3."""
    data, universe, prices, cfg = small_study(seed=seed)
    col = data.panel.columns[0]
    quartile = np.searchsorted(np.quantile(col, [0.25, 0.5, 0.75]), col)
    data.panel.columns[0] = np.array(quartile.tolist(), dtype=object)
    data.specs[0] = FeatureSpec("f0", CATEGORICAL)
    return data, universe, prices, cfg


def mid_month_monday(grid, after):
    """Grid row of the first Monday after `after` that falls between the 8th
    and the 20th, so no month-end review or score day is on it."""
    day_of_month = (grid - grid.astype("datetime64[M]")).astype(int) + 1
    monday = (grid.astype(int) + 3) % 7 == 0  # 1970-01-01 was a Thursday
    return int(np.flatnonzero((grid > after) & monday & (day_of_month >= 8)
                              & (day_of_month <= 20))[0])


@pytest.mark.parametrize("change", [
    "stock_id", "numeric_zero", "categorical", "grid", "spec", "config",
])
def test_input_changed_in_place_misses_the_memo(learn_calls, change):
    """Each in-place change of a study input, even one that == cannot see
    (0.0 to -0.0, 1 to 1.0, an id with a trailing NUL), makes the next
    frozen study learn again, and its result equals a cold run."""
    data, universe, prices, cfg = (
        categorical_market(8) if change == "categorical" else small_study(seed=8)
    )
    panel = data.panel
    k = int(np.flatnonzero(np.isfinite(panel.y))[0])
    panel.columns[1][k] = 0.0
    args = (panel, data.specs, universe, prices, cfg)
    res = run_study(*args)
    year = res.learnings[0].year
    if change == "stock_id":
        panel.stock_ids[k] += "\0"
    elif change == "numeric_zero":
        panel.columns[1][k] = -0.0
    elif change == "categorical":
        j = next(i for i, v in enumerate(panel.columns[0]) if v == 1)
        panel.columns[0][j] = 1.0
    elif change == "grid":
        # The Monday becomes a Sunday: still sorted, same months and reviews.
        prices.dates[mid_month_monday(prices.dates, res.learnings[0].date)] -= 1
    elif change == "spec":
        data.specs[1] = replace(data.specs[1], feature_id="g1")
    else:
        cfg.c_max = 0.6
    learn_calls.clear()
    got = frozen_bytes(learning_y(*args, year))
    assert learn_calls == [res.learnings[0].date]
    backtest._last_schedule = None
    assert frozen_bytes(learning_y(*args, year)) == got


def test_no_engine_is_built_while_the_memo_holds_one(monkeypatch):
    """A study copies its inputs only after the last study's copies are let
    go: _Engine.__init__ runs on an empty memo for a walk-forward study
    after another and for a frozen study that misses, and not at all for a
    frozen study that hits."""
    data, universe, prices, cfg = small_study(seed=8)
    args = (data.panel, data.specs, universe, prices, cfg)
    memo_at_init = []
    init_original = backtest._Engine.__init__

    def recording(self, *a, **kw):
        memo_at_init.append(backtest._last_schedule)
        init_original(self, *a, **kw)

    monkeypatch.setattr(backtest._Engine, "__init__", recording)
    res = run_study(*args)
    run_study(*args)
    assert len(memo_at_init) == 2
    engine = backtest._last_schedule.engine
    learning_y(*args, res.learnings[-1].year)
    assert len(memo_at_init) == 2  # a hit
    assert backtest._last_schedule.engine is engine
    data.panel.y[np.flatnonzero(np.isfinite(data.panel.y))[0]] += 0.5
    learning_y(*args, res.learnings[-1].year)
    assert memo_at_init == [None, None, None]
    assert backtest._last_schedule.engine is not engine


def test_returned_scores_and_learnings_are_not_the_memo(learn_calls):
    data, universe, prices, cfg = small_study(seed=9)
    args = (data.panel, data.specs, universe, prices, cfg)
    res = run_study(*args)
    years = [rec.year for rec in res.learnings]
    want = [frozen_bytes(learning_y(*args, year)) for year in years]
    res.scores.stock_ids[:] = res.scores.stock_ids[::-1]
    res.scores.y_hat[:] = 0.0
    res.scores.ternary[:] = -res.scores.ternary
    res.learnings[0].ruleset.rules.clear()
    res.learnings[0].epsilon = 1e9
    assert [frozen_bytes(learning_y(*args, year)) for year in years] == want
    frozen = run_study(*args, freeze_year=years[-1])
    assert frozen.learnings[0].ruleset.rules
    assert frozen.learnings[0].epsilon != 1e9
    assert not learn_calls[len(years):]  # all of it came from the memo


def test_frozen_study_after_walk_forward_scores_only_its_tail(monkeypatch):
    """After a walk-forward study, the year-Y frozen study scores no day on
    or before the next learning date L_Y+1, and no day at all for the last
    learning year: the walk-forward segments already scored those days."""
    data, universe, prices, cfg = small_study(seed=6)
    args = (data.panel, data.specs, universe, prices, cfg)
    learnings = run_study(*args).learnings
    scored = []
    original = backtest._Engine.segment

    def recording(self, *a, **kw):
        scores, end_state = original(self, *a, **kw)
        scored.extend(scores.dates)
        return scores, end_state

    monkeypatch.setattr(backtest._Engine, "segment", recording)
    for k, rec in enumerate(learnings):
        scored.clear()
        learning_y(*args, rec.year)
        if k + 1 == len(learnings):
            assert scored == []
        else:
            assert all(day > learnings[k + 1].date for day in scored)


def test_studies_in_threads_match_cold_runs():
    """Threads interleaving studies on two markets replace the one-entry
    memo under each other; every result still equals a cold run."""
    markets = [small_study(seed=s)[:3] for s in (10, 11)]
    cfg = small_study()[3]
    want = {}
    for i, (data, universe, prices) in enumerate(markets):
        args = (data.panel, data.specs, universe, prices, cfg)
        for rec in run_study(*args).learnings:
            backtest._last_schedule = None
            want[i, rec.year] = frozen_bytes(learning_y(*args, rec.year))
    results, errors = [], []
    years = sorted({year for _, year in want})
    rounds = 3

    def worker(i, walk_first):
        data, universe, prices = markets[i]
        args = (data.panel, data.specs, universe, prices, cfg)
        try:
            for _ in range(rounds):
                if walk_first:
                    run_study(*args)
                for year in years:
                    results.append((i, year, frozen_bytes(learning_y(*args, year))))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    jobs = [(i, walk_first) for i in (0, 1) for walk_first in (False, False, True)]
    threads = [threading.Thread(target=worker, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == rounds * len(jobs) // 2 * len(want)
    assert all(got == want[i, year] for i, year, got in results)


# --- segment scoring: one discretization and activation per segment -------


def reference_segment(engine, step, state, L, next_L):
    """_Engine.segment as a per-day loop: on each grid day of (L, next_L],
    the labels resolving after the previous grid day and on or before this
    one are discretized and update the weights, then a score day's own panel
    rows are discretized and predicted on their own."""
    raw, grid, ruleset = engine.raw_panel, engine.grid, step.ruleset
    pending = engine.labeled & (engine.resolution > L)
    if next_L is not None:
        pending &= engine.resolution <= next_L
    score_rows = set(engine.score_rows.tolist())
    t_start = int(np.flatnonzero(grid == L)[0]) + 1
    t_stop = int(np.flatnonzero(grid == next_L)[0]) + 1 if next_L is not None else len(grid)
    scores = []
    for t in range(t_start, t_stop):
        day = grid[t]
        due = np.flatnonzero(
            pending & (engine.resolution > grid[t - 1]) & (engine.resolution <= day)
        )
        if len(due):
            labels = apply_discretizer(raw.take(due), step.discretizer)
            state = update(state, ruleset, labels.y, ruleset.activation_matrix(labels.x))
        if t in score_rows:
            rows = np.flatnonzero(raw.dates == day)
            if not len(rows):
                raise SpecMismatch(f"no panel rows to score on {day}")
            panel = apply_discretizer(raw.take(rows), step.discretizer)
            y_hat = predict_many(state, ruleset, panel.x)
            ternary = score_many(y_hat, state.epsilon)
            scores += [(day, sid, float(y), int(s))
                       for sid, y, s in zip(panel.stock_ids, y_hat, ternary)]
    dates, ids, y_hat, ternary = zip(*scores) if scores else ([], [], [], [])
    return backtest.Scores(
        np.array(dates, dtype="datetime64[D]"), np.array(ids, dtype=object),
        np.array(y_hat, dtype=np.float64), np.array(ternary, dtype=np.int64),
    ), state


def score_bits(scores):
    """Every (day, stock, y_hat bits, ternary) row of a score table, in order."""
    return [(str(day), sid, y.hex(), s)
            for day, sid, y, s in zip(scores.dates, scores.stock_ids,
                                      scores.y_hat.tolist(), scores.ternary.tolist())]


def regime_market(seed):
    data = generate(regime_spec(seed))
    return (data, UniverseTable.from_rows(data.universe),
            PriceTable(data.price_dates, data.price_stock_ids, data.price_returns),
            REGIME_CFG)


def thinned_market():
    """A small market without the panel rows of one to four stocks on every
    other score day: those days have fewer rows than universe stocks."""
    data, universe, prices, cfg = small_study(seed=4)
    days = np.unique(run_study(data.panel, data.specs, universe, prices, cfg).scores.dates)
    stocks = np.unique(data.panel.stock_ids)
    drop = np.zeros(data.panel.n, dtype=bool)
    for k, day in enumerate(days[::2]):
        drop |= (data.panel.dates == day) & np.isin(data.panel.stock_ids, stocks[: k % 4 + 1])
    data.panel = data.panel.take(np.flatnonzero(~drop))
    return data, universe, prices, cfg


MARKETS = {
    "regime0": lambda: regime_market(0),
    "regime1": lambda: regime_market(1),
    "thinned": thinned_market,
}


@pytest.mark.parametrize("market", list(MARKETS))
def test_segment_scores_equal_per_day_reference(monkeypatch, market):
    """Walk-forward scores and every frozen study's tail equal the per-day
    reference bit for bit, in y_hat and ternary, and so do the levels."""
    data, universe, prices, cfg = MARKETS[market]()
    args = (data.panel, data.specs, universe, prices, cfg)

    def studies():
        backtest._last_schedule = None
        walk = run_study(*args)
        frozen = [run_study(*args, freeze_year=rec.year) for rec in walk.learnings]
        return [walk] + frozen

    got = studies()
    monkeypatch.setattr(backtest._Engine, "segment", reference_segment)
    want = studies()
    assert len(got) == len(want) > 2
    for g, w in zip(got, want):
        assert score_bits(g.scores) == score_bits(w.scores)
        for name in w.series:
            assert g.series[name].values.tobytes() == w.series[name].values.tobytes()
    if market == "thinned":
        dates = got[0].scores.dates
        sizes = np.unique(dates, return_counts=True)[1]
        assert min(sizes) < max(sizes) == universe.at(dates[0]).n


HOLIDAY = D("2013-11-14")


def holiday_market():
    """small_study(seed=3) without HOLIDAY in its prices and its panel, as if
    the market were closed that day; 20 labels resolve on it."""
    data, universe, prices, cfg = small_study(seed=3)
    open_days = prices.dates != HOLIDAY
    prices = PriceTable(prices.dates[open_days], prices.stock_ids, prices.returns[open_days])
    data.panel = data.panel.take(np.flatnonzero(data.panel.dates != HOLIDAY))
    return data, universe, prices, cfg


def test_labels_resolving_on_a_market_holiday_update_the_next_close(monkeypatch):
    """Every out-of-sample label updates the weights once, the 20 that
    resolve on a holiday included, and (with every grid day scored) each
    day's predictions equal the per-day reference, which applies a label at
    the first close on or after its resolution day and none before."""
    data, universe, prices, cfg = holiday_market()
    grid, panel = prices.dates, data.panel
    resolution = np.busday_offset(panel.dates, cfg.horizon_days)
    labeled = np.isfinite(panel.y)
    assert np.count_nonzero(labeled & (resolution == HOLIDAY)) == 20
    learn_dates = backtest.learning_dates(grid, cfg.initial_train_years)

    engine = backtest._Engine(panel, data.specs, grid, cfg, np.arange(1, len(grid)))
    for k, L in enumerate(learn_dates):
        next_L = learn_dates[k + 1] if k + 1 < len(learn_dates) else None
        step = engine.learning(L)
        got, got_state = engine.segment(step, step.state, L, next_L)
        want, want_state = reference_segment(engine, step, step.state, L, next_L)
        assert score_bits(got) == score_bits(want)
        assert got_state.weights.tobytes() == want_state.weights.tobytes()

    applied, in_segment = [], []
    update_original = backtest.update
    segment_original = backtest._Engine.segment

    def counting(state, ruleset, x, y, **kw):
        if in_segment:
            applied.append(len(y))
        return update_original(state, ruleset, x, y, **kw)

    def flagged(self, *a, **kw):
        in_segment.append(True)
        try:
            return segment_original(self, *a, **kw)
        finally:
            in_segment.pop()

    monkeypatch.setattr(backtest, "update", counting)
    monkeypatch.setattr(backtest._Engine, "segment", flagged)
    run_study(panel, data.specs, universe, prices, cfg)
    out_of_sample = labeled & (resolution > learn_dates[0]) & (resolution <= grid[-1])
    assert sum(applied) == np.count_nonzero(out_of_sample)


def test_segment_discretizes_and_activates_its_score_rows_once(monkeypatch):
    """A segment makes one apply_discretizer call and one
    RuleSet.activation_matrix call, however many score days it has: on its
    pending labels (those resolving in (L, next_L], or (L, end of data])
    together with every panel row of its score days, and no other row."""
    data, universe, prices, cfg = small_study(seed=6)
    args = (data.panel, data.specs, universe, prices, cfg)
    calls, segments = [], []
    apply_original = backtest.apply_discretizer
    matrix_original = RuleSet.activation_matrix
    segment_original = backtest._Engine.segment

    def keys(dates, stock_ids):
        return sorted(zip(np.asarray(dates).astype(str).tolist(), stock_ids.tolist()))

    def counting_apply(raw, discretizer):
        calls.append(("apply", keys(raw.dates, raw.stock_ids), raw.n))
        return apply_original(raw, discretizer)

    def counting_matrix(self, x_matrix):
        calls.append(("matrix", None, len(x_matrix)))
        return matrix_original(self, x_matrix)

    def recording(self, step, state, L, next_L):
        calls.clear()
        scores, end_state = segment_original(self, step, state, L, next_L)
        raw = self.raw_panel
        resolves = np.busday_offset(raw.dates, cfg.horizon_days)
        end = self.grid[-1] if next_L is None else next_L
        pending = np.isfinite(raw.y) & (resolves > L) & (resolves <= end)
        on_days = np.isin(raw.dates, scores.dates)
        want = keys(raw.dates[pending | on_days], raw.stock_ids[pending | on_days])
        segments.append((scores, want, keys(raw.dates[on_days], raw.stock_ids[on_days]),
                         list(calls)))
        return scores, end_state

    monkeypatch.setattr(backtest, "apply_discretizer", counting_apply)
    monkeypatch.setattr(RuleSet, "activation_matrix", counting_matrix)
    monkeypatch.setattr(backtest._Engine, "segment", recording)
    for rec in run_study(*args).learnings:
        learning_y(*args, rec.year)

    assert max(len(np.unique(scores.dates)) for scores, *_ in segments) > 1
    for scores, want, on_days, seg_calls in segments:
        assert [c[0] for c in seg_calls] == ["apply", "matrix"]
        (_, applied, n_applied), (_, _, n_activated) = seg_calls
        assert applied == want
        assert n_applied == n_activated == len(want)
        assert keys(scores.dates, scores.stock_ids) == on_days


def test_score_day_without_panel_rows_is_a_typed_error():
    """A score day with no feature rows raises SpecMismatch naming the first
    such day, though a later day of the same segment has none either."""
    data, universe, prices, cfg = small_study(seed=4)
    days = np.unique(run_study(data.panel, data.specs, universe, prices, cfg).scores.dates)
    keep = ~np.isin(data.panel.dates, np.array([days[3], days[1]]))
    with pytest.raises(SpecMismatch, match=f"^no panel rows to score on {days[1]}$"):
        run_study(data.panel.take(np.flatnonzero(keep)), data.specs, universe, prices, cfg)


# --- the review plan: legs share resolved reviews ------------------------


def history_bytes(series):
    return [(str(d), list(ids), w.tobytes()) for d, ids, w in series.weights_history]


EXTRA = "X0001"


def appended(panel, rows):
    """The panel with the rows of another panel, in (date, stock_id) order."""
    dates = np.concatenate([panel.dates, rows.dates])
    stock_ids = np.concatenate([panel.stock_ids, rows.stock_ids])
    order = np.lexsort((stock_ids, dates))
    return RawPanel(
        dates=dates[order],
        stock_ids=stock_ids[order],
        columns=[np.concatenate(pair)[order] for pair in zip(panel.columns, rows.columns)],
        y=np.concatenate([panel.y, rows.y])[order],
    )


def extra_stock_market():
    """small_study(seed=1) with the panel rows of one more stock, EXTRA, on
    every date: a stock that the universe and the prices lack."""
    data, universe, prices, cfg = small_study(seed=1)
    panel = data.panel
    rows = panel.take(np.flatnonzero(panel.stock_ids == panel.stock_ids[0]))
    data.panel = appended(panel, replace(rows, stock_ids=np.full(rows.n, EXTRA, dtype=object)))
    return data, universe, prices, cfg


def assert_legs_equal_independent_simulations(data, universe, prices, cfg):
    """Each leg of a study equals simulate on the study's reviews with a
    universe scored from the study's scores by a per-stock lookup, bit for
    bit. Returns the study."""
    res = run_study(data.panel, data.specs, universe, prices, cfg)
    lag = SCORE_LAG_DAYS
    scored = {}
    for r in res.reviews:
        day = prices.dates[prices.index_of(r) - lag]
        on_day = res.scores.dates == day
        per_stock = dict(zip(res.scores.stock_ids[on_day], res.scores.ternary[on_day]))
        snap = universe.at(day)
        scored[day] = replace(snap, score=np.array(
            [per_stock.get(sid, 0) for sid in snap.stock_ids], dtype=np.int64))
    plan = review_plan(res.reviews, prices, UniverseTable(scored), lag)
    for name, fn in backtest._leg_weights().items():
        want = simulate(plan, fn, prices, name)
        got = res.series[name]
        assert got.values.tobytes() == want.values.tobytes()
        assert history_bytes(got) == history_bytes(want)
    return res


def test_study_legs_equal_independent_simulations():
    assert_legs_equal_independent_simulations(*small_study(seed=1))


@pytest.mark.parametrize("market", ["extra stock", "thinned"])
def test_study_legs_equal_independent_simulations_on_uneven_markets(market):
    """The same on a market whose panel holds a stock the universe lacks,
    and on one whose panel lacks universe stocks on some score days."""
    uneven = extra_stock_market() if market == "extra stock" else thinned_market()
    res = assert_legs_equal_independent_simulations(*uneven)
    assert (EXTRA in res.scores.stock_ids) == (market == "extra stock")


def test_no_leg_changes_the_snapshot_another_leg_sees(monkeypatch):
    """A weights_fn that writes into its snapshot's arrays or rebinds its
    fields is refused at every review, and the legs after it match a study
    without it."""
    data, universe, prices, cfg = small_study(seed=1)
    args = (data.panel, data.specs, universe, prices, cfg)
    want = run_study(*args)
    legs = backtest._leg_weights()
    refused = []
    names = ["stock_ids", "cap_weight", "sector", "peer_group", "esg_rating", "score"]

    def vandal(snap):
        for name in names:
            values = getattr(snap, name)
            try:
                values[0] = values[-1]
            except ValueError:
                refused.append(name)
            try:
                setattr(snap, name, values[::-1])
            except FrozenInstanceError:
                refused.append(name)
        return legs[BENCHMARK](snap)

    monkeypatch.setattr(backtest, "_leg_weights", lambda: {"Vandal": vandal, **legs})
    got = run_study(*args)
    assert len(refused) == 2 * len(names) * len(got.reviews)
    for name in legs:
        assert got.series[name].values.tobytes() == want.series[name].values.tobytes()
        assert history_bytes(got.series[name]) == history_bytes(want.series[name])


def test_rows_by_key_matches_dict_grouping():
    """Array grouping gives the same keys and the same ascending row order
    within each key as a per-row dict of lists."""
    rng = np.random.default_rng(3)
    dates = D("2020-01-01") + rng.integers(0, 40, 600)  # unsorted, repeated
    by_date = {}
    for i, d in enumerate(dates):
        by_date.setdefault(d, []).append(i)
    got = _rows_by_key(dates)
    assert set(got) == set(by_date)
    for d, rows in by_date.items():
        assert got[d].tolist() == rows

# --- csv interfaces ---------------------------------------------------------


def test_universe_csv_round_trip(tmp_path):
    data, universe, prices, _cfg = small_study(seed=6)
    from rulescreen.synth import write_universe_csv
    path = tmp_path / "universe.csv"
    write_universe_csv(path, data.universe)
    loaded = load_universe_csv(path)
    assert np.array_equal(loaded.dates, universe.dates)
    for d in universe.dates:
        a, b = universe.at(d), loaded.at(d)
        assert np.array_equal(a.stock_ids, b.stock_ids)
        assert a.cap_weight.tobytes() == b.cap_weight.tobytes()
        assert np.array_equal(a.sector, b.sector)
        assert np.array_equal(a.peer_group, b.peer_group)
        assert a.esg_rating.tobytes() == b.esg_rating.tobytes()


def test_universe_csv_header_checked(tmp_path):
    path = tmp_path / "universe.csv"
    path.write_text("date,stock,weight\n2020-01-31,A,1.0\n")
    with pytest.raises(SpecMismatch):
        load_universe_csv(path)


@pytest.mark.parametrize("order", [[0, 2, 1, 3], [0, 1, 1, 3]], ids=["swapped", "repeated"])
def test_price_table_rejects_dates_that_do_not_strictly_increase(order):
    """simulate, month_ends and every binary search on the grid assume its
    dates strictly increase, so a swapped pair or a repeated date is a
    typed data error naming the first offending pair."""
    dates = grid("2020-01-06", 4)
    with pytest.raises(GridMismatch, match=f"{dates[order[1]]} is followed by {dates[order[2]]}"):
        PriceTable(dates[order], np.array(["A", "B"], dtype=object), np.zeros((4, 2)))


def test_prices_csv_round_trip_and_gap_detection(tmp_path):
    data, _u, prices, _cfg = small_study(seed=7)
    from rulescreen.synth import write_prices_csv
    path = tmp_path / "prices.csv"
    write_prices_csv(path, data.price_dates, data.price_stock_ids,
                     data.price_returns)
    loaded = load_prices_csv(path)
    assert np.array_equal(loaded.dates, prices.dates)
    assert loaded.stock_ids == list(prices.stock_ids)
    assert loaded.returns.tobytes() == prices.returns.tobytes()

    # drop one row -> incomplete grid
    lines = path.read_text().splitlines()
    (tmp_path / "gappy.csv").write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    with pytest.raises(MissingPriceData):
        load_prices_csv(tmp_path / "gappy.csv")


def test_report_writers_shapes(tmp_path):
    data, universe, prices, cfg = small_study(seed=8)
    reports = run_study(data.panel, data.specs, universe, prices, cfg).reports
    write_levels_csv(tmp_path / "levels.csv",
                     {n: r.series for n, r in reports.items()})
    write_kpis_json(tmp_path / "kpis.json", reports)
    write_calendar_csv(tmp_path / "calendar.csv", reports)

    header = (tmp_path / "levels.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "date"
    assert BENCHMARK in header

    import json
    blob = json.loads((tmp_path / "kpis.json").read_text())
    assert set(blob) == set(reports)
    assert "ann_performance" in blob[BENCHMARK]

    cal = (tmp_path / "calendar.csv").read_text().splitlines()
    assert cal[0].split(",")[0] == "year"
