"""Monthly-rebalanced screening portfolios and the walk-forward study engine.

The simulator is deliberately simple: portfolios rebalance to target weights at
month-end review closes and buy-and-hold in between, so intra-month weights
drift with prices. Review targets are computed from the universe snapshot dated
SCORE_LAG_DAYS trading days before the review (the data a manager would have
had when deciding).
"""

from __future__ import annotations

import copy
import functools
import json
import logging
import math
import pickle
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .aggregate import (
    AggregationState,
    default_eta,
    init_state,
    predict_many,
    score_many,
    update,
)
from .csvio import InputCsv
from .errors import (
    EmptyAfterFilter,
    GridMismatch,
    InsufficientHistory,
    MissingPriceData,
    NoPopulatedSector,
    SpecMismatch,
    UnknownLearningYear,
)
from .panel import (
    DiscretizedPanel,
    Discretizer,
    FeatureSpec,
    RawPanel,
    SCORE_LAG_DAYS,
    apply_discretizer,
    fit_discretizer,
    float_cells,
    key_ordered,
    month_ends,
    parsed,
    record_keys,
    str_cells,
    to_dates,
    to_floats,
    to_strings,
    write_csv_columns,
)
from .rulegen import LearnReport, learn
from .rules import RuleSet, SearchParams

logger = logging.getLogger(__name__)

WEIGHT_TOL = 1e-9

# Daily levels are on a business-day grid (labels resolve with
# np.busday_offset), so KPIs annualize over 252 periods.
PERIODS_PER_YEAR = 252.0

# The best-in-class leg drops the lowest BIC_X of each peer group's ratings;
# its name is built from the same value, so the two cannot disagree.
BIC_X = 0.30

BENCHMARK = "Benchmark"
POSITIVE = "Positive ML"
POSITIVE_SM = "Positive Sector-Matched"
NEGATIVE = "Negative ML"
BEST_IN_CLASS = f"Best-in-class {BIC_X:.0%}"


# ---------------------------------------------------------------------------
# market data containers


@dataclass(frozen=True)
class UniverseSnapshot:
    """Investable universe on one date: caps, sectors, peer groups, ratings
    and (once the scorer has run) ternary ML scores per stock."""

    date: np.datetime64
    stock_ids: np.ndarray
    cap_weight: np.ndarray
    sector: np.ndarray
    peer_group: np.ndarray
    esg_rating: np.ndarray
    score: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(set(self.stock_ids)) != len(self.stock_ids):
            raise SpecMismatch(f"duplicate stock_id in snapshot {self.date}")
        caps, ratings = self.cap_weight, self.esg_rating
        bad = np.flatnonzero(~(np.isfinite(caps) & (caps >= 0.0) & np.isfinite(ratings)))
        if len(bad):
            i = bad[0]
            raise SpecMismatch(
                f"{self.stock_ids[i]} at {self.date} has cap weight {float(caps[i])!r} and "
                f"ESG rating {float(ratings[i])!r}; both must be finite, the weight >= 0"
            )
        total = float(caps.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise SpecMismatch(
                f"cap weights at {self.date} sum to {total!r}, expected 1"
            )

    @property
    def n(self) -> int:
        return len(self.stock_ids)

    def read_only(self, score: Optional[np.ndarray] = None) -> "UniverseSnapshot":
        """This snapshot with read-only views of its arrays, and `score` in
        place of its own when given. The arrays passed __post_init__ when
        this snapshot was built, so the copy does not check them again."""
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        if score is not None:
            arrays["score"] = score
        view = object.__new__(UniverseSnapshot)
        view.__dict__.update({
            name: a if name == "date" or a is None else _read_only(a)
            for name, a in arrays.items()
        })
        return view


class UniverseTable:
    """All universe snapshots of a study, keyed by snapshot date."""

    def __init__(self, snapshots: Dict[np.datetime64, UniverseSnapshot]):
        self.snapshots = dict(snapshots)
        self.dates = np.array(sorted(self.snapshots), dtype="datetime64[D]")

    def at(self, date) -> UniverseSnapshot:
        key = np.datetime64(date, "D")
        try:
            return self.snapshots[key]
        except KeyError:
            raise SpecMismatch(f"no universe snapshot dated {key}") from None

    @classmethod
    def from_columns(
        cls, dates, stock_ids, cap_weight, sector, peer_group, esg_rating
    ) -> "UniverseTable":
        """One snapshot per distinct date, its stocks in row order (the
        stock_id order of record_keys when load_universe_csv calls it)."""
        return cls({
            date: UniverseSnapshot(
                date, stock_ids[ix], cap_weight[ix], sector[ix], peer_group[ix], esg_rating[ix]
            )
            for date, ix in _rows_by_key(dates).items()
        })

    @classmethod
    def from_rows(cls, rows) -> "UniverseTable":
        dtypes = {"date": "datetime64[D]", "stock_id": object, "cap_weight": np.float64,
                  "sector": object, "peer_group": object, "esg_rating": np.float64}
        return cls.from_columns(*(
            np.array([getattr(r, name) for r in rows], dtype=dtype)
            for name, dtype in dtypes.items()
        ))


@dataclass
class PriceTable:
    """Daily total returns on a complete (date x stock) grid, dates strictly
    ascending. A return is at least -1: a stock can lose all its value and
    no more."""

    dates: np.ndarray
    stock_ids: List[str]
    returns: np.ndarray  # shape (n_dates, n_stocks)

    def __post_init__(self):
        if self.returns.shape != (len(self.dates), len(self.stock_ids)):
            raise MissingPriceData(
                f"return grid {self.returns.shape} does not match "
                f"{len(self.dates)} dates x {len(self.stock_ids)} stocks"
            )
        missing = np.argwhere(~np.isfinite(self.returns))
        if len(missing):
            i, j = missing[0]
            raise MissingPriceData(
                f"missing return for {self.stock_ids[j]} on {self.dates[i]} "
                f"({len(missing)} gaps total)"
            )
        below = np.argwhere(self.returns < -1.0)
        if len(below):
            i, j = below[0]
            raise SpecMismatch(
                f"return {float(self.returns[i, j])!r} for {self.stock_ids[j]} on "
                f"{self.dates[i]} is below -1 ({len(below)} such returns total)"
            )
        rises = self.dates[1:] > self.dates[:-1]
        if not rises.all():
            i = int(np.argmin(rises))
            raise GridMismatch(f"price dates must strictly increase: "
                               f"{self.dates[i]} is followed by {self.dates[i + 1]}")
        self.date_index = {d: i for i, d in enumerate(self.dates)}
        self.col = {sid: j for j, sid in enumerate(self.stock_ids)}

    @property
    def n(self) -> int:
        return len(self.dates)

    def index_of(self, date) -> int:
        key = np.datetime64(date, "D")
        try:
            return self.date_index[key]
        except KeyError:
            raise MissingPriceData(f"no prices on {key}") from None

    def columns_of(self, stock_ids) -> np.ndarray:
        """Return-grid column of each stock id, in one mapped lookup."""
        try:
            return np.fromiter(map(self.col.__getitem__, stock_ids), np.intp, len(stock_ids))
        except KeyError as exc:
            raise MissingPriceData(f"no prices for {exc.args[0]}") from None


# ---------------------------------------------------------------------------
# portfolio series and KPIs


@dataclass
class PortfolioSeries:
    name: str
    dates: np.ndarray
    values: np.ndarray
    weights_history: List[Tuple[np.datetime64, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )

    def __post_init__(self):
        if len(self.values) and abs(float(self.values[0]) - 100.0) > 1e-9:
            raise SpecMismatch("portfolio level series must start at 100")


@dataclass
class KpiReport:
    ann_performance: float
    ann_volatility: float
    sharpe: float
    max_drawdown: float
    information_ratio: float
    ann_alpha: float
    calendar_excess: Dict[int, float]

    def as_dict(self) -> Dict[str, float]:
        """Every KPI but the calendar-year excesses."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "calendar_excess"}


@dataclass
class BacktestReport:
    name: str
    series: PortfolioSeries
    kpis: KpiReport


# ---------------------------------------------------------------------------
# screens


def best_in_class(snapshot: UniverseSnapshot, x: float) -> np.ndarray:
    """Drop, within each peer group, the stocks in the lowest x-quantile of
    ESG ratings; keep survivors at their cap proportions, renormalized to 1.

    A stock survives iff the fraction of its peer group rated at or below it
    exceeds x, so x = 0 removes nothing and 10 distinct ratings with x = 0.3
    lose exactly three names.
    """
    if not 0.0 <= x < 1.0:
        raise SpecMismatch(f"quantile threshold must lie in [0,1), got {x}")
    keep = np.zeros(snapshot.n, dtype=bool)
    for group in np.unique(snapshot.peer_group):
        idx = np.flatnonzero(snapshot.peer_group == group)
        ratings = snapshot.esg_rating[idx]
        order = np.sort(ratings)
        ecdf = np.searchsorted(order, ratings, side="right") / len(ratings)
        keep[idx] = ecdf > x
    if not keep.any():
        raise EmptyAfterFilter(f"best-in-class x={x} removed every stock")
    weights = np.where(keep, snapshot.cap_weight, 0.0)
    return weights / weights.sum()


def ml_screen(snapshot: UniverseSnapshot, sign: int) -> np.ndarray:
    """Keep the stocks whose ternary score equals `sign` (+1 or -1) at their
    cap proportions, renormalized to 1. Unscored stocks count as 0."""
    if sign not in (1, -1):
        raise SpecMismatch(f"screen sign must be +1 or -1, got {sign}")
    keep = np.zeros(snapshot.n, dtype=bool) if snapshot.score is None else snapshot.score == sign
    if not keep.any():
        raise EmptyAfterFilter(f"no stock scored {sign:+d} on {snapshot.date}")
    weights = np.where(keep, snapshot.cap_weight, 0.0)
    return weights / weights.sum()


def sector_match(weights: np.ndarray, snapshot: UniverseSnapshot) -> np.ndarray:
    """Rescale selected weights so each sector's total matches the benchmark's
    sector mass. Sectors with no selected stock have their benchmark mass
    redistributed pro-rata over the populated ones."""
    selected = weights > 0.0
    if not selected.any():
        raise NoPopulatedSector("selection is empty")
    populated = np.unique(snapshot.sector[selected])
    bench_mass = {
        str(s): float(snapshot.cap_weight[snapshot.sector == s].sum())
        for s in populated
    }
    denom = sum(bench_mass.values())
    if denom <= 0.0:
        raise NoPopulatedSector("selected sectors carry no benchmark mass")
    out = np.zeros_like(weights)
    for s in populated:
        mass = bench_mass[str(s)]
        if mass <= 0.0:
            raise NoPopulatedSector(f"sector {s} has zero benchmark mass")
        in_sector = selected & (snapshot.sector == s)
        sector_sum = weights[in_sector].sum()
        out[in_sector] = weights[in_sector] * (mass / denom / sector_sum)
    return out


# ---------------------------------------------------------------------------
# simulation


class ReviewPlan(NamedTuple):
    """The reviews of a simulation, resolved once so that every strategy leg
    on them shares the work: the distinct review dates in order, the
    price-grid row of each, the snapshot dated score_lag_days rows earlier
    (read-only, so no leg's weights_fn can change what another leg sees) and
    the return-grid column of each of its stocks."""

    reviews: List[np.datetime64]
    rows: List[int]
    snapshots: List[UniverseSnapshot]
    columns: List[np.ndarray]


def _read_only(a):
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def review_plan(
    review_schedule: Sequence[np.datetime64],
    prices: PriceTable,
    universe: UniverseTable,
    score_lag_days: int = SCORE_LAG_DAYS,
    scores: Optional[Scores] = None,
) -> ReviewPlan:
    """Resolve a review schedule against the prices and the universe. With
    `scores`, each snapshot carries the ternary score of each of its stocks
    from its date's rows of the table: 0 for a stock with no row there, the
    later row's for a stock with two."""
    reviews = list(np.unique(np.array(review_schedule, dtype="datetime64[D]")))
    if not reviews:
        raise SpecMismatch("empty review schedule")
    rows = []
    for r in reviews:
        i = prices.index_of(r)
        if i - score_lag_days < 0:
            raise MissingPriceData(
                f"review {r} has no data {score_lag_days} trading days earlier"
            )
        rows.append(i)
    snap_days = prices.dates[np.array(rows) - score_lag_days]
    if scores is not None:
        starts = np.searchsorted(scores.dates, snap_days).tolist()
        stops = np.searchsorted(scores.dates, snap_days, side="right").tolist()
        ids, ternary = scores.stock_ids.tolist(), scores.ternary.tolist()
    snapshots, columns = [], []
    for k, day in enumerate(snap_days):
        snap = universe.at(day)
        score = None
        if scores is not None:
            by_id = dict(zip(ids[starts[k] : stops[k]], ternary[starts[k] : stops[k]]))
            score = np.array([by_id.get(sid, 0) for sid in snap.stock_ids], np.int64)
        snapshots.append(snap.read_only(score))
        columns.append(prices.columns_of(snap.stock_ids))
    return ReviewPlan(reviews, rows, snapshots, columns)


def simulate(
    plan: ReviewPlan,
    weights_fn: Callable[[UniverseSnapshot], np.ndarray],
    prices: PriceTable,
    name: str = "portfolio",
) -> PortfolioSeries:
    """Run one strategy on a plan that review_plan resolved on these prices:
    at each review close, rebalance to the weights that weights_fn assigns to
    the review's read-only snapshot; hold between reviews. The level series
    starts at 100 on the first review. Legs on the same reviews share a plan."""
    i0 = plan.rows[0]
    # Row k starts as 1 + r on day i0 + k; a rebalance writes the holdings
    # into its review's row and a hold grows them in place through the rows.
    grid = 1.0 + prices.returns[i0:]
    values = np.empty(len(grid), dtype=np.float64)
    values[0] = 100.0
    history = []

    def rebalance(k: int, level: float) -> np.ndarray:
        """Holdings worth `level` in review k's row, at the weights of its
        snapshot; returns the row."""
        snap = plan.snapshots[k]
        w = np.asarray(weights_fn(snap), dtype=np.float64)
        if w.shape != (snap.n,):
            raise SpecMismatch("weights_fn returned a vector of the wrong length")
        if np.any(w < -WEIGHT_TOL) or abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise SpecMismatch("weights must be non-negative and sum to 1")
        h = grid[plan.rows[k] - i0]
        h[:] = 0.0
        h[plan.columns[k]] = level * w
        history.append((plan.reviews[k], snap.stock_ids, w))
        return h

    def hold(t: int, stop: int) -> np.ndarray:
        """Buy and hold the holdings in row t from the close of day t to the
        close of day stop: h * (1 + r[t+1]) * (1 + r[t+2]) ... multiplied in
        day order, in place, each day's level its row sum. Returns the
        holdings at stop."""
        block = grid[t - i0 : stop + 1 - i0]
        np.multiply.accumulate(block, axis=0, out=block)
        values[t + 1 - i0 : stop + 1 - i0] = block[1:].sum(axis=1)
        return block[-1]

    rebalance(0, 100.0)
    t = i0
    for k in range(1, len(plan.rows)):
        stop = plan.rows[k]
        grown = hold(t, stop)
        values[stop - i0] = rebalance(k, float(grown.sum())).sum()
        t = stop
    if t + 1 < prices.n:
        hold(t, prices.n - 1)
    return PortfolioSeries(
        name=name,
        dates=prices.dates[i0:],
        values=values,
        weights_history=history,
    )


def kpis(
    series: PortfolioSeries,
    benchmark_series: PortfolioSeries,
    periods_per_year: float,
) -> KpiReport:
    """Standard report card for a level series against its benchmark."""
    if len(series.dates) != len(benchmark_series.dates) or np.any(
        series.dates != benchmark_series.dates
    ):
        raise GridMismatch("series and benchmark are on different date grids")
    v, b = series.values, benchmark_series.values
    r = v[1:] / v[:-1] - 1.0
    rb = b[1:] / b[:-1] - 1.0
    n = len(r)
    ppy = float(periods_per_year)

    ann_perf = float((v[-1] / v[0]) ** (ppy / n) - 1.0) if n >= 1 else 0.0
    ann_vol = float(np.std(r, ddof=1) * math.sqrt(ppy)) if n >= 2 else 0.0
    sharpe = ann_perf / ann_vol if ann_vol > 0.0 else 0.0
    max_dd = float(np.min(v / np.maximum.accumulate(v) - 1.0))

    excess = r - rb
    te = float(np.std(excess, ddof=1) * math.sqrt(ppy)) if n >= 2 else 0.0
    ir = float(np.mean(excess) * ppy / te) if te > 0.0 else 0.0

    if n >= 1:
        var_b = float(np.sum((rb - rb.mean()) ** 2))
        beta = (
            float(np.sum((rb - rb.mean()) * (r - r.mean())) / var_b)
            if var_b > 0.0
            else 0.0
        )
        alpha = float(r.mean() - beta * rb.mean()) * ppy
    else:
        alpha = 0.0

    calendar: Dict[int, float] = {}
    if n >= 1:
        years = series.dates[1:].astype("datetime64[Y]").astype(int) + 1970
        for year in np.unique(years):
            in_year = years == year
            strat = float(np.prod(1.0 + r[in_year]) - 1.0)
            bench = float(np.prod(1.0 + rb[in_year]) - 1.0)
            calendar[int(year)] = strat - bench

    return KpiReport(
        ann_performance=ann_perf,
        ann_volatility=ann_vol,
        sharpe=sharpe,
        max_drawdown=max_dd,
        information_ratio=ir,
        ann_alpha=alpha,
        calendar_excess=calendar,
    )


# ---------------------------------------------------------------------------
# walk-forward study


# The trading days from 0001-01-01 to 9999-12-31, the dates with a
# four-digit ISO form: no label resolves after a longer horizon, and a far
# longer one wraps np.busday_offset round to dates before year 0.
MAX_HORIZON_DAYS = int(np.busday_count("0001-01-01", "10000-01-01"))

# The range of each study field that SearchParams does not check. The
# comparisons are written so that nan fails them, and inf fails those that
# need a finite value.
_RANGES = {
    "m": (lambda v: v >= 2, ">= 2"),
    "eta": (lambda v: v is None or 0.0 <= v < math.inf, "finite and >= 0, or auto"),
    "epsilon": (lambda v: v is None or 0.0 <= v < math.inf, "finite and >= 0, or auto"),
    "learn_fraction": (lambda v: 0.0 < v < 1.0, "in (0,1)"),
    "horizon_days": (lambda v: 1 <= v <= MAX_HORIZON_DAYS, f"in [1, {MAX_HORIZON_DAYS}]"),
    "initial_train_years": (lambda v: v >= 1, ">= 1"),
}


@dataclass(frozen=True)
class WalkForwardConfig:
    """Every knob of a study: the rule search (see search_params), the
    aggregation and the study layout. Each range is checked when the config
    is built; a value out of range raises SpecMismatch naming the field. The
    config is frozen, so the ranges hold for its whole life."""

    m: int = 10
    alpha: float = 0.05
    c_min: float = 0.05
    c_max: float = 0.5
    cp_max: int = 2
    top_m: int = 50
    z_kind: str = "gaussian"
    eta: Optional[float] = None  # None = auto
    epsilon: Optional[float] = None  # None = auto
    learn_fraction: float = 0.25
    horizon_days: int = 63
    initial_train_years: int = 3
    workers: int = 1  # no effect; kept so callers that pass workers=1 still run

    def __post_init__(self):
        self.search_params()  # SearchParams checks the rule-search fields
        for name, (ok, wanted) in _RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise SpecMismatch(f"{name} must be {wanted}, got {value!r}")

    def search_params(self) -> SearchParams:
        return SearchParams(
            alpha=self.alpha,
            c_min=self.c_min,
            c_max=self.c_max,
            cp_max=self.cp_max,
            M=self.top_m,
            z_kind=self.z_kind,
        )


@dataclass
class LearningRecord:
    """One learning: the discretizer and rules fitted at `date`, and the
    aggregation state after replaying the post-design labels."""

    date: np.datetime64
    year: int
    ruleset: RuleSet
    epsilon: float
    report: LearnReport
    n_design: int
    n_replay: int
    discretizer: Discretizer
    state: AggregationState


class Scores(NamedTuple):
    """A study's scores as the columns of scores.csv: one row per scored
    panel row, in (date, stock_id) order."""

    dates: np.ndarray
    stock_ids: np.ndarray
    y_hat: np.ndarray
    ternary: np.ndarray


@dataclass
class StudyResult:
    reports: Dict[str, BacktestReport]
    series: Dict[str, PortfolioSeries]
    learnings: List[LearningRecord]
    scores: Scores
    reviews: np.ndarray


def _rows_by_key(keys: np.ndarray) -> Dict[object, np.ndarray]:
    """Row indices of each distinct key, ascending within a key."""
    order = np.argsort(keys, kind="stable")
    distinct, starts = np.unique(keys[order], return_index=True)
    return dict(zip(distinct, np.split(order, starts[1:])))


def replay_state(
    ruleset: RuleSet, replay: DiscretizedPanel, cfg: WalkForwardConfig
) -> AggregationState:
    """Uniform weights over the ruleset, updated by every replay row in order
    (one block update). This is the one place eta is chosen: cfg.eta, or else
    the fixed-horizon exponential-weights rate sqrt(8 ln R / T) with T the
    number of replay rows, which is known at the learning date. With
    cfg.epsilon None, the dead zone is the standard deviation of the replayed
    rows' predictions under the final weights."""
    eta = cfg.eta if cfg.eta is not None else default_eta(ruleset.R, max(1, replay.n))
    state = init_state(ruleset.R, eta)
    A = ruleset.activation_matrix(replay.x)
    state = update(state, ruleset, replay.y, A)
    epsilon = cfg.epsilon
    if epsilon is None:
        epsilon = float(np.std(predict_many(state, ruleset, replay.x, activation=A)))
    return replace(state, epsilon=epsilon)


def learning_step(
    raw: RawPanel,
    specs: Sequence[FeatureSpec],
    cfg: WalkForwardConfig,
    learned_at: np.datetime64,
) -> LearningRecord:
    """Fit the discretizer and rules on the first learn_fraction of the
    labeled rows (in (date, stock_id) order), at least one and at most all
    but one, and replay the rest through the weight update. The caller
    checks that raw has at least 2 rows."""
    discretizer = fit_discretizer(raw, specs, cfg.m)
    codes = apply_discretizer(raw, discretizer)
    n_design = max(1, min(codes.n - 1, int(math.floor(cfg.learn_fraction * codes.n))))
    design, replay = codes.take(slice(0, n_design)), codes.take(slice(n_design, None))
    ruleset, report = learn(design, cfg.search_params(), learned_at)
    state = replay_state(ruleset, replay, cfg)
    return LearningRecord(
        date=learned_at,
        year=_year(learned_at),
        ruleset=ruleset,
        epsilon=state.epsilon,
        report=report,
        n_design=design.n,
        n_replay=replay.n,
        discretizer=discretizer,
        state=state,
    )


def _year(date: np.datetime64) -> int:
    return int(date.astype("datetime64[Y]").astype(int)) + 1970


def learning_dates(grid: np.ndarray, initial_train_years: int) -> List[np.datetime64]:
    """A study's learning dates on the trading-day grid: the last trading
    day of each calendar year, from the year that completes
    `initial_train_years` on."""
    if not len(grid):
        raise MissingPriceData("the prices hold no trading day")
    first_year = _year(grid[0]) + initial_train_years - 1
    last_year = _year(grid[-1])
    if first_year > last_year:
        raise InsufficientHistory(
            f"need {initial_train_years} training years; data covers "
            f"{_year(grid[0])}..{last_year}"
        )
    years = grid.astype("datetime64[Y]").astype(int) + 1970
    out = []
    for year in range(first_year, last_year + 1):
        in_year = np.flatnonzero(years == year)
        if len(in_year):
            out.append(grid[in_year[-1]])
    return out


class _Entry(NamedTuple):
    """Learning k of a study, the scores of walk-forward segment k (the days
    in (L_k, L_k+1], the last one the days in (L_k, end of data]) and the
    aggregation state at the end of that segment."""

    learning: LearningRecord
    scores: Scores
    end_state: AggregationState


@dataclass(frozen=True)
class _Schedule:
    """The engine of one study and its entries for a prefix of its learning
    dates L_0 < L_1 < ..., in learning order."""

    engine: "_Engine"
    entries: Tuple[_Entry, ...]


# The schedule of the last study, replaced whole (never changed in place).
_last_schedule: Optional[_Schedule] = None


def _study_arrays(raw_panel: RawPanel, grid: np.ndarray) -> List[np.ndarray]:
    return [raw_panel.dates, raw_panel.stock_ids, *raw_panel.columns, raw_panel.y, grid]


def _settings(specs: Sequence[FeatureSpec], cfg: WalkForwardConfig) -> bytes:
    return pickle.dumps((list(specs), [(f.name, getattr(cfg, f.name)) for f in fields(cfg)]))


class _Engine:
    """One study's own copies of everything its learnings and out-of-sample
    segments read: the panel's arrays, the feature specs and the trading-day
    grid. Numeric arrays are copied; an object array's copy shares its
    (immutable) elements, and is pickled once so that same_inputs can tell a
    changed element type or value. The specs are kept as a tuple of the
    (frozen) FeatureSpecs, and the config, frozen too, as it is. Learnings
    and segments take rows in the panel's (date, stock_id) order."""

    def __init__(self, raw_panel, specs, grid, cfg, score_rows):
        self.raw_panel = RawPanel(
            dates=raw_panel.dates.copy(),
            stock_ids=raw_panel.stock_ids.copy(),
            columns=[c.copy() for c in raw_panel.columns],
            y=raw_panel.y.copy(),
        )
        self.grid = grid.copy()
        self.specs, self.cfg = tuple(specs), cfg
        self._settings = _settings(specs, cfg)
        self._pickles = [
            pickle.dumps(a) if a.dtype == object else None
            for a in _study_arrays(self.raw_panel, self.grid)
        ]
        self.score_rows = np.sort(np.asarray(score_rows, dtype=np.intp))
        self.labeled = np.isfinite(self.raw_panel.y)
        self.resolution = np.busday_offset(self.raw_panel.dates, self.cfg.horizon_days)
        # As day numbers (busday_offset took the dates as datetime64[D]),
        # which np.isin matches through a lookup table.
        score_days = self.grid[self.score_rows].astype("datetime64[D]")
        self.on_score_day = np.isin(self.raw_panel.dates.view(np.int64), score_days.view(np.int64))

    def same_inputs(
        self,
        raw_panel: RawPanel,
        specs: Sequence[FeatureSpec],
        grid: np.ndarray,
        cfg: WalkForwardConfig,
    ) -> bool:
        """Whether a study on these inputs would read what this engine's
        copies held when they were made: every numeric array equal in dtype,
        shape and bytes (so NaN payloads and -0.0 count), every object array
        pickling to the same bytes (so 1 and 1.0 differ), and the specs and
        every config field pickling alike."""
        if _settings(specs, cfg) != self._settings:
            return False
        theirs = _study_arrays(raw_panel, grid)
        ours = _study_arrays(self.raw_panel, self.grid)
        if len(theirs) != len(ours):
            return False
        for a, own, pickled in zip(theirs, ours, self._pickles):
            a = np.asarray(a)
            if a.dtype != own.dtype or a.shape != own.shape:
                return False
            if pickled is not None:
                if pickle.dumps(a) != pickled:
                    return False
            elif not np.array_equal(np.ascontiguousarray(a).view(np.uint8), own.view(np.uint8)):
                return False
        return True

    def learning(self, L: np.datetime64) -> LearningRecord:
        """Refit the discretizer and rules at the close of L on every
        observation whose outcome has resolved, then reset the weights to
        uniform and replay the post-design labels."""
        in_learning = self.labeled & (self.resolution <= L)
        if not in_learning.any():
            raise InsufficientHistory(f"no resolved labels at learning {L}")
        raw_learn = self.raw_panel.take(np.flatnonzero(in_learning))
        if raw_learn.n < 2:
            raise InsufficientHistory(f"learning set at {L} has {raw_learn.n} rows")
        return learning_step(raw_learn, self.specs, self.cfg, L)

    def segment(
        self,
        step: LearningRecord,
        state: AggregationState,
        L: np.datetime64,
        next_L: Optional[np.datetime64],
    ) -> Tuple[Scores, AggregationState]:
        """Out of sample from the close of L to the close of next_L (or the
        end of data) under one learning's discretizer and rules, starting
        from `state`: the labels that resolve in the segment update the
        weights at the first close on or after the day they resolve (a label
        resolving on a market holiday counts at the next trading day), and
        every score day in it is scored with the weights of its close.
        Returns the scores and the state at the segment's end.

        The discretizer, rules and dead zone are fixed within a segment, so
        its rows (the pending labels and every panel row of its score days)
        are discretized and activated once, into one panel in (date,
        stock_id) order, and the label updates, the predictions and the
        Scores rows all read that panel; only the predictions run per day."""
        raw_panel, grid, ruleset = self.raw_panel, self.grid, step.ruleset
        end = grid[-1] if next_L is None else next_L
        pending = self.labeled & (self.resolution > L) & (self.resolution <= end)
        scored = self.on_score_day & (raw_panel.dates > L) & (raw_panel.dates <= end)
        rows = np.flatnonzero(pending | scored)
        panel = apply_discretizer(raw_panel.take(rows), step.discretizer)
        A = ruleset.activation_matrix(panel.x)
        # Grid day t gets the labels resolving in (grid[t-1], grid[t]]: one
        # that resolves on a day without prices (a market holiday) updates
        # the weights at the next close. Other rows get day -1, never reached.
        due = np.searchsorted(grid, self.resolution[rows])
        due_at = _rows_by_key(np.where(pending[rows], due, -1))

        t_start, t_stop = (np.searchsorted(grid, [L, end]) + 1).tolist()
        score_t = self.score_rows[(self.score_rows >= t_start) & (self.score_rows < t_stop)]
        # The panel holds every row of a score day, in date order, so the
        # day's rows are one slice of it.
        days = grid[score_t]
        lo, hi = np.searchsorted(panel.dates, days), np.searchsorted(panel.dates, days, "right")
        empty = np.flatnonzero(hi == lo)
        if len(empty):
            raise SpecMismatch(f"no panel rows to score on {days[empty[0]]}")
        rows_at = dict(zip(score_t.tolist(), map(slice, lo.tolist(), hi.tolist())))

        y_hat = np.empty(panel.n, dtype=np.float64)
        for t in range(t_start, t_stop):
            todo = due_at.get(t)
            if todo is not None:
                state = update(state, ruleset, panel.y[todo], A[todo])
            at = rows_at.get(t)
            if at is not None:
                y_hat[at] = predict_many(state, ruleset, panel.x[at], activation=A[at])
        on = scored[rows]
        y_hat = y_hat[on]
        ternary = score_many(y_hat, state.epsilon)
        return Scores(panel.dates[on], panel.stock_ids[on], y_hat, ternary), state


def _scored_study(
    raw_panel: RawPanel,
    specs: Sequence[FeatureSpec],
    universe: UniverseTable,
    prices: PriceTable,
    cfg: WalkForwardConfig,
    freeze_year: Optional[int],
) -> Tuple[List[LearningRecord], Scores, np.ndarray, ReviewPlan]:
    """Learnings, scores, review dates and scored review plan of one study.

    A walk-forward study (freeze_year None) computes every schedule entry
    and replaces the memo with them. A frozen study takes the entries up to
    the freeze_year learning, and the engine that computed them, from the
    memo when the engine's copies match its inputs (_Engine.same_inputs) and
    appends the missing ones with the same walk-forward bounds. Unless that
    learning is the last, it then scores one tail, from the next learning
    date to the end of data, starting from the state the freeze_year
    segment ended in.
    """
    global _last_schedule
    grid = prices.dates
    learn_dates = learning_dates(grid, cfg.initial_train_years)
    n_learn = len(learn_dates)
    if freeze_year is not None:
        if freeze_year not in {_year(L) for L in learn_dates}:
            raise UnknownLearningYear(
                f"{freeze_year} is not a completed learning year"
            )
        n_learn = sum(1 for L in learn_dates if _year(L) <= freeze_year)
    first_learning = learn_dates[0]

    reviews, score_rows = [], []
    for r in month_ends(grid):
        i = prices.index_of(r) - SCORE_LAG_DAYS
        if i >= 0 and grid[i] >= first_learning:
            reviews.append(r)
            score_rows.append(i)
    if not reviews:
        raise InsufficientHistory("no out-of-sample review after the first learning")
    review_arr = np.array(reviews, dtype="datetime64[D]")

    memo = _last_schedule
    if (
        freeze_year is not None
        and memo is not None
        and memo.engine.same_inputs(raw_panel, specs, grid, cfg)
    ):
        engine, entries = memo.engine, list(memo.entries)
    else:
        # Let go of the last study's copies before this one makes its own.
        _last_schedule = memo = None
        engine, entries = _Engine(raw_panel, specs, grid, cfg, score_rows), []
    n_read = len(entries)
    for k in range(n_read, n_learn):
        L = learn_dates[k]
        next_L = learn_dates[k + 1] if k + 1 < len(learn_dates) else None
        learning = engine.learning(L)
        entries.append(_Entry(learning, *engine.segment(learning, learning.state, L, next_L)))
    if len(entries) != n_read:
        _last_schedule = _Schedule(engine, tuple(entries))

    parts = [entry.scores for entry in entries[:n_learn]]
    if n_learn < len(learn_dates):
        # The frozen tail: learning n_learn - 1 kept from the next learning
        # date on, its weights continuing from where its segment ended.
        last = entries[n_learn - 1]
        parts.append(engine.segment(last.learning, last.end_state, learn_dates[n_learn], None)[0])
    scores = Scores(*map(np.concatenate, zip(*parts)))

    plan = review_plan(reviews, prices, universe, scores=scores)
    return [e.learning for e in entries[:n_learn]], scores, review_arr, plan


def _leg_weights() -> Dict[str, Callable[[UniverseSnapshot], np.ndarray]]:
    """Target weights of each strategy leg; the screened legs hold the
    benchmark (with a WARNING) on a review where their screen is empty."""

    def benchmark_fn(snap: UniverseSnapshot) -> np.ndarray:
        return snap.cap_weight / snap.cap_weight.sum()

    def fallback(fn: Callable[[UniverseSnapshot], np.ndarray], label: str):
        def wrapped(snap: UniverseSnapshot) -> np.ndarray:
            try:
                return fn(snap)
            except (EmptyAfterFilter, NoPopulatedSector) as exc:
                logger.warning("%s on %s: %s; holding benchmark", label, snap.date, exc)
                return benchmark_fn(snap)

        return wrapped

    def positive_fn(snap: UniverseSnapshot) -> np.ndarray:
        return ml_screen(snap, 1)

    def positive_sm_fn(snap: UniverseSnapshot) -> np.ndarray:
        return sector_match(ml_screen(snap, 1), snap)

    def negative_fn(snap: UniverseSnapshot) -> np.ndarray:
        return ml_screen(snap, -1)

    def bic_fn(snap: UniverseSnapshot) -> np.ndarray:
        return best_in_class(snap, BIC_X)

    return {
        BENCHMARK: benchmark_fn,
        POSITIVE: fallback(positive_fn, POSITIVE),
        POSITIVE_SM: fallback(positive_sm_fn, POSITIVE_SM),
        NEGATIVE: fallback(negative_fn, NEGATIVE),
        BEST_IN_CLASS: fallback(bic_fn, BEST_IN_CLASS),
    }


def run_study(
    raw_panel: RawPanel,
    specs: Sequence[FeatureSpec],
    universe: UniverseTable,
    prices: PriceTable,
    cfg: WalkForwardConfig,
    freeze_year: Optional[int] = None,
) -> StudyResult:
    """The walk-forward study, and the engine behind learning_y.

    Learnings happen at the last trading day of each calendar year, starting
    once `initial_train_years` are available. Each learning is one
    learning_step, the one `rulescreen learn` runs: it refits the
    discretizer and rules on every observation whose outcome has resolved,
    resets aggregation weights to uniform and replays the post-design labels
    (eta as replay_state picks it), then updates daily out of sample as
    labels resolve. With freeze_year set, re-learning stops after that
    year's learning; weight updates continue. Every strategy leg is
    simulated.

    Each segment between learnings discretizes its pending labels and its
    score days' panel rows once, into one panel in (date, stock_id) order
    that its updates, predictions and Scores rows read (see
    _Engine.segment). Each review is resolved once per study into
    one ReviewPlan (price-grid row, scored read-only snapshot, return-grid
    columns) that every leg shares; each leg's weights_fn and weight checks
    still run at every review.

    Nothing dated after t moves a score, learning or level dated up to t:
    the inputs cut at t, less the labels that resolve after t, give the same
    values up to t. When the data end mid-year, the last learning falls on
    the last trading day. It scores no day, so its frozen study is the
    walk-forward Positive ML leg; its rules, weights and dead zone are the
    ones `learn` fits on the same files.

    A study is a schedule with one entry per learning date L_k: the
    learning, the scores of walk-forward segment k (the days in
    (L_k, L_k+1], the last segment running to the end of data) and the
    aggregation state at the segment's end. A frozen study is the
    walk-forward schedule up to the freeze_year learning plus one tail that
    keeps that learning from L_k+1 to the end of data, its weights going on
    from the stored end state; the labels resolving in (L_k, L_k+1] are the
    same rows in the same order either way, so no day is scored twice.

    The schedule of the last study is kept in a one-entry memo with the
    study's engine, which holds its own copies of the panel, spec list and
    trading-day grid, and the frozen config (not the universe or the
    returns, which the schedule does not depend on). A walk-forward study
    never reads the memo: it drops it, computes every entry on a new engine
    and replaces the memo. A frozen study reuses the memo's engine and its entries up to
    freeze_year when _Engine.same_inputs finds its inputs equal to the
    engine's copies (byte for byte; object arrays by their pickles), and
    computes only the rest, so its result is bit-identical to a cold run.
    On a mismatch it drops the memo before it copies the inputs, so at most
    one engine's copies are alive. The returned learnings and score columns
    are copies the memo does not share.
    """
    learnings, scores, reviews, plan = _scored_study(
        raw_panel, specs, universe, prices, cfg, freeze_year
    )
    series = {
        name: simulate(plan, fn, prices, name)
        for name, fn in _leg_weights().items()
    }
    bench = series[BENCHMARK]
    reports = {
        name: BacktestReport(
            name=name, series=s, kpis=kpis(s, bench, PERIODS_PER_YEAR)
        )
        for name, s in series.items()
    }
    return StudyResult(
        reports=reports,
        series=series,
        learnings=copy.deepcopy(learnings),
        scores=scores,
        reviews=reviews,
    )


def learning_y(
    raw_panel: RawPanel,
    specs: Sequence[FeatureSpec],
    universe: UniverseTable,
    prices: PriceTable,
    cfg: WalkForwardConfig,
    Y: int,
) -> BacktestReport:
    """Positive-screen backtest with rules frozen at the year-Y learning.

    Aggregation weights keep updating daily, so the first year out of sample
    is the walk-forward Positive ML leg bit for bit; afterwards the static
    rules stop adapting.

    This is run_study's frozen study: after a walk-forward study on the same
    inputs it learns nothing and scores only the days after the learning
    date that follows year Y, none when Y is the last learning year (see
    run_study's schedule). It simulates only the Positive ML leg and the
    benchmark its KPIs are measured against, on one shared review plan.
    """
    _, _, _, plan = _scored_study(
        raw_panel, specs, universe, prices, cfg, freeze_year=Y
    )
    legs = _leg_weights()
    name = f"Learning {Y}"
    bench = simulate(plan, legs[BENCHMARK], prices, BENCHMARK)
    series = simulate(plan, legs[POSITIVE], prices, name)
    return BacktestReport(
        name=name, series=series, kpis=kpis(series, bench, PERIODS_PER_YEAR)
    )


# ---------------------------------------------------------------------------
# CSV / JSON loaders and writers


def load_universe_csv(path) -> UniverseTable:
    """The snapshots of universe.csv, each listing its stocks in stock_id
    order (the record_keys order), whatever the file's record order."""
    need = {"date", "stock_id", "cap_weight", "sector", "peer_group", "esg_rating"}
    source = InputCsv(path, need.issubset, f"universe csv must have columns {sorted(need)}")

    at = source.index
    columns = parsed(
        source,
        "universe",
        [
            (at["date"], to_dates),
            (at["stock_id"], to_strings),
            (at["cap_weight"], to_floats),
            (at["sector"], to_strings),
            (at["peer_group"], to_strings),
            (at["esg_rating"], to_floats),
        ],
        functools.partial(key_ordered, path),
    )
    if not len(columns[0]):
        raise SpecMismatch("universe csv is empty")
    return UniverseTable.from_columns(*columns)


def load_prices_csv(path) -> PriceTable:
    """The return grid of prices.csv on its record_keys grid: dates ascending,
    stocks in stock_id order, whatever the file's record order."""
    need = {"date", "stock_id", "total_return_daily"}
    source = InputCsv(path, need.issubset, f"prices csv must have columns {sorted(need)}")

    def gridded(arrays, lines):
        if not lines:
            raise MissingPriceData("prices csv is empty")
        grid_dates, row, ids, col = record_keys(path, lines, arrays[0], arrays[1])
        grid = np.full((len(grid_dates), len(ids)), np.nan, dtype=np.float64)
        grid[row, col] = arrays[2]
        return [grid_dates, ids, grid]

    at = source.index
    dates, stock_ids, grid = parsed(
        source,
        "prices",
        [(at["date"], to_dates), (at["stock_id"], to_strings), (at["total_return_daily"], to_floats)],
        gridded,
    )
    return PriceTable(dates=dates, stock_ids=stock_ids.tolist(), returns=grid)


def write_levels_csv(path, series_map: Dict[str, PortfolioSeries]) -> None:
    names = list(series_map)
    first = series_map[names[0]]
    for name in names[1:]:
        if np.any(series_map[name].dates != first.dates):
            raise GridMismatch("level series must share one date grid")
    write_csv_columns(
        path,
        ["date"] + names,
        (first.dates, str_cells),
        *[(series_map[name].values, float_cells) for name in names],
    )


def write_kpis_json(path, reports: Dict[str, BacktestReport]) -> None:
    blob = {name: rep.kpis.as_dict() for name, rep in reports.items()}
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_calendar_csv(path, reports: Dict[str, BacktestReport]) -> None:
    names = list(reports)
    years = sorted({y for rep in reports.values() for y in rep.kpis.calendar_excess})
    write_csv_columns(
        path,
        ["year"] + names,
        (years, str_cells),
        *[
            ([reports[name].kpis.calendar_excess.get(year, 0.0) for year in years], float_cells)
            for name in names
        ],
    )


def write_learning_y_csv(
    path,
    walk_positive: PortfolioSeries,
    benchmark: PortfolioSeries,
    frozen: Sequence[PortfolioSeries],
) -> None:
    """Relative-to-benchmark levels (base 100) of the adaptive positive screen
    next to each frozen-rules variant."""
    cols = [walk_positive] + list(frozen)
    for s in cols:
        if np.any(s.dates != benchmark.dates):
            raise GridMismatch("learning-y series must share the benchmark grid")
    write_csv_columns(
        path,
        ["date"] + [s.name for s in cols],
        (benchmark.dates, str_cells),
        *[
            (100.0 * s.values / benchmark.values / (s.values[0] / benchmark.values[0]), float_cells)
            for s in cols
        ],
    )
