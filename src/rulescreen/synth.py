"""Deterministic synthetic panel generator with planted rules.

Features are piecewise-constant per stock over blocks of `horizon_days`
business days, drawn uniformly over the modality grid. A label is attached to
each block-start observation whose full forward window fits in the grid:
y = sum of planted effects active at that date + gaussian noise. Daily stock
returns spread log(1+y) evenly across the block on top of a common benchmark
path, so the realized forward excess return over the horizon equals y exactly
while labels stay independent across observations (forward windows never
overlap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import InconsistentSpec, SpecMismatch
from .panel import (
    SCORE_LAG_DAYS,
    FeatureSpec,
    RawPanel,
    float_cells,
    month_ends,
    str_cells,
    write_csv_columns,
)
from .rules import Condition, Interval, activation_mask

DEFAULT_START = "2010-01-04"

# Fixed shape of the generated market: stock i sits in peer group i mod
# _N_PEER_GROUPS, and the common benchmark's daily log return is
# log1p(_BENCH_DRIFT_DAILY + _BENCH_SIGMA_DAILY * N(0, 1)).
_N_PEER_GROUPS = 4
_BENCH_DRIFT_DAILY = 0.0002
_BENCH_SIGMA_DAILY = 0.004


@dataclass(frozen=True)
class PlantedRule:
    """Ground-truth effect: stocks whose true modalities fall inside the
    condition earn `effect` extra forward excess return (a decimal)."""

    condition: Condition
    effect: float


@dataclass
class SynthSpec:
    n_stocks: int
    n_dates: int
    d: int
    m: int
    planted: List[PlantedRule] = field(default_factory=list)
    noise_sigma: float = 0.03
    regime_shift: Optional[Tuple[str, List[PlantedRule]]] = None
    seed: int = 0
    # plumbing knobs
    start: str = DEFAULT_START
    horizon_days: int = 63
    sector_feature: int = 0

    def validate(self) -> None:
        """Raise InconsistentSpec unless the spec names one reproducible
        market: integer counts, a fixed non-negative seed, finite noise and
        effects, and dates that parse, with a grid that ends by 9999-12-31
        (counted, not built: a later date has no four-digit ISO form)."""
        for name in ("n_stocks", "n_dates", "d", "m", "seed", "horizon_days", "sector_feature"):
            value = getattr(self, name)
            if not _is_int(value):
                raise InconsistentSpec(f"{name} must be an integer, got {value!r}")
        if min(self.n_stocks, self.n_dates, self.d, self.m) < 1:
            raise InconsistentSpec("n_stocks, n_dates, d, m must be positive")
        if self.m < 2:
            raise InconsistentSpec("m must be >= 2")
        if self.seed < 0:
            raise InconsistentSpec(f"seed must be >= 0, got {self.seed}")
        if not _is_finite(self.noise_sigma) or self.noise_sigma < 0:
            raise InconsistentSpec(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.horizon_days < 1:
            raise InconsistentSpec("horizon_days must be >= 1")
        _check_day("start", self.start)
        first = np.busday_offset(np.datetime64(self.start, "D"), 0, roll="forward")
        if np.busday_count(first, np.datetime64("10000-01-01")) < self.n_dates:
            raise InconsistentSpec(f"n_dates={self.n_dates} from {self.start} runs past 9999-12-31")
        if self.regime_shift is not None:
            _check_day("regime_shift date", self.regime_shift[0])
        for planted in self._all_planted():
            if not _is_finite(planted.effect):
                raise InconsistentSpec(f"planted effect must be finite, got {planted.effect!r}")
            for iv in planted.condition.intervals:
                if not all(_is_int(v) for v in (iv.feature_index, iv.lo, iv.hi)):
                    raise InconsistentSpec(f"planted interval {iv} must hold integers")
                if not 0 <= iv.feature_index < self.d:
                    raise InconsistentSpec(
                        f"planted condition references feature {iv.feature_index}, d={self.d}"
                    )
                if not 0 <= iv.lo <= iv.hi < self.m:
                    raise InconsistentSpec(
                        f"planted interval [{iv.lo},{iv.hi}] outside modality grid"
                    )
        if not 0 <= self.sector_feature < self.d:
            raise InconsistentSpec(
                f"sector_feature must be an int in [0, d={self.d}), got {self.sector_feature!r}"
            )

    def _all_planted(self) -> List[PlantedRule]:
        out = list(self.planted)
        if self.regime_shift is not None:
            out.extend(self.regime_shift[1])
        return out


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_day(name: str, value) -> None:
    """Raise InconsistentSpec unless value is an ISO date string."""
    try:
        day = np.datetime64(value, "D") if isinstance(value, str) else None
    except ValueError:
        day = None
    if day is None or np.isnat(day):
        raise InconsistentSpec(f"{name} must be an ISO date, got {value!r}")


def parse_synth_spec(blob: Dict) -> SynthSpec:
    """The SynthSpec of a spec file's JSON object, validated; a blob that
    does not make one raises InconsistentSpec."""
    if not isinstance(blob, dict):
        raise InconsistentSpec("a synth spec must be a JSON object")
    known = {f.name for f in fields(SynthSpec)}
    unknown = set(blob) - known
    if unknown:
        raise InconsistentSpec(f"unknown synth spec keys {sorted(unknown)}")

    def parse_rule(entry) -> PlantedRule:
        intervals = tuple(
            Interval(iv["feature_index"], iv["lo"], iv["hi"]) for iv in entry["intervals"]
        )
        return PlantedRule(condition=Condition(intervals), effect=entry["effect"])

    try:
        kwargs = dict(blob, planted=[parse_rule(e) for e in blob.get("planted", [])])
        shift = blob.get("regime_shift")
        if shift is not None:
            kwargs["regime_shift"] = (
                shift["date"],
                [parse_rule(e) for e in shift.get("replacement", [])],
            )
        spec = SynthSpec(**kwargs)
        spec.validate()
    except (KeyError, TypeError, ValueError, AttributeError, SpecMismatch) as exc:
        raise InconsistentSpec(f"bad synth spec: {exc!r}") from None
    return spec


@dataclass
class UniverseRow:
    date: np.datetime64
    stock_id: str
    cap_weight: float
    sector: str
    peer_group: str
    esg_rating: float


@dataclass
class SynthData:
    """Everything the panel and backtest layers consume, plus ground truth."""

    spec: SynthSpec
    specs: List[FeatureSpec]
    panel: RawPanel
    block_modalities: np.ndarray  # (n_stocks, n_blocks, d) true modality per block
    universe: List[UniverseRow]
    price_dates: np.ndarray
    price_stock_ids: List[str]
    price_returns: np.ndarray  # (n_dates, n_stocks) daily total returns
    review_dates: np.ndarray

    @cached_property
    def true_modalities(self) -> np.ndarray:
        """(rows, d) int64 true modalities aligned with panel rows: row
        i * n_stocks + s holds stock s's block modalities on day i. Derived
        from block_modalities on first access, so it never follows edits
        to panel.columns."""
        block_of_day = np.arange(len(self.price_dates)) // self.spec.horizon_days
        mods = self.block_modalities.swapaxes(0, 1)[block_of_day]  # (n_dates, n_stocks, d)
        return mods.reshape(-1, mods.shape[-1])


def business_day_grid(start, n_dates: int) -> np.ndarray:
    start = np.busday_offset(np.datetime64(start, "D"), 0, roll="forward")
    return np.busday_offset(start, np.arange(n_dates))


def true_modality(raw: np.ndarray, m: int) -> np.ndarray:
    """Generator-side binning: uniform [0,1) raw values on an exact grid."""
    return np.minimum((raw * m).astype(np.int64), m - 1)


def generate(spec: SynthSpec) -> SynthData:
    """Build one synthetic dataset; identical spec (including seed) gives
    identical output arrays."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    S, D, H, m = spec.n_stocks, spec.n_dates, spec.horizon_days, spec.m
    dates = business_day_grid(spec.start, D)
    stock_ids = [f"S{i:04d}" for i in range(S)]
    specs = [FeatureSpec(feature_id=f"f{k}") for k in range(spec.d)]

    n_blocks = int(np.ceil(D / H))
    block_starts = np.arange(n_blocks) * H
    # raw features per (stock, block, feature)
    raw_blocks = rng.random((S, n_blocks, spec.d))
    mod_blocks = true_modality(raw_blocks, m)

    shift_date = None
    post_planted: List[PlantedRule] = []
    if spec.regime_shift is not None:
        shift_date = np.datetime64(spec.regime_shift[0], "D")
        post_planted = list(spec.regime_shift[1])
        if not (dates[0] <= shift_date <= dates[-1]):
            raise InconsistentSpec("regime_shift date outside the date grid")

    # Ground-truth effect per (stock, block): planted list chosen by the
    # block-start date relative to the regime shift.
    effects = np.zeros((S, n_blocks), dtype=np.float64)
    for b, i0 in enumerate(block_starts):
        block_date = dates[i0]
        planted = spec.planted
        if shift_date is not None and block_date >= shift_date:
            planted = post_planted
        if planted:
            mods = mod_blocks[:, b, :]
            act = np.stack([activation_mask(p.condition, mods) for p in planted], axis=1)
            effects[:, b] = act @ np.array([p.effect for p in planted])

    noise = rng.normal(0.0, spec.noise_sigma, size=(S, n_blocks))
    y_blocks = effects + noise
    if np.any(y_blocks <= -0.999):
        raise InconsistentSpec(
            "planted effects/noise imply a forward return at or below -100%"
        )

    # Daily returns: common benchmark path plus each stock's block drift.
    bench_log = np.log1p(_BENCH_DRIFT_DAILY + _BENCH_SIGMA_DAILY * rng.standard_normal(D))
    block_of_day = np.minimum(np.arange(D) // H, n_blocks - 1)
    # Day i's return belongs to the window opened at its block start: the
    # window of block b covers days (i0, i0+H], i.e. block days shifted by one.
    window_of_day = np.minimum((np.arange(D) - 1) // H, n_blocks - 1)
    window_of_day[0] = 0
    drift_log = np.log1p(y_blocks) / H  # (S, n_blocks)
    daily_log = bench_log[None, :] + drift_log[:, window_of_day]
    returns = np.expm1(daily_log)
    returns[:, 0] = 0.0  # base date carries no return
    price_returns = returns.T.copy()  # (n_dates, n_stocks)

    # Panel rows: every (date, stock); y only on complete block starts.
    labeled_blocks = block_starts[block_starts + H < D]
    rows_dates = np.repeat(dates, S)
    rows_stocks = np.tile(np.array(stock_ids, dtype=object), D)
    # One (D, S) allocation per feature column, read date-major.
    columns = [raw_blocks[:, :, k].T[block_of_day].reshape(-1) for k in range(spec.d)]
    y_rows = np.full(D * S, np.nan, dtype=np.float64)
    labeled_set = set(int(i) for i in labeled_blocks)
    for b, i0 in enumerate(block_starts):
        if int(i0) in labeled_set:
            y_rows[i0 * S : i0 * S + S] = y_blocks[:, b]
    panel = RawPanel(dates=rows_dates, stock_ids=rows_stocks, columns=columns, y=y_rows)

    # Universe snapshots live at score dates: SCORE_LAG_DAYS grid days
    # before each month-end review, which is where the backtester looks.
    review_dates = month_ends(dates)
    base_caps = rng.uniform(0.5, 1.5, size=S)
    base_caps = base_caps / base_caps.sum()
    universe: List[UniverseRow] = []
    date_index = {d: i for i, d in enumerate(dates)}
    for review in review_dates:
        di = date_index[review] - SCORE_LAG_DAYS
        if di < 0:
            continue
        rd = dates[di]
        b = int(block_of_day[di])
        ratings = rng.uniform(0.0, 100.0, size=S)
        for si, sid in enumerate(stock_ids):
            sec_code = int(mod_blocks[si, b, spec.sector_feature])
            universe.append(
                UniverseRow(
                    date=rd,
                    stock_id=sid,
                    cap_weight=float(base_caps[si]),
                    sector=f"SEC{sec_code}",
                    peer_group=f"PG{si % _N_PEER_GROUPS}",
                    esg_rating=float(ratings[si]),
                )
            )

    return SynthData(
        spec=spec,
        specs=specs,
        panel=panel,
        block_modalities=mod_blocks,
        universe=universe,
        price_dates=dates,
        price_stock_ids=stock_ids,
        price_returns=price_returns,
        review_dates=review_dates,
    )


def write_universe_csv(path, universe: List[UniverseRow]) -> None:
    write_csv_columns(
        path,
        ["date", "stock_id", "cap_weight", "sector", "peer_group", "esg_rating"],
        (np.array([row.date for row in universe], dtype="datetime64[D]"), str_cells),
        ([row.stock_id for row in universe], str_cells),
        ([row.cap_weight for row in universe], float_cells),
        ([row.sector for row in universe], str_cells),
        ([row.peer_group for row in universe], str_cells),
        ([row.esg_rating for row in universe], float_cells),
    )


def write_prices_csv(path, dates, stock_ids, returns) -> None:
    """One record per (date, stock) cell of the returns grid, date-major."""
    write_csv_columns(
        path,
        ["date", "stock_id", "total_return_daily"],
        (np.repeat(dates, len(stock_ids)), str_cells),
        (np.tile(np.array(stock_ids, dtype=object), len(dates)), str_cells),
        (np.asarray(returns).ravel(), float_cells),
    )
