"""Synthetic market generator: ground truth must be exactly recoverable."""

import gc
import tracemalloc

import numpy as np
import pytest

from rulescreen.backtest import month_ends
from rulescreen.panel import SCORE_LAG_DAYS
from rulescreen.errors import InconsistentSpec
from rulescreen.rules import Condition, Interval
from rulescreen.synth import (
    PlantedRule,
    SynthSpec,
    business_day_grid,
    generate,
    true_modality,
    write_prices_csv,
    write_universe_csv,
)


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


def base_spec(**kw):
    kw.setdefault("n_stocks", 8)
    kw.setdefault("n_dates", 380)
    kw.setdefault("d", 3)
    kw.setdefault("m", 4)
    kw.setdefault("planted", [PlantedRule(C((0, 0, 1)), 0.05)])
    kw.setdefault("noise_sigma", 0.01)
    kw.setdefault("seed", 0)
    kw.setdefault("horizon_days", 21)
    kw.setdefault("sector_feature", 0)
    return SynthSpec(**kw)


def regime_market_spec():
    """The shape of the benchmark's regime markets: 40 stocks x 7 years x
    d=6, with a planted rule that flips sign on 2012-01-03."""
    return base_spec(n_stocks=40, n_dates=1764, d=6, m=5, horizon_days=63, seed=3,
                     planted=[PlantedRule(C((0, 0, 1)), 0.05)],
                     regime_shift=("2012-01-03", [PlantedRule(C((0, 0, 1)), -0.05)]))


def test_business_day_grid_skips_weekends():
    dates = business_day_grid("2020-01-03", 4)
    assert dates.tolist() == [np.datetime64(s) for s in
                              ("2020-01-03", "2020-01-06", "2020-01-07",
                               "2020-01-08")]


def test_month_end_reviews():
    dates = business_day_grid("2020-01-02", 45)
    reviews = month_ends(dates)
    assert np.datetime64("2020-01-31") in reviews
    assert np.datetime64("2020-02-28") in reviews
    # the running month always contributes its latest grid date
    assert reviews[-1] == dates[-1]


def test_true_modality_floor_and_clamp():
    raw = np.array([0.0, 0.19, 0.2, 0.99, 1.0])
    assert true_modality(raw, 5).tolist() == [0, 0, 1, 4, 4]


def test_true_modalities_bin_the_raw_feature_values():
    """Ground truth is the generator's, so it does not follow a column
    recoded in place before its first access."""
    spec = regime_market_spec()
    data = generate(spec)
    raw = np.column_stack(data.panel.columns)
    data.panel.columns[0][:] = 0.0
    assert data.true_modalities.dtype == np.int64
    assert data.true_modalities.shape == (data.panel.n, spec.d)
    np.testing.assert_array_equal(data.true_modalities, true_modality(raw, spec.m))


def test_generate_keeps_no_per_row_ground_truth():
    """What generate leaves allocated beyond the panel, the price grid and
    the universe is less than one (rows x d) int64 matrix: ground truth is
    kept per block, not per panel row."""
    spec = regime_market_spec()
    generate(spec)  # lazy imports and caches stay out of the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = generate(spec)
        for name in ("panel", "price_dates", "price_stock_ids", "price_returns",
                     "review_dates", "universe"):
            setattr(data, name, None)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < spec.n_stocks * spec.n_dates * spec.d * 8


def test_same_seed_reproduces_byte_identical_files(tmp_path):
    a, b = generate(base_spec()), generate(base_spec())
    for name, data in (("a", a), ("b", b)):
        write_universe_csv(tmp_path / f"u_{name}.csv", data.universe)
        write_prices_csv(tmp_path / f"p_{name}.csv", data.price_dates,
                         data.price_stock_ids, data.price_returns)
    assert (tmp_path / "u_a.csv").read_bytes() == (tmp_path / "u_b.csv").read_bytes()
    assert (tmp_path / "p_a.csv").read_bytes() == (tmp_path / "p_b.csv").read_bytes()


def test_different_seeds_differ():
    a = generate(base_spec(seed=0))
    b = generate(base_spec(seed=1))
    assert not np.allclose(a.price_returns, b.price_returns)


def test_labels_exist_exactly_on_complete_windows():
    spec = base_spec()
    data = generate(spec)
    D, H = spec.n_dates, spec.horizon_days
    date_index = {d: i for i, d in enumerate(data.price_dates)}
    for date, y in zip(data.panel.dates, data.panel.y):
        i0 = date_index[date]
        should_have_label = i0 % H == 0 and i0 + H < D
        assert np.isfinite(y) == should_have_label


def test_labels_match_compounded_price_ratios():
    """y is each stock's window return in excess of a shared benchmark leg,
    so cross-stock growth ratios must reproduce label ratios exactly."""
    spec = base_spec(n_stocks=6, n_dates=260, seed=3)
    data = generate(spec)
    H = spec.horizon_days
    rets = data.price_returns
    sid_col = {s: k for k, s in enumerate(data.price_stock_ids)}
    for i0 in (0, H, 2 * H):
        block_date = data.price_dates[i0]
        rows = np.flatnonzero(data.panel.dates == block_date)
        growth = np.prod(1.0 + rets[i0 + 1:i0 + H + 1, :], axis=0)
        ys = {data.panel.stock_ids[r]: data.panel.y[r] for r in rows}
        ref = data.price_stock_ids[0]
        for sid, y in ys.items():
            k = sid_col[sid]
            lhs = growth[k] / growth[sid_col[ref]]
            rhs = (1.0 + y) / (1.0 + ys[ref])
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_window_excess_is_common_across_stocks():
    """Stripping each stock's own label from its window leaves the same
    benchmark leg for everyone."""
    spec = base_spec(n_stocks=4, n_dates=130, seed=5)
    data = generate(spec)
    H = spec.horizon_days
    logs = np.log1p(data.price_returns[1:H + 1, :]).sum(axis=0)
    first_rows = np.flatnonzero(data.panel.dates == data.price_dates[0])
    sid_col = {s: k for k, s in enumerate(data.price_stock_ids)}
    legs = [logs[sid_col[data.panel.stock_ids[r]]] - np.log1p(data.panel.y[r])
            for r in first_rows]
    assert np.ptp(legs) < 2e-12


def test_planted_effect_shows_up_in_labels():
    spec = base_spec(n_stocks=40, n_dates=500, noise_sigma=0.001, seed=7)
    data = generate(spec)
    labeled = np.isfinite(data.panel.y)
    active = data.true_modalities[:, 0] <= 1
    mean_on = data.panel.y[labeled & active].mean()
    mean_off = data.panel.y[labeled & ~active].mean()
    assert mean_on - mean_off == pytest.approx(0.05, abs=0.005)


def test_regime_shift_flips_the_effect():
    pre = [PlantedRule(C((0, 0, 1)), 0.05)]
    post = [PlantedRule(C((0, 0, 1)), -0.05)]
    spec = base_spec(n_stocks=40, n_dates=500, noise_sigma=0.001, seed=9,
                     planted=pre, regime_shift=("2010-09-01", post))
    data = generate(spec)
    shift = np.datetime64("2010-09-01")
    labeled = np.isfinite(data.panel.y)
    active = data.true_modalities[:, 0] <= 1
    pre_rows = labeled & active & (data.panel.dates < shift)
    post_rows = labeled & active & (data.panel.dates >= shift)
    assert pre_rows.any() and post_rows.any()
    assert data.panel.y[pre_rows].mean() == pytest.approx(0.05, abs=0.005)
    assert data.panel.y[post_rows].mean() == pytest.approx(-0.05, abs=0.005)


def test_day_zero_carries_no_return():
    data = generate(base_spec())
    assert np.all(data.price_returns[0, :] == 0.0)


def test_universe_snapshots_sit_score_lag_before_reviews():
    spec = base_spec(n_stocks=10, n_dates=260)
    data = generate(spec)
    lag = SCORE_LAG_DAYS
    date_index = {d: i for i, d in enumerate(data.price_dates)}
    snap_idx = sorted({date_index[r.date] for r in data.universe})
    review_idx = sorted(date_index[r] for r in data.review_dates
                        if date_index[r] >= lag)
    assert [i + lag for i in snap_idx] == review_idx


def test_universe_caps_sum_to_one_per_snapshot():
    data = generate(base_spec(n_stocks=12))
    by_date = {}
    for row in data.universe:
        by_date.setdefault(row.date, []).append(row)
    for rows in by_date.values():
        assert sum(r.cap_weight for r in rows) == pytest.approx(1.0, abs=1e-9)
        assert len({r.stock_id for r in rows}) == len(rows)
        for r in rows:
            assert 0.0 <= r.esg_rating <= 100.0
            assert r.sector.startswith("SEC")
            assert r.peer_group.startswith("PG")


def test_sector_tracks_the_sector_feature_modality():
    spec = base_spec(n_stocks=15, n_dates=260, sector_feature=1)
    data = generate(spec)
    H, m = spec.horizon_days, spec.m
    date_index = {d: i for i, d in enumerate(data.price_dates)}
    row_of = {(d, s): i for i, (d, s) in
              enumerate(zip(data.panel.dates, data.panel.stock_ids))}
    for row in data.universe[:60]:
        di = date_index[row.date]
        block_start_date = data.price_dates[(di // H) * H]
        mod = data.true_modalities[row_of[(block_start_date, row.stock_id)], 1]
        assert row.sector == f"SEC{mod % m}"


def test_invalid_specs_rejected():
    with pytest.raises(InconsistentSpec):
        base_spec(m=1).validate()
    with pytest.raises(InconsistentSpec):
        base_spec(noise_sigma=-0.1).validate()
    with pytest.raises(InconsistentSpec):
        base_spec(horizon_days=0).validate()
    with pytest.raises(InconsistentSpec):
        base_spec(sector_feature=99).validate()
    with pytest.raises(InconsistentSpec):
        base_spec(planted=[PlantedRule(C((0, 0, 9)), 0.05)]).validate()


# Spec fields that would raise deep inside generate, or build a market that
# the spec does not pin.
MALFORMED_SPECS = {
    "seed_negative": {"seed": -1},
    "seed_fraction": {"seed": 1.5},
    "seed_none": {"seed": None},
    "seed_bool": {"seed": True},
    "n_stocks_fraction": {"n_stocks": 2.5},
    "n_dates_float": {"n_dates": 1e9},
    "sector_feature_bool": {"sector_feature": True},
    "start_not_a_date": {"start": "notadate"},
    "start_nat": {"start": "NaT"},
    "shift_date_not_a_date": {"regime_shift": ("bad", [])},
    "noise_sigma_nan": {"noise_sigma": float("nan")},
    "noise_sigma_inf": {"noise_sigma": float("inf")},
    "effect_nan": {"planted": [PlantedRule(C((0, 0, 1)), float("nan"))]},
    "feature_index_fraction": {"planted": [PlantedRule(C((0.5, 0, 1)), 0.05)]},
    "feature_index_negative": {"planted": [PlantedRule(C((-1, 0, 1)), 0.05)]},
    "hi_fraction": {"planted": [PlantedRule(C((0, 0, 1.5)), 0.05)]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_generate_refuses_malformed_specs(case):
    with pytest.raises(InconsistentSpec):
        generate(base_spec(**MALFORMED_SPECS[case]))


def test_numpy_integers_make_the_same_market():
    a = generate(base_spec(seed=4))
    b = generate(base_spec(seed=np.int64(4), n_stocks=np.int32(8), sector_feature=np.uint8(0)))
    np.testing.assert_array_equal(a.price_returns, b.price_returns)


def test_ruinous_planted_effect_rejected():
    with pytest.raises(InconsistentSpec):
        generate(base_spec(planted=[PlantedRule(C((0, 0, 1)), -1.5)]))


def test_shift_date_must_fall_inside_the_grid():
    post = [PlantedRule(C((0, 0, 1)), -0.05)]
    with pytest.raises(InconsistentSpec):
        generate(base_spec(regime_shift=("2031-01-01", post)))
