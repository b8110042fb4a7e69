"""No look-ahead: a study on inputs cut at t, less the labels that resolve
after t, gives every score, learning and level dated up to t of the study on
the whole inputs, bit for bit.

The markets are regime-shift markets of 40 stocks x 7 years x d=6 (one
planted rule flips sign on 2012-01-03), studied with the golden config.
"""

from dataclasses import replace

import numpy as np
import pytest

from rulescreen.backtest import (
    POSITIVE,
    PriceTable,
    UniverseTable,
    learning_step,
    learning_y,
    run_study,
)
from rulescreen.synth import SynthSpec, generate
from test_golden import CFG, POST_RULES, PRE_RULES

SEEDS = (3, 5)
CUTS = ("2013-09-30", "2014-12-31", "2015-06-30")


@pytest.fixture(scope="module")
def markets():
    """Per seed: the market's inputs and its study on the whole of them."""
    out = {}
    for seed in SEEDS:
        data = generate(SynthSpec(
            n_stocks=40, n_dates=7 * 252, d=6, m=5, planted=PRE_RULES,
            regime_shift=("2012-01-03", POST_RULES), noise_sigma=0.02,
            seed=seed, horizon_days=63, sector_feature=0,
        ))
        args = (data.panel, data.specs, UniverseTable.from_rows(data.universe),
                PriceTable(data.price_dates, data.price_stock_ids, data.price_returns))
        out[seed] = args, run_study(*args, CFG)
    return out


def cut_inputs(panel, specs, universe, prices, t):
    """Every input dated after t dropped, and the labels that resolve after
    t blanked."""
    panel = panel.take(panel.dates <= t)
    resolved = np.busday_offset(panel.dates, CFG.horizon_days) <= t
    panel = replace(panel, y=np.where(resolved, panel.y, np.nan))
    keep = prices.dates <= t
    prices = PriceTable(prices.dates[keep], prices.stock_ids, prices.returns[keep])
    universe = UniverseTable({d: s for d, s in universe.snapshots.items() if d <= t})
    return panel, specs, universe, prices


def score_rows(scores, keep=slice(None)):
    """Each kept (date, stock_id, y_hat bits, ternary) row of a score table."""
    return list(zip(scores.dates[keep].tolist(), scores.stock_ids[keep].tolist(),
                    map(float.hex, scores.y_hat[keep].tolist()), scores.ternary[keep].tolist()))


def learning_bytes(rec):
    return (str(rec.date), rec.ruleset.to_json(), rec.epsilon, rec.n_design,
            rec.n_replay, rec.state.eta, rec.state.weights.tobytes())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cut", CUTS)
def test_cut_study_equals_study_up_to_the_cut(markets, seed, cut):
    t = np.datetime64(cut, "D")
    args, full = markets[seed]
    got = run_study(*cut_inputs(*args, t), CFG)

    upto = full.scores.dates <= t
    assert upto.any()
    assert score_rows(got.scores) == score_rows(full.scores, upto)

    before = [learning_bytes(r) for r in full.learnings if r.date <= t]
    assert [learning_bytes(r) for r in got.learnings[:len(before)]] == before
    # a mid-year cut adds one learning, on the cut
    assert [r.date for r in got.learnings[len(before):]] == (
        [] if t in {r.date for r in full.learnings} else [t]
    )

    for name, series in full.series.items():
        upto = series.dates <= t
        assert np.array_equal(got.series[name].dates, series.dates[upto])
        assert got.series[name].values.tobytes() == series.values[upto].tobytes()


def test_mid_year_last_learning_scores_nothing_and_is_the_learn_step(markets):
    """When the data end mid-year, the last learning falls on the last
    trading day. Its segment holds no day, so its frozen study is the
    walk-forward Positive ML leg; and it is the learning `learn` fits on
    every label of the same data."""
    t = np.datetime64("2015-06-30", "D")
    cut = cut_inputs(*markets[3][0], t)
    res = run_study(*cut, CFG)
    last = res.learnings[-1]
    assert (last.date, last.year) == (t, 2015)
    assert res.scores.dates[-1] < t

    frozen = learning_y(*cut, CFG, 2015)
    walk = res.series[POSITIVE]
    assert np.array_equal(frozen.series.dates, walk.dates)
    assert frozen.series.values.tobytes() == walk.values.tobytes()

    panel = cut[0]
    fitted = learning_step(panel.take(np.isfinite(panel.y)), cut[1], CFG, t)
    assert learning_bytes(fitted) == learning_bytes(last)
    assert fitted.discretizer.to_json() == last.discretizer.to_json()
