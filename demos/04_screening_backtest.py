"""Screens and KPIs on a synthetic market with known ground truth.

Builds a market where stocks with high feature 1 outperform and stocks with
low feature 2 underperform, hands the simulator perfect-foresight ternary
scores derived from the generator's own modalities, and compares five
monthly-rebalanced portfolios: cap-weighted benchmark, positive and
negative screens, the sector-matched positive screen, and a 30%
best-in-class screen on ratings that are independent of returns by
construction.

Run: python3 demos/04_screening_backtest.py
"""

from dataclasses import replace

import numpy as np

from rulescreen.backtest import (
    PriceTable,
    UniverseTable,
    best_in_class,
    kpis,
    ml_screen,
    review_plan,
    sector_match,
    simulate,
)
from rulescreen.rules import Condition, Interval
from rulescreen.synth import PlantedRule, SynthSpec, generate


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


spec = SynthSpec(
    n_stocks=30,
    n_dates=6 * 252,
    d=4,
    m=5,
    planted=[
        PlantedRule(C((1, 3, 4)), effect=0.06),
        PlantedRule(C((2, 0, 1)), effect=-0.06),
    ],
    noise_sigma=0.02,
    seed=5,
    horizon_days=63,
    sector_feature=0,
)
data = generate(spec)
prices = PriceTable(data.price_dates, data.price_stock_ids, data.price_returns)

# Perfect-foresight scores straight from the generator's modality table:
# +1 on the outperforming condition, -1 on the underperforming one.
row_of = {
    (d, s): i for i, (d, s) in enumerate(zip(data.panel.dates, data.panel.stock_ids))
}


def oracle_scores(snapshot):
    out = np.zeros(snapshot.n, dtype=np.int64)
    for i, sid in enumerate(snapshot.stock_ids):
        mods = data.true_modalities[row_of[(snapshot.date, sid)]]
        if mods[1] >= 3:
            out[i] = 1
        elif mods[2] <= 1:
            out[i] = -1
    return out


plain = UniverseTable.from_rows(data.universe)
universe = UniverseTable(
    {d: replace(snap, score=oracle_scores(snap)) for d, snap in plain.snapshots.items()}
)

reviews = [r for r in data.review_dates if prices.index_of(r) >= 4]
plan = review_plan(reviews, prices, universe)
strategies = {
    "Benchmark": lambda s: s.cap_weight,
    "Positive screen": lambda s: ml_screen(s, 1),
    "Negative screen": lambda s: ml_screen(s, -1),
    "Positive sector-matched": lambda s: sector_match(ml_screen(s, 1), s),
    "Best-in-class 30%": lambda s: best_in_class(s, 0.30),
}

series = {
    name: simulate(plan, fn, prices, name=name)
    for name, fn in strategies.items()
}
reports = {name: kpis(s, series["Benchmark"], 252.0) for name, s in series.items()}

print(f"{'strategy':26s} {'ann perf':>9s} {'vol':>7s} {'sharpe':>7s} "
      f"{'max dd':>8s} {'IR':>6s} {'alpha':>7s}")
for name, k in reports.items():
    print(
        f"{name:26s} {k.ann_performance:>8.2%} {k.ann_volatility:>6.2%} "
        f"{k.sharpe:>7.2f} {k.max_drawdown:>8.2%} "
        f"{k.information_ratio:>6.2f} {k.ann_alpha:>6.2%}"
    )

years = sorted(reports["Positive screen"].calendar_excess)
print("\ncalendar-year excess vs benchmark:")
print(f"  {'':24s}" + "".join(f"{y:>8d}" for y in years))
for name in ("Positive screen", "Positive sector-matched", "Negative screen",
             "Best-in-class 30%"):
    row = reports[name].calendar_excess
    print(f"  {name:24s}" + "".join(f"{row[y]:>8.1%}" for y in years))

print("\nratings were drawn independently of returns, so best-in-class")
print("hovers near the benchmark while the oracle screens split wide.")
