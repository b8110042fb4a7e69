"""The full yearly re-learning study, and why re-learning earns its keep.

Seven synthetic years with four planted rules; at the start of 2012 one of
them flips sign (a regime shift). The walk-forward engine re-learns rules
each December on all resolved labels and trades the following year. A
second run freezes the rules learned at end-2012 (the last learning that
still believes the flipped rule) while letting the expert weights keep
updating. The first out-of-sample year matches the walk-forward leg bit
for bit; afterwards the frozen book decays as its stale rule keeps paying
the wrong side.

Run: python3 demos/05_walk_forward_study.py  (about 1 s)
"""

import logging

from rulescreen.backtest import (
    POSITIVE,
    PriceTable,
    UniverseTable,
    WalkForwardConfig,
    learning_y,
    run_study,
)
from rulescreen.rules import Condition, Interval
from rulescreen.synth import PlantedRule, SynthSpec, generate


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


PRE = [
    PlantedRule(C((1, 3, 4)), 0.08),
    PlantedRule(C((2, 0, 1)), -0.08),
    PlantedRule(C((0, 3, 4)), 0.10),
    PlantedRule(C((4, 3, 4)), 0.08),
]
POST = PRE[:3] + [PlantedRule(C((4, 3, 4)), -0.08)]  # the flip

spec = SynthSpec(
    n_stocks=40,
    n_dates=7 * 252,
    d=6,
    m=5,
    planted=PRE,
    regime_shift=("2012-01-03", POST),
    noise_sigma=0.02,
    seed=5,
    horizon_days=63,
    sector_feature=0,
)
cfg = WalkForwardConfig(
    initial_train_years=3,
    learn_fraction=0.75,
    m=5,
    c_max=0.7,
    top_m=20,
    epsilon=0.01,
)

logging.basicConfig(level=logging.ERROR)  # legs log each review they hold the benchmark

data = generate(spec)
universe = UniverseTable.from_rows(data.universe)
prices = PriceTable(data.price_dates, data.price_stock_ids, data.price_returns)

result = run_study(data.panel, data.specs, universe, prices, cfg)
print("walk-forward learnings:")
for rec in result.learnings:
    print(f"  {rec.date}: {rec.ruleset.R} rules from {rec.n_design} design rows")

print(f"\n{'leg':26s} {'ann perf':>9s} {'IR':>6s} {'max dd':>8s}")
for name, rep in result.reports.items():
    k = rep.kpis
    print(f"{name:26s} {k.ann_performance:>8.2%} {k.information_ratio:>6.2f} "
          f"{k.max_drawdown:>8.2%}")

frozen = learning_y(data.panel, data.specs, universe, prices, cfg, 2012)
walk_ex = result.reports[POSITIVE].kpis.calendar_excess
froz_ex = frozen.kpis.calendar_excess

print("\ncalendar-year excess vs benchmark, walk-forward vs frozen 2012 rules:")
print(f"  {'year':>6s} {'walk-forward':>13s} {'frozen 2012':>12s}")
for year in sorted(walk_ex):
    marker = "  <- identical by construction" if year == 2013 else ""
    print(f"  {year:>6d} {walk_ex[year]:>12.1%} {froz_ex[year]:>12.1%}{marker}")
