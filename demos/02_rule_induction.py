"""Recovering a planted If-Then rule from a noisy labeled panel.

Generates a synthetic market in which stocks with low feature 0 AND high
feature 1 outperform by 9% a quarter, discretizes the raw features, runs
the suitability-filtered search, and prints what came out: the candidate
funnel per complexity level, the designed rules, and the covering check.

Run: python3 demos/02_rule_induction.py
"""

import numpy as np

from rulescreen.panel import RawPanel, apply_discretizer, fit_discretizer
from rulescreen.rulegen import learn
from rulescreen.rules import Condition, Interval, SearchParams, describe
from rulescreen.synth import PlantedRule, SynthSpec, generate

PLANTED = Condition((Interval(0, 0, 1), Interval(1, 3, 4)))

spec = SynthSpec(
    n_stocks=200,
    n_dates=130,
    d=8,
    m=5,
    planted=[PlantedRule(PLANTED, effect=0.09)],
    noise_sigma=0.03,
    seed=42,
    horizon_days=5,
    sector_feature=0,
)
data = generate(spec)

keep = np.isfinite(data.panel.y)
raw = RawPanel(
    dates=data.panel.dates[keep],
    stock_ids=data.panel.stock_ids[keep],
    columns=[c[keep] for c in data.panel.columns],
    y=data.panel.y[keep],
)
print(f"labeled learning set: {raw.n} rows, {spec.d} features")

disc = fit_discretizer(raw, data.specs, m=5)
codes = apply_discretizer(raw, disc)

params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=2, M=30)
ruleset, report = learn(codes, params, learned_at=codes.dates[-1])

print("\nsearch funnel:")
for row in report.levels:
    print(
        f"  complexity {row.complexity}: {row.candidates} candidates, "
        f"{row.suitable} suitable"
    )
if report.default_rule_appended:
    print("  (default full-space rule appended to complete the covering)")

print(f"\ndesigned rules ({ruleset.R}):")
feature_ids = [s.feature_id for s in data.specs]
for rule in ruleset.rules:
    print("  " + describe(rule, feature_ids))

hit = any(r.condition == PLANTED for r in ruleset.rules)
print(f"\nplanted condition f0 in [0,1] AND f1 in [3,4] recovered: {hit}")

covered = ruleset.activation_matrix(codes.x).any(axis=1).all()
print(f"every learning row activates at least one rule: {covered}")
