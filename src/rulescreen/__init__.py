"""Interpretable rule-based stock screening.

Quantile-discretized features feed a suitable-rule search (coverage bounds
plus a significance test on conditional means); the surviving rules form a
covering whose predictions are blended by exponentially-weighted aggregation
with sleeping experts, scored into {-1, 0, +1}, and backtested with monthly
rebalancing against capitalization-weighted and best-in-class benchmarks.

The public API is the submodules: rulescreen.panel, .rules, .rulegen,
.aggregate, .backtest, .synth, .errors and .cli. Importing the package
loads none of them, so a CLI subcommand loads only the modules it runs.
"""

__version__ = "0.1.0"
