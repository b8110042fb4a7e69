"""What the benchmark measures: workloads, metrics, bounds and the
layer-to-end-to-end mapping.

`BENCHMARK.json` at the repository root is written from this module by
`python3 perfbench/run.py --write-benchmark-json`, so the file and the code
that fills it cannot drift apart.
"""

RUN_SECONDS = 58

# (name, why). Each workload is a closed loop: one caller in one process runs
# one operation at a time and starts the next only when the last returned.
WORKLOADS = [
    (
        "cli_pipeline",
        "what a user runs: fresh rulescreen processes for learn, score, backtest "
        "and report on one synthetic market, so CSV I/O, imports and manifests dominate",
    ),
    (
        "study_regime",
        "walk-forward and frozen-year studies on small regime-shift markets: many "
        "small learnings, per-row aggregation and date grouping, no CSV",
    ),
]

# (name, unit, better, bound). Every workload reports every metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_norm_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Per-layer metrics of the traced run: (name, unit, better, predicted effect).
# The last field names the end-to-end metric or stage each layer should move
# and on which workload; on the workloads not named the prediction is no
# change.
PER_LAYER = [
    ("synth.generate_s", "s", "lower", "setup_s on both workloads"),
    ("panel.fit_discretizer_s", "s", "lower", "study_s, frozen_s on study_regime; learn_s"),
    ("panel.fit_discretizer_calls", "count", "lower", "study_s, frozen_s on study_regime; learn_s"),
    ("panel.apply_discretizer_s", "s", "lower", "study_s, frozen_s on study_regime; score_s on cli_pipeline"),
    ("panel.apply_discretizer_calls", "count", "lower", "study_s, frozen_s on study_regime; score_s on cli_pipeline"),
    ("panel.apply_rows", "count", "lower", "study_s, frozen_s on study_regime; score_s on cli_pipeline"),
    ("panel.load_rows", "count", "lower", "learn_s, score_s, backtest_s on cli_pipeline"),
    ("rules.activation_mask_s", "s", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rules.activation_mask_calls", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rules.mask_rows", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rules.activation_matrix_calls", "count", "lower", "study_s, frozen_s, backtest_s"),
    ("rules.conditional_mean_calls", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rules.threshold_s", "s", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rules.threshold_calls", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.learn_s", "s", "lower", "frozen_s, study_s on study_regime; learn_s, backtest_s on cli_pipeline"),
    ("rulegen.learn_calls", "count", "lower", "frozen_s, study_s on study_regime; learn_s, backtest_s on cli_pipeline"),
    ("rulegen.level1_s", "s", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.level1_candidates", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.level1_suitable", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.levelc_s", "s", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.levelc_candidates", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.levelc_suitable", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.levelc_yield", "ratio", "higher", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.covering_s", "s", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("rulegen.rules_selected", "count", "lower", "learn_s, backtest_s on cli_pipeline; study_s, frozen_s on study_regime"),
    ("aggregate.update_calls", "count", "lower", "study_s, frozen_s on study_regime; learn_s, backtest_s on cli_pipeline"),
    ("aggregate.predict_many_calls", "count", "lower", "study_s; score_s"),
    ("backtest.learn_per_year", "ratio", "lower", "frozen_s, backtest_s; 1.0 once the study engine learns each year once"),
    ("backtest.fallback_reviews", "count", "lower", "behaviour signal: a speed change must not move it"),
    ("cli.import_s", "s", "lower", "score_s, and every stage on cli_pipeline"),
    ("trace.overhead_s", "s", "lower", "none: traced pass time minus the untraced pass time"),
]

# Layer times that are zero on at least one workload because that workload
# never calls the layer. The traced run prints them with the metrics above,
# but they stay out of BENCHMARK.json's per_layer list, whose every entry
# each workload must report as measured.
PER_LAYER_PARTIAL = [
    ("synth.write_s", "s", "lower", "setup_s on cli_pipeline"),
    ("panel.write_s", "s", "lower", "setup_s on cli_pipeline"),
    ("panel.load_s", "s", "lower", "learn_s, score_s, backtest_s on cli_pipeline"),
    ("rules.activation_matrix_s", "s", "lower", "study_s, frozen_s, backtest_s"),
    ("aggregate.update_s", "s", "lower", "study_s, frozen_s on study_regime; learn_s, backtest_s on cli_pipeline"),
    ("aggregate.predict_many_s", "s", "lower", "study_s; score_s"),
    ("backtest.load_s", "s", "lower", "backtest_s on cli_pipeline"),
    ("backtest.write_s", "s", "lower", "backtest_s on cli_pipeline"),
    ("backtest.run_study_self_s", "s", "lower", "study_s, frozen_s, backtest_s"),
    ("backtest.simulate_s", "s", "lower", "study_s, backtest_s"),
    ("backtest.kpis_s", "s", "lower", "study_s, backtest_s"),
    ("cli.manifest_s", "s", "lower", "every stage on cli_pipeline"),
    ("cli.self_s", "s", "lower", "learn_s, backtest_s on cli_pipeline"),
]


def benchmark_json() -> dict:
    """The BENCHMARK.json document: command, paths, run length, workloads
    and metrics, and nothing else."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
