"""The traced benchmark (perfbench/tracing.py) wraps library functions at the
names their callers bind. Each of those names must exist, and removing the
tracer must give each name its original object back."""

import importlib
import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(owner_name, attr):
    """The object at a binding, read as Tracer.install reads it."""
    module_name, _, member = owner_name.partition(".")
    owner = importlib.import_module(f"rulescreen.{module_name}")
    if member:
        owner = getattr(owner, member)
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_wraps_every_binding_and_restores_it():
    tracing = load_tracing()
    bindings = [binding for _, names in tracing.BINDINGS for binding in names]
    originals = {binding: bound(*binding) for binding in bindings}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for binding in bindings:
            assert bound(*binding) is not originals[binding], binding
    finally:
        tracer.uninstall()
    for binding in bindings:
        assert bound(*binding) is originals[binding], binding


# The spans that a cli binding records, by the stage that records them.
STAGE_SPANS = {
    "learn": {
        "panel.load", "panel.fit_discretizer", "panel.apply_discretizer",
        "rulegen.learn", "aggregate.update", "aggregate.predict_many", "cli.manifest",
    },
    "score": {"panel.load", "panel.apply_discretizer", "aggregate.predict_many", "cli.manifest"},
    "backtest": {
        "panel.load", "panel.fit_discretizer", "panel.apply_discretizer", "rulegen.learn",
        "aggregate.update", "aggregate.predict_many", "backtest.load", "backtest.run_study",
        "backtest.learning_y", "backtest.write", "cli.manifest",
    },
    "report": set(),
}


def planted_market(tmp_path):
    """A 12-stock synthetic market with one planted rule, and a config that
    names its files: (data directory, config path)."""
    from rulescreen import cli

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_stocks": 12, "n_dates": 1008, "d": 3, "m": 3, "seed": 11,
        "planted": [{"intervals": [{"feature_index": 0, "lo": 0, "hi": 0}], "effect": 0.06}],
    }))
    data = tmp_path / "data"
    assert cli.run(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\ninitial_train_years = 3\n" + "".join(
        f"{key} = {data / (key + '.csv')}\n"
        for key in ("features", "returns", "universe", "prices")
    ))
    return data, cfg


def test_tracer_sees_every_stage_call(tmp_path):
    """Each stage run through cli.run calls the library at the names the
    tracer wraps, so a stage that called around a cli binding would lose
    its spans here."""
    from rulescreen import cli

    data, cfg = planted_market(tmp_path)
    learned = tmp_path / "learn"
    stages = {
        "learn": ["--panel", data / "features.csv", "--returns", data / "returns.csv",
                  "--config", cfg, "--out", learned / "rules.json"],
        "score": ["--rules", learned / "rules.json", "--state", learned / "state.json",
                  "--discretizer", learned / "discretizer.json",
                  "--panel", data / "features.csv", "--asof", "2013-09-30",
                  "--out", tmp_path / "scores.csv"],
        "backtest": ["--config", cfg, "--out", tmp_path / "bt"],
        "report": ["--dir", tmp_path / "bt", "--out", tmp_path / "report.md"],
    }
    named = set().union(*STAGE_SPANS.values())
    tracer = load_tracing().Tracer()
    recorded = {}
    try:
        tracer.install()
        for stage, argv in stages.items():
            first = len(tracer.spans)
            assert cli.run([stage, *map(str, argv)]) == 0, stage
            recorded[stage] = {span[1] for span in tracer.spans[first:]} & named
    finally:
        tracer.uninstall()
    assert recorded == STAGE_SPANS


# The spans of the rule search that a traced learn records, each at least once.
SEARCH_SPANS = {
    "rulegen.level1", "rulegen.levelc", "rulegen.covering", "rules.threshold",
    "rules.conditional_mean",
}


def test_traced_learn_records_every_search_layer(tmp_path):
    """A traced `learn` on the planted market calls each rule-search layer
    at the name the tracer wraps, so a search that called around a binding
    would zero that layer's metrics here."""
    from rulescreen import cli

    data, cfg = planted_market(tmp_path)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert cli.run([
            "learn", "--panel", str(data / "features.csv"),
            "--returns", str(data / "returns.csv"), "--config", str(cfg),
            "--out", str(tmp_path / "learn" / "rules.json"),
        ]) == 0
    finally:
        tracer.uninstall()
    counts = {name: sum(span[1] == name for span in tracer.spans) for name in SEARCH_SPANS}
    assert all(counts.values()), counts
    assert counts["rules.conditional_mean"] == 1
