"""Command line round trips: config parsing, exit codes, and the full
synth -> learn -> score -> backtest -> report pipeline."""

import csv
import gc
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rulescreen
from rulescreen import cli, synth
from rulescreen.backtest import (
    WalkForwardConfig,
    load_prices_csv,
    load_universe_csv,
    month_ends,
    run_study,
)
from rulescreen.cli import (
    RunConfig,
    default_config_text,
    parse_config,
    parse_synth_spec,
    run,
)
from rulescreen.errors import ConfigError, InconsistentSpec, SpecMismatch
from rulescreen.panel import (
    CACHE_DIR,
    SCORE_LAG_DAYS,
    attach_returns,
    load_features_csv,
    load_returns_csv,
)
from rulescreen.synth import business_day_grid


# ---------------------------------------------------------------------------
# config file parsing


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_parse_config_defaults_when_no_file():
    assert parse_config(None) == RunConfig()


def test_parse_config_reads_values_and_ignores_comments(tmp_path):
    path = write_cfg(tmp_path, """
# rule search knobs
m = 5          # modalities
alpha = 0.10

cp_max = 3
eta = auto
epsilon = 0.02
learning_years = 2012,2013
""")
    cfg = parse_config(path)
    assert cfg.study.m == 5
    assert cfg.study.alpha == 0.10
    assert cfg.study.cp_max == 3
    assert cfg.study.eta is None
    assert cfg.study.epsilon == 0.02
    assert cfg.learning_years == "2012,2013"


def test_parse_config_checks_ranges_on_the_final_values(tmp_path):
    """c_min = 0.6 alone is above the default c_max = 0.5; the file is
    valid because the config is built once, after its last line."""
    cfg = parse_config(write_cfg(tmp_path, "c_min = 0.6\nc_max = 0.9\n"))
    assert (cfg.study.c_min, cfg.study.c_max) == (0.6, 0.9)


def test_parse_config_unknown_key_is_named(tmp_path):
    path = write_cfg(tmp_path, "m = 5\nbogus_knob = 1\n")
    with pytest.raises(ConfigError, match="bogus_knob"):
        parse_config(path)


def test_parse_config_reports_line_number(tmp_path):
    path = write_cfg(tmp_path, "m = 5\n\nnot a key value pair\n")
    with pytest.raises(ConfigError, match=":3:"):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = write_cfg(tmp_path, "m = five\n")
    with pytest.raises(ConfigError, match="five"):
        parse_config(path)


# Study values out of range, as (config key, value). Each is rejected both
# by parse_config, as a config line, and by WalkForwardConfig, as the value
# of the field the key sets.
STUDY_OUT_OF_RANGE = [
    ("horizon_days", 0),
    ("learn_fraction", 1.0),
    ("learn_fraction", 0.0),
    ("c_max", 2),
    ("m", 1),
    ("alpha", 1.5),
    ("cp_max", 0),
    ("M", 0),
    ("z_kind", "student"),
    ("eta", -1),
    ("eta", float("nan")),
    ("eta", float("inf")),
    ("epsilon", -1),
    ("epsilon", float("inf")),
    ("initial_train_years", 0),
]
STUDY_FIELD = {"M": "top_m"}


@pytest.mark.parametrize("line", [f"{key} = {value}" for key, value in STUDY_OUT_OF_RANGE] + [
    "worker_count = 0",
    "learning_years = twenty12",
    "learning_years = 2013,2013",
    "end_date = 2013-13-01",
    "start_date = 2013-01-02\nend_date = 2013-01-01",
])
def test_parse_config_rejects_out_of_range(tmp_path, line):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, line + "\n"))


@pytest.mark.parametrize("key,value", STUDY_OUT_OF_RANGE)
def test_walk_forward_config_rejects_out_of_range(key, value):
    """A library caller gets the config file's range checks."""
    with pytest.raises(SpecMismatch):
        WalkForwardConfig(**{STUDY_FIELD.get(key, key): value})


def test_default_config_text_round_trips(tmp_path):
    path = write_cfg(tmp_path, default_config_text())
    assert parse_config(path) == RunConfig()


# ---------------------------------------------------------------------------
# synth spec JSON


def test_parse_synth_spec_round_trip():
    blob = {
        "n_stocks": 5,
        "n_dates": 100,
        "d": 2,
        "m": 3,
        "planted": [
            {"intervals": [{"feature_index": 0, "lo": 0, "hi": 1}],
             "effect": 0.04},
        ],
        "regime_shift": {
            "date": "2010-06-01",
            "replacement": [
                {"intervals": [{"feature_index": 0, "lo": 0, "hi": 1}],
                 "effect": -0.04},
            ],
        },
        "seed": 3,
    }
    spec = parse_synth_spec(blob)
    assert spec.n_stocks == 5
    assert spec.planted[0].effect == 0.04
    assert spec.planted[0].condition.intervals[0].hi == 1
    assert spec.regime_shift[0] == "2010-06-01"
    assert spec.regime_shift[1][0].effect == -0.04


def test_parse_synth_spec_rejects_unknown_keys():
    """A misspelt key, and each key the spec no longer has (its value is
    fixed by the generator), is named in the error."""
    for key in ("n_stonks", "n_sectors", "n_peer_groups", "snapshot_lag_days",
                "bench_drift_daily", "bench_sigma_daily"):
        with pytest.raises(InconsistentSpec, match=key):
            parse_synth_spec({key: 5, "n_stocks": 5, "n_dates": 10, "d": 1, "m": 2})


@pytest.mark.parametrize("value", [None, -1, 3])
def test_parse_synth_spec_rejects_sector_feature_outside_the_features(value):
    """sector_feature names one of the d features: null, -1 (which would
    index the last feature) and d itself are rejected."""
    with pytest.raises(InconsistentSpec, match="sector_feature"):
        parse_synth_spec({"n_stocks": 5, "n_dates": 10, "d": 3, "m": 2, "sector_feature": value})


def test_parse_synth_spec_names_missing_interval_key():
    blob = {
        "n_stocks": 5,
        "n_dates": 100,
        "d": 2,
        "m": 3,
        "planted": [
            {"intervals": [{"feature_id": 0, "lo": 0, "hi": 1}], "effect": 0.04},
        ],
    }
    with pytest.raises(InconsistentSpec, match="feature_index"):
        parse_synth_spec(blob)


# ---------------------------------------------------------------------------
# exit codes


def test_print_config_exits_zero(capsys):
    assert run(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert "m = 10" in out
    assert "eta = auto" in out


def test_print_config_prints_every_key_once(capsys):
    """The config surface: --print-config prints exactly these keys, in
    this order; a key added or removed changes this list."""
    assert run(["--print-config"]) == 0
    keys = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == [
        "m", "alpha", "c_min", "c_max", "cp_max", "M", "z_kind", "eta",
        "epsilon", "learn_fraction", "horizon_days", "initial_train_years",
        "start_date", "end_date", "learning_years",
        "features", "returns", "universe", "prices", "worker_count",
    ]


@pytest.mark.parametrize("line", [
    "seed = 0", "loss_kind = squared", "loss_clip = 1.0", "best_in_class_x = 0.3",
    "score_lag_days = 4", "periods_per_year = 252",
])
def test_deleted_config_keys_exit_one_as_unknown(tmp_path, caplog, line):
    cfg = write_cfg(tmp_path, line + "\n")
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    key = line.split(" = ")[0]
    assert f"ConfigError: {cfg}:1: unknown config key {key!r}" in caplog.text


def test_no_subcommand_exits_one():
    assert run([]) == 1


def test_unknown_subcommand_exits_one():
    assert run(["frobnicate"]) == 1


def test_bad_config_key_exits_one(tmp_path, caplog):
    cfg = write_cfg(tmp_path, "bogus_knob = 1\nfeatures = x\n")
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bogus_knob" in caplog.text


def test_missing_input_file_exits_two(tmp_path):
    code = run([
        "learn",
        "--panel", str(tmp_path / "nope.csv"),
        "--returns", str(tmp_path / "nope2.csv"),
        "--out", str(tmp_path / "rules.json"),
    ])
    assert code == 2
    assert run(["report", "--dir", str(tmp_path)]) == 2


def test_backtest_missing_prices_exits_two(tmp_path, caplog):
    for name in ("features", "returns", "universe"):
        (tmp_path / f"{name}.csv").write_text("stub\n")
    cfg = write_cfg(tmp_path, "\n".join(
        f"{k} = {tmp_path / (k + '.csv')}"
        for k in ("features", "returns", "universe", "prices")
    ) + "\n")
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "prices" in caplog.text


def test_print_config_runs_under_cprofile():
    src = str(Path(rulescreen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "cProfile", "-m", "rulescreen.cli", "--print-config"],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert default_config_text() in proc.stdout


# ---------------------------------------------------------------------------
# full pipeline


SPEC_BLOB = {
    "n_stocks": 12,
    "n_dates": 1008,
    "d": 3,
    "m": 3,
    "planted": [
        {"intervals": [{"feature_index": 0, "lo": 0, "hi": 0}], "effect": 0.06},
        {"intervals": [{"feature_index": 1, "lo": 2, "hi": 2}], "effect": -0.06},
    ],
    "noise_sigma": 0.02,
    "seed": 11,
    "horizon_days": 63,
    "sector_feature": 0,
}

CFG_TEXT = """
m = 3
alpha = 0.05
c_min = 0.05
c_max = 0.7
cp_max = 2
M = 20
learn_fraction = 0.75
horizon_days = 63
initial_train_years = 3
worker_count = 1
"""


SYNTH_FILES = {"features.csv", "returns.csv", "universe.csv", "prices.csv", "manifest.json"}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once into a shared directory tree."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC_BLOB))
    assert run(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    # synth writes its five files and no parse cache
    assert {p.name for p in data.iterdir()} == SYNTH_FILES

    cfg_path = root / "run.cfg"
    lines = [CFG_TEXT]
    for key in ("features", "returns", "universe", "prices"):
        lines.append(f"{key} = {data / (key + '.csv')}")
    cfg_path.write_text("\n".join(lines) + "\n")

    learn_dir = root / "learn"
    assert run([
        "learn",
        "--panel", str(data / "features.csv"),
        "--returns", str(data / "returns.csv"),
        "--config", str(cfg_path),
        "--out", str(learn_dir / "rules.json"),
    ]) == 0

    asof = str(business_day_grid("2010-01-04", SPEC_BLOB["n_dates"])[-1])
    scores_path = root / "scores" / "scores.csv"
    assert run([
        "score",
        "--rules", str(learn_dir / "rules.json"),
        "--state", str(learn_dir / "state.json"),
        "--discretizer", str(learn_dir / "discretizer.json"),
        "--panel", str(data / "features.csv"),
        "--asof", asof,
        "--out", str(scores_path),
    ]) == 0

    bt_dir = root / "bt"
    assert run(["backtest", "--config", str(cfg_path), "--out", str(bt_dir)]) == 0

    report_path = root / "report.md"
    assert run(["report", "--dir", str(bt_dir), "--out", str(report_path)]) == 0

    return {
        "root": root, "data": data, "cfg": cfg_path, "learn": learn_dir,
        "scores": scores_path, "bt": bt_dir, "report": report_path,
        "asof": asof,
    }


def test_synth_writes_all_inputs(pipeline):
    names = {p.name for p in pipeline["data"].iterdir() if p.name != CACHE_DIR}
    assert names == SYNTH_FILES


def test_learn_writes_sibling_artifacts(pipeline):
    names = {p.name for p in pipeline["learn"].iterdir()}
    assert names == {"rules.json", "learn-report.csv", "discretizer.json",
                     "state.json", "manifest.json"}
    rules = json.loads((pipeline["learn"] / "rules.json").read_text())
    assert rules and all("prediction" in entry for entry in rules)
    state = json.loads((pipeline["learn"] / "state.json").read_text())
    assert len(state["weights"]) == len(rules)


def test_manifest_hashes_inputs(pipeline):
    blob = json.loads((pipeline["learn"] / "manifest.json").read_text())
    assert blob["subcommand"] == "learn"
    assert blob["config"]["m"] == 3
    # every --print-config key, spelled as in the file, with None as "auto"
    assert sorted(blob["config"]) == sorted(
        line.split(" = ")[0] for line in default_config_text().splitlines())
    assert len(blob["config"]) == 20
    assert blob["config"]["M"] == 20
    assert blob["config"]["eta"] == blob["config"]["epsilon"] == "auto"
    features = str(pipeline["data"] / "features.csv")
    digest = hashlib.sha256(
        (pipeline["data"] / "features.csv").read_bytes()).hexdigest()
    assert blob["inputs"][features] == digest
    assert "rulescreen" in blob["versions"]


def test_learn_hashes_each_input_once(pipeline, tmp_path, monkeypatch):
    """manifest.json takes a CSV input's digest from its loader, so a learn
    run hashes each of its three input files exactly once."""
    from rulescreen import cli, csvio

    hashed = []

    def counted(fh, sha256_of=csvio.sha256_of):
        hashed.append(sha256_of(fh))
        return hashed[-1]

    monkeypatch.setattr(csvio, "sha256_of", counted)
    monkeypatch.setattr(cli, "sha256_of", counted)
    inputs = [pipeline["data"] / "features.csv", pipeline["data"] / "returns.csv", pipeline["cfg"]]
    assert run([
        "learn", "--panel", str(inputs[0]), "--returns", str(inputs[1]),
        "--config", str(inputs[2]), "--out", str(tmp_path / "rules.json"),
    ]) == 0
    digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}
    assert sorted(hashed) == sorted(digests.values())
    assert json.loads((tmp_path / "manifest.json").read_text())["inputs"] == digests


def test_cold_learn_hashes_each_csv_again_as_it_parses(pipeline, tmp_path, monkeypatch):
    """On a cache miss each CSV input is hashed twice: once through
    sha256_of, for the cache key and the manifest, and once as its records
    stream through the parse, which checks that the bytes parsed are the
    bytes looked up. The config is hashed once, through sha256_of."""
    from rulescreen import cli, csvio

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    shutil.rmtree(data / CACHE_DIR)
    through_sha256_of, hashers = [], []

    def counted(fh, sha256_of=csvio.sha256_of):
        through_sha256_of.append(sha256_of(fh))
        return through_sha256_of[-1]

    def sha256():
        hashers.append(hashlib.sha256())
        return hashers[-1]

    monkeypatch.setattr(csvio, "sha256_of", counted)
    monkeypatch.setattr(cli, "sha256_of", counted)
    monkeypatch.setattr(csvio, "hashlib", SimpleNamespace(sha256=sha256))
    features, returns = data / "features.csv", data / "returns.csv"
    assert run([
        "learn", "--panel", str(features), "--returns", str(returns),
        "--config", str(pipeline["cfg"]), "--out", str(tmp_path / "rules.json"),
    ]) == 0
    digest = {p: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in (features, returns, pipeline["cfg"])}
    assert sorted(through_sha256_of) == sorted(digest.values())
    assert sorted(h.hexdigest() for h in hashers) == sorted(
        list(digest.values()) + [digest[features], digest[returns]])
    assert {p.name for p in (data / CACHE_DIR).iterdir()} == {
        "features.csv.npz", "returns.csv.npz"}


def test_input_changed_between_hash_and_parse_exits_two(pipeline, tmp_path, monkeypatch,
                                                       caplog):
    """The digest that keys the cache and fills manifest.json is that of the
    bytes parsed: a features.csv rewritten after its lookup hash exits 2
    with InputChanged and leaves no cache and no temporary file."""
    from rulescreen import csvio

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    shutil.rmtree(data / CACHE_DIR)
    features = data / "features.csv"
    lines = features.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = "0.0"  # a well-formed record of another value
    changed = "".join(lines[:1] + [",".join(cells)] + lines[2:])

    def then_rewrite(fh, sha256_of=csvio.sha256_of):
        digest = sha256_of(fh)
        if fh.fh.name == str(features):
            features.write_text(changed)
        return digest

    monkeypatch.setattr(csvio, "sha256_of", then_rewrite)
    out = tmp_path / "learn"
    assert run([
        "learn", "--panel", str(features), "--returns", str(data / "returns.csv"),
        "--config", str(pipeline["cfg"]), "--out", str(out / "rules.json"),
    ]) == 2
    assert f"InputChanged: {features}: changed while it was read" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (data / CACHE_DIR).exists() or not list((data / CACHE_DIR).iterdir())
    assert not list(data.rglob("*.tmp"))
    assert not (out / "manifest.json").exists()


CLI_MODULES = {"rulescreen", "rulescreen.cli", "rulescreen.errors", "rulescreen.csvio"}
ENGINE_MODULES = {"rulescreen.panel", "rulescreen.aggregate", "rulescreen.rules",
                  "rulescreen.rulegen", "rulescreen.backtest"}
# The rulescreen modules a fresh process loads: for `import rulescreen`, for
# `import rulescreen.cli`, and for each stage run through the cli.
STAGE_MODULES = {
    "package": {"rulescreen"},
    "cli": CLI_MODULES,
    "print-config": CLI_MODULES | ENGINE_MODULES,
    "synth": CLI_MODULES | {"rulescreen.panel", "rulescreen.rules", "rulescreen.synth"},
    "learn": CLI_MODULES | ENGINE_MODULES,
    "score": CLI_MODULES | {"rulescreen.panel", "rulescreen.aggregate", "rulescreen.rules"},
    "backtest": CLI_MODULES | ENGINE_MODULES,
    "report": CLI_MODULES,
}
# The stages that start without numpy.
NO_NUMPY_STAGES = {"package", "cli", "report"}


@pytest.mark.parametrize("stage", list(STAGE_MODULES))
def test_stage_loads_only_its_modules(pipeline, tmp_path, stage):
    """Each stage imports the modules it runs and no others, and none of
    them imports scipy. `import rulescreen`, `import rulescreen.cli` and
    `report` load no numpy, and `score` loads no statistics."""
    data, learned = pipeline["data"], pipeline["learn"]
    argv = {
        "print-config": ["--print-config"],
        "synth": ["synth", "--spec", pipeline["root"] / "spec.json", "--out", tmp_path],
        "learn": ["learn", "--panel", data / "features.csv", "--returns", data / "returns.csv",
                  "--config", pipeline["cfg"], "--out", tmp_path / "rules.json"],
        "score": ["score", "--rules", learned / "rules.json", "--state", learned / "state.json",
                  "--discretizer", learned / "discretizer.json",
                  "--panel", data / "features.csv", "--asof", pipeline["asof"],
                  "--out", tmp_path / "scores.csv"],
        "backtest": ["backtest", "--config", pipeline["cfg"], "--out", tmp_path],
        "report": ["report", "--dir", pipeline["bt"], "--out", tmp_path / "report.md"],
    }.get(stage)
    code = "import rulescreen" if stage == "package" else "import rulescreen.cli"
    if argv is not None:
        code += "; assert rulescreen.cli.run(sys.argv[1:]) == 0"
    src = str(Path(rulescreen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", f"import json, sys; {code}; print(json.dumps(list(sys.modules)))",
         *map(str, argv or [])],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "scipy" not in loaded
    assert {m for m in loaded if m.split(".")[0] == "rulescreen"} == STAGE_MODULES[stage]
    assert ("numpy" in loaded) == (stage not in NO_NUMPY_STAGES)
    if stage == "score":
        assert "statistics" not in loaded


def test_main_freezes_the_collector_before_the_process_exits(pipeline, tmp_path):
    """A stage run through main() freezes the collector after its command
    returns, so exit skips collecting the objects the imports made. An
    atexit hook registered before main() still runs after that, and the
    stage's stdout is whole before it."""
    src = str(Path(rulescreen.__file__).resolve().parents[1])
    code = ("import atexit, gc, sys; from rulescreen import cli; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count())); "
            "cli.main()")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, "report", "--dir", str(pipeline["bt"])],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    text, _, tail = proc.stdout.rpartition("frozen ")
    assert text == pipeline["report"].read_text()
    assert int(tail) > 0


def test_run_leaves_the_collector_unfrozen(pipeline, tmp_path):
    """run() is the in-process API: it freezes nothing."""
    before = gc.get_freeze_count()
    assert run(["report", "--dir", str(pipeline["bt"]), "--out", str(tmp_path / "r.md")]) == 0
    assert run(["--print-config"]) == 0
    assert gc.get_freeze_count() == before


def test_scores_schema(pipeline):
    with open(pipeline["scores"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["date", "stock_id", "y_hat", "score"]
    assert len(rows) == 1 + SPEC_BLOB["n_stocks"]
    for row in rows[1:]:
        assert row[0] == pipeline["asof"]
        float(row[2])
        assert int(row[3]) in (-1, 0, 1)


def test_backtest_writes_report_files(pipeline):
    names = {p.name for p in pipeline["bt"].iterdir()}
    assert names == {"levels.csv", "kpis.json", "calendar.csv",
                     "learning-y.csv", "manifest.json"}
    kpis = json.loads((pipeline["bt"] / "kpis.json").read_text())
    assert "Benchmark" in kpis
    assert "Positive ML" in kpis
    for report in kpis.values():
        assert "ann_performance" in report
        assert "information_ratio" in report


def test_levels_start_at_base(pipeline):
    with open(pipeline["bt"] / "levels.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "date"
    assert "Benchmark" in rows[0]
    for value in rows[1][1:]:
        assert float(value) == pytest.approx(100.0)


def test_report_renders_markdown(pipeline):
    text = pipeline["report"].read_text()
    assert text.startswith("# Backtest report")
    assert "| Benchmark |" in text
    assert "## Calendar-year excess" in text


def test_learn_worker_count_does_not_change_outputs(pipeline, tmp_path):
    """worker_count is still a valid config key, and no output depends on it."""
    data = pipeline["data"]
    text = pipeline["cfg"].read_text()
    assert "worker_count = 1" in text

    def learn_into(directory, workers):
        directory.mkdir()
        cfg = directory / "run.cfg"
        cfg.write_text(text.replace("worker_count = 1", f"worker_count = {workers}"))
        assert run([
            "learn",
            "--panel", str(data / "features.csv"),
            "--returns", str(data / "returns.csv"),
            "--config", str(cfg),
            "--out", str(directory / "rules.json"),
        ]) == 0

    learn_into(tmp_path / "w1", 1)
    learn_into(tmp_path / "w4", 4)
    for name in ("rules.json", "state.json", "discretizer.json"):
        a = (tmp_path / "w1" / name).read_bytes()
        b = (tmp_path / "w4" / name).read_bytes()
        assert a == b, name


def edited(pick, key, value):
    """A function of a JSON file's text that sets pick(blob)[key] to value,
    or to value(old) when value is callable."""
    def edit(text):
        blob = json.loads(text)
        target = pick(blob)
        target[key] = value(target[key]) if callable(value) else value
        return json.dumps(blob)
    return edit


def whole(blob):
    return blob


def first_rule(rules):
    return rules[0]


def last_rule(rules):
    return rules[-1]


def first_interval(rules):
    return next(entry for entry in rules if entry["intervals"])["intervals"][0]


def first_interval_past_zero(rules):
    return next(iv for entry in rules for iv in entry["intervals"] if iv["hi"] >= 1)


def first_numeric(discretizer):
    return next(entry for entry in discretizer.values() if entry["kind"] == "numeric")


def one_kpi_short(text):
    blob = json.loads(text)
    del blob["Benchmark"]["ann_volatility"]
    return json.dumps(blob)


# A file of the learn or backtest output or the synth spec (or a tuple of
# files), what is written over it (a string, or a function of the file's
# text; a tuple for a tuple of files), the exit code and what the CLI's
# error line must hold.
BAD_JSON_CASES = {
    "state_not_json": ("learn/state.json", "{not json", 2, ("SpecMismatch", "state.json")),
    "rules_not_json": ("learn/rules.json", "{not json", 2, ("SpecMismatch", "rules.json")),
    "discretizer_not_json": ("learn/discretizer.json", "{not json", 2,
                             ("SpecMismatch", "discretizer.json")),
    "state_without_weights": ("learn/state.json", "{}", 2, ("SpecMismatch", "state.json")),
    "state_one_weight_short": ("learn/state.json", edited(whole, "weights", lambda w: w[:-1]), 2,
                               ("SpecMismatch", "state.json", "rules.json")),
    "state_nan_weight": ("learn/state.json",
                         edited(whole, "weights", lambda w: [float("nan")] + w[1:]), 2,
                         ("SpecMismatch", "state.json")),
    "state_negative_weight": ("learn/state.json",
                              edited(whole, "weights", lambda w: [-0.25] + w[1:]), 2,
                              ("SpecMismatch", "state.json")),
    "state_nan_epsilon": ("learn/state.json", edited(whole, "epsilon", float("nan")), 2,
                          ("SpecMismatch", "state.json", "epsilon")),
    "state_and_rules_empty": (("learn/state.json", "learn/rules.json"),
                              (edited(whole, "weights", []), "[]"), 2,
                              ("SpecMismatch", "state.json")),
    "rules_interval_below_codes": ("learn/rules.json", edited(first_interval, "lo", -5), 2,
                                   ("SpecMismatch", "rules.json")),
    "rules_interval_reversed": ("learn/rules.json", edited(first_interval, "lo", 99), 2,
                                ("SpecMismatch", "rules.json")),
    "rules_unknown_feature": ("learn/rules.json", edited(first_interval, "feature_id", "zz"), 2,
                              ("SpecMismatch", "rules.json", "'zz'")),
    "rules_interval_above_codes": ("learn/rules.json", edited(first_interval, "hi", 99), 2,
                                   ("SpecMismatch", "rules.json")),
    # An integer field that is not a JSON integer is refused, not truncated
    # into a valid interval, count or step.
    "rules_hi_fraction": ("learn/rules.json", edited(first_interval, "hi", lambda h: h + 0.5), 2,
                          ("SpecMismatch", "rules.json", "hi")),
    "rules_lo_bool": ("learn/rules.json", edited(first_interval_past_zero, "lo", True), 2,
                      ("SpecMismatch", "rules.json", "lo")),
    "rules_activations_fraction": ("learn/rules.json",
                                   edited(first_rule, "activations", lambda a: a + 0.5), 2,
                                   ("SpecMismatch", "rules.json", "activations")),
    "state_step_fraction": ("learn/state.json", edited(whole, "step", lambda k: k + 0.5), 2,
                            ("SpecMismatch", "state.json", "step")),
    # A prediction or learning-set mean that is not finite would make every
    # score NaN.
    **{f"rules_{key}_{name}": ("learn/rules.json", edited(pick, key, value), 2,
                               ("SpecMismatch", "rules.json", key))
       for key, pick in (("prediction", first_rule), ("global_mean", last_rule))
       for name, value in (("nan", float("nan")), ("inf", float("inf")),
                           ("minus_inf", -float("inf")))},
    "discretizer_edges_descending": ("learn/discretizer.json",
                                     edited(first_numeric, "edges", lambda e: e[::-1]), 2,
                                     ("SpecMismatch", "discretizer.json")),
    "discretizer_edge_not_finite": ("learn/discretizer.json",
                                    edited(first_numeric, "edges",
                                           lambda e: e[:-1] + [float("inf")]), 2,
                                    ("SpecMismatch", "discretizer.json")),
    "spec_not_json": ("spec.json", "{not json", 1, ("InconsistentSpec", "spec.json")),
    "spec_bad_type": ("spec.json", json.dumps(dict(SPEC_BLOB, n_stocks="x")), 1,
                      ("InconsistentSpec",)),
    "spec_not_an_object": ("spec.json", "5", 1, ("InconsistentSpec",)),
    "spec_bad_planted_rule": ("spec.json", json.dumps(dict(SPEC_BLOB, planted=[1])), 1,
                              ("InconsistentSpec",)),
    "spec_shift_without_date": ("spec.json",
                                json.dumps(dict(SPEC_BLOB, regime_shift={"replacement": []})),
                                1, ("InconsistentSpec", "date")),
    "asof_not_a_date": (None, None, 1, ("ConfigError", "'notadate'")),
    "kpis_not_json": ("bt/kpis.json", "{not json", 2, ("SpecMismatch", "kpis.json")),
    "kpis_one_kpi_short": ("bt/kpis.json", one_kpi_short, 2,
                           ("SpecMismatch", "kpis.json", "ann_volatility")),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON_CASES))
def test_malformed_json_or_asof_exits_without_traceback(pipeline, tmp_path, case):
    name, text, code, expected = BAD_JSON_CASES[case]
    shutil.copytree(pipeline["learn"], tmp_path / "learn")
    shutil.copytree(pipeline["bt"], tmp_path / "bt")
    (tmp_path / "spec.json").write_text(json.dumps(SPEC_BLOB))
    names, texts = (name, text) if isinstance(name, tuple) else ((name,), (text,))
    for path, content in zip(names, texts):
        if path is None:
            continue
        if callable(content):
            content = content((tmp_path / path).read_text())
        (tmp_path / path).write_text(content)
    name = names[0]
    if name == "spec.json":
        argv = ["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]
    elif name == "bt/kpis.json":
        argv = ["report", "--dir", str(tmp_path / "bt")]
    else:
        argv = [
            "score",
            "--rules", str(tmp_path / "learn" / "rules.json"),
            "--state", str(tmp_path / "learn" / "state.json"),
            "--discretizer", str(tmp_path / "learn" / "discretizer.json"),
            "--panel", str(pipeline["data"] / "features.csv"),
            "--asof", "notadate" if case == "asof_not_a_date" else pipeline["asof"],
            "--out", str(tmp_path / "scores.csv"),
        ]
    src = str(Path(rulescreen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "rulescreen.cli", *argv],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert all(part in proc.stderr for part in expected), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "scores.csv").exists()


# A path into SPEC_BLOB and a value that makes the spec malformed there:
# each would end `synth` in a traceback, or in a market that its spec does
# not pin (an OS-entropy seed, NaN labels, a fraction truncated to an int).
BAD_SPEC_VALUES = {
    "seed_negative": (("seed",), -1),
    "seed_fraction": (("seed",), 1.5),
    "seed_string": (("seed",), "x"),
    "seed_null": (("seed",), None),
    "seed_bool": (("seed",), True),
    "n_stocks_fraction": (("n_stocks",), 2.5),
    "n_dates_float": (("n_dates",), 1e9),
    "start_not_a_date": (("start",), "notadate"),
    "shift_date_not_a_date": (("regime_shift",), {"date": "bad", "replacement": []}),
    "sector_feature_bool": (("sector_feature",), True),
    "noise_sigma_nan": (("noise_sigma",), float("nan")),
    "effect_nan": (("planted", 0, "effect"), float("nan")),
    "feature_index_fraction": (("planted", 0, "intervals", 0, "feature_index"), 0.5),
    "lo_fraction": (("planted", 1, "intervals", 0, "lo"), 1.5),
    "hi_fraction": (("planted", 0, "intervals", 0, "hi"), 0.5),
    "lo_above_hi": (("planted", 1, "intervals", 0, "lo"), 3),
}


@pytest.mark.parametrize("case", sorted(BAD_SPEC_VALUES))
def test_malformed_synth_spec_exits_one(tmp_path, caplog, case):
    path, value = BAD_SPEC_VALUES[case]
    blob = json.loads(json.dumps(SPEC_BLOB))
    target = blob
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(blob))
    assert run(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("InconsistentSpec: "), errors
    assert not (tmp_path / "data").exists()


def test_synth_grid_past_9999_is_refused_unallocated(tmp_path, caplog, monkeypatch):
    """A grid of 10**12 business days is counted, not built: the spec is
    refused before business_day_grid could allocate it."""
    monkeypatch.setattr(synth, "business_day_grid", None)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(SPEC_BLOB, n_dates=10**12)))
    assert run(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("InconsistentSpec: "), errors
    assert "9999-12-31" in errors[0]
    assert not (tmp_path / "data").exists()


def test_synth_out_of_memory_exits_one(tmp_path, caplog, monkeypatch):
    def generate(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "generate", generate)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_BLOB))
    assert run(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("InconsistentSpec: "), errors
    assert "memory" in errors[0]
    assert not (tmp_path / "data").exists()


# ---------------------------------------------------------------------------
# malformed input rows


@pytest.mark.parametrize("name", ["features", "returns", "universe", "prices"])
@pytest.mark.parametrize("fault", ["short_row", "non_numeric", "bad_date", "empty_date",
                                   "blank_line", "long_row"])
def test_malformed_csv_row_exits_two(pipeline, tmp_path, caplog, name, fault):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / f"{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split(",")
    if fault == "short_row":
        cells = cells[:-1]
    elif fault == "blank_line":
        cells = []
    elif fault == "long_row":
        cells.append(cells[-1])
    elif fault == "non_numeric":
        cells[2] = "n/a"  # the first numeric column of every input file
    elif fault == "bad_date":
        cells[0] = "2010-13-01"
    else:
        cells[0] = ""  # numpy would read it as NaT
    lines[2] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    cfg = write_cfg(tmp_path, "".join(
        f"{k} = {data / (k + '.csv')}\n"
        for k in ("features", "returns", "universe", "prices")
    ))
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"MalformedRow: {path}, line 3:" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("label", ["nan", "NaN", "inf", "-inf", "1e400", "-1e400"])
def test_non_finite_label_exits_two(pipeline, tmp_path, caplog, label):
    """Only an empty returns.csv cell means no label: a label that reads as
    a non-finite number is a malformed row, not a row left out of learning."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "returns.csv"
    lines = path.read_text().splitlines(keepends=True)
    for at in (2, 5):
        cells = lines[at].rstrip("\n").split(",")
        cells[2] = label
        lines[at] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    out = tmp_path / "learn" / "rules.json"
    assert run(["learn", "--panel", str(data / "features.csv"), "--returns", str(path),
                "--out", str(out)]) == 2
    assert (f"MalformedRow: {path}, line 3: label {label!r} is not a finite number"
            in caplog.text)
    assert "Traceback" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("name", ["features", "returns", "universe", "prices"])
def test_duplicate_key_row_exits_two(pipeline, tmp_path, caplog, name):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / f"{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    date, stock_id = lines[2].split(",")[:2]
    lines.insert(5, lines[2])
    path.write_text("".join(lines))
    cfg = write_cfg(tmp_path, "".join(
        f"{k} = {data / (k + '.csv')}\n"
        for k in ("features", "returns", "universe", "prices")
    ))
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert (f"DuplicateRow: {path}, line 6: repeated (date, stock_id) key "
            f"({date}, {stock_id})") in caplog.text
    assert "Traceback" not in caplog.text


def test_score_duplicate_features_row_exits_two(pipeline, tmp_path, caplog):
    """score reads features.csv through the same key check: a repeated
    (date, stock_id) on the scored date exits 2 and writes no scores."""
    path = tmp_path / "features.csv"
    lines = (pipeline["data"] / "features.csv").read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith(pipeline["asof"]))
    lines.insert(row + 1, lines[row])
    path.write_text("".join(lines))
    learn = pipeline["learn"]
    out = tmp_path / "scores.csv"
    assert run(["score", "--rules", str(learn / "rules.json"),
                "--state", str(learn / "state.json"),
                "--discretizer", str(learn / "discretizer.json"),
                "--panel", str(path), "--asof", pipeline["asof"], "--out", str(out)]) == 2
    stock_id = lines[row].split(",")[1]
    assert (f"DuplicateRow: {path}, line {row + 2}: repeated (date, stock_id) key "
            f"({pipeline['asof']}, {stock_id})") in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("name,fault", [
    ("features", "bad cell"), ("returns", "bad cell"), ("universe", "bad cell"),
    ("prices", "bad cell"), ("features", "repeated key"), ("returns", "repeated key"),
    ("universe", "repeated key"), ("prices", "repeated key"),
])
def test_bad_input_writes_no_cache(pipeline, tmp_path, caplog, name, fault, warm):
    """A malformed or duplicate-key file exits 2 with file and line, cold or
    with the cache its previous clean content left, and caches nothing."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    cache = data / CACHE_DIR / f"{name}.csv.npz"
    if not warm:
        shutil.rmtree(data / CACHE_DIR)
    clean_cache = cache.read_bytes() if warm else None
    path = data / f"{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    if fault == "bad cell":
        cells = lines[2].split(",")
        cells[2] = "n/a"
        lines[2] = ",".join(cells)
        error = f"MalformedRow: {path}, line 3:"
    else:
        lines.insert(5, lines[2])
        error = f"DuplicateRow: {path}, line 6:"
    path.write_text("".join(lines))
    cfg = write_cfg(tmp_path, "".join(
        f"{k} = {data / (k + '.csv')}\n"
        for k in ("features", "returns", "universe", "prices")
    ))
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert error in caplog.text
    assert "Traceback" not in caplog.text
    assert (cache.read_bytes() if cache.exists() else None) == clean_cache
    assert not list(data.glob(f"{CACHE_DIR}/*.tmp"))


@pytest.mark.parametrize("name,column,value", [
    ("universe", "esg_rating", "50"), ("prices", "total_return_daily", "0.0"),
])
def test_repeated_header_column_exits_two(pipeline, tmp_path, caplog, name, column, value):
    """A header that names a column twice is refused: before, the last
    column of the name was read, so every rating below would have been 50."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / f"{name}.csv"
    header, *records = path.read_text().splitlines()
    path.write_text("".join(
        line + "\n" for line in [f"{header},{column}"] + [f"{r},{value}" for r in records]
    ))
    cfg = write_cfg(tmp_path, "".join(
        f"{k} = {data / (k + '.csv')}\n"
        for k in ("features", "returns", "universe", "prices")
    ))
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"SpecMismatch: {path}: header repeats column {column!r}" in caplog.text
    assert "Traceback" not in caplog.text


def test_report_bad_calendar_cell_exits_two(pipeline, tmp_path, caplog):
    shutil.copy(pipeline["bt"] / "kpis.json", tmp_path / "kpis.json")
    path = tmp_path / "calendar.csv"
    path.write_text("year,Benchmark\n2010,0.0\n2011,abc\n")
    assert run(["report", "--dir", str(tmp_path), "--out", str(tmp_path / "r.md")]) == 2
    assert f"MalformedRow: {path}, line 3:" in caplog.text
    assert "Traceback" not in caplog.text


# Cells that numpy's string-to-float64 and float read alike: accepted with
# the same value, or both rejected.
FLOAT_CELLS = ["1_0", " 2.5 ", "nan", "-inf", "1e5", "", "abc", "0x10", "infinity",
               "+nan", "١٢", "-0.0", "1e400", "1__0", "1,5", "0.1"]


@pytest.mark.parametrize("cell", FLOAT_CELLS)
def test_report_converter_reads_cells_as_to_floats(cell):
    """report reads calendar.csv with float instead of panel.to_floats, so
    that it runs without numpy; both accept the same cells, as the same
    values, and reject the others with the same message."""
    from rulescreen.cli import to_float_list
    from rulescreen.panel import to_floats

    try:
        expected = to_floats([cell]).tolist()
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            to_float_list([cell])
    else:
        got = to_float_list([cell])
        assert [type(v) for v in got] == [float]
        assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_report_out_creates_its_directory(pipeline, tmp_path):
    """report --out into a directory that does not exist yet creates it,
    as learn, score, synth and backtest do, and writes the same text."""
    out = tmp_path / "new" / "dir" / "report.md"
    assert run(["report", "--dir", str(pipeline["bt"]), "--out", str(out)]) == 0
    assert out.read_text() == pipeline["report"].read_text()


@pytest.mark.parametrize("stage", ["report", "learn"])
def test_unwritable_output_is_not_a_missing_input(pipeline, tmp_path, caplog, stage):
    """An output under a path whose directory is a regular file exits 2
    with OutputError naming it, not as a missing input and not with a
    traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("a regular file where the output directory goes")
    data = pipeline["data"]
    argv = {
        "report": ["report", "--dir", str(pipeline["bt"]), "--out", str(blocker / "r.md")],
        "learn": ["learn", "--panel", str(data / "features.csv"),
                  "--returns", str(data / "returns.csv"), "--config", str(pipeline["cfg"]),
                  "--out", str(blocker / "rules.json")],
    }[stage]
    assert run(argv) == 2
    assert f"OutputError: cannot write to {blocker}" in caplog.text
    assert "missing input" not in caplog.text
    assert "Traceback" not in caplog.text


def test_backtest_score_day_without_panel_rows_exits_two(pipeline, tmp_path, caplog):
    """Features with no row on a score day exit 2 with the typed error that
    names the day, not with a traceback."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    grid = load_prices_csv(data / "prices.csv").dates
    # three training years from 2010: the first learning is 2012's last day
    first_learning = grid[grid < np.datetime64("2013-01-01")][-1]
    lag = SCORE_LAG_DAYS
    review = next(r for r in month_ends(grid)
                  if grid[np.searchsorted(grid, r) - lag] >= first_learning)
    day = str(grid[np.searchsorted(grid, review) - lag])
    path = data / "features.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(day)))
    cfg = write_cfg(tmp_path, "\n".join([CFG_TEXT] + [
        f"{k} = {data / (k + '.csv')}" for k in ("features", "returns", "universe", "prices")
    ]) + "\n")
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"SpecMismatch: no panel rows to score on {day}" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("extra", [["m = 5"], ["learning_years = all", "learning_years = none"]],
                         ids=["m", "learning_years"])
def test_config_key_set_twice_exits_one(pipeline, tmp_path, caplog, extra):
    """A key set twice is refused, naming both lines, instead of the later
    value silently winning."""
    text = CFG_TEXT + "\n".join(extra) + "\n"
    cfg = write_cfg(tmp_path, text)
    key = extra[-1].split(" = ")[0]
    first, second = [n for n, line in enumerate(text.splitlines(), 1) if line.startswith(key)]
    assert run([
        "learn",
        "--panel", str(pipeline["data"] / "features.csv"),
        "--returns", str(pipeline["data"] / "returns.csv"),
        "--config", cfg,
        "--out", str(tmp_path / "learn" / "rules.json"),
    ]) == 1
    assert (f"ConfigError: {cfg}:{second}: config key {key!r} is already set on line {first}"
            in caplog.text)
    assert not (tmp_path / "learn").exists()


@pytest.mark.parametrize("names", [("features", "returns"), ("universe",), ("prices",)],
                         ids="+".join)
def test_backtest_outputs_do_not_depend_on_input_record_order(pipeline, tmp_path, names):
    """`backtest` on inputs whose records are shuffled writes the same report
    files, byte for byte, as on the files in (date, stock_id) order."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    rng = np.random.default_rng(5)
    for name in names:
        path = data / f"{name}.csv"
        lines = path.read_text().splitlines(keepends=True)
        records = lines[1:]
        rng.shuffle(records)
        path.write_text("".join(lines[:1] + records))
    cfg = write_cfg(tmp_path, "\n".join([CFG_TEXT] + [
        f"{k} = {data / (k + '.csv')}" for k in ("features", "returns", "universe", "prices")
    ]) + "\n")
    out = tmp_path / "bt"
    assert run(["backtest", "--config", cfg, "--out", str(out)]) == 0
    for name in ("levels.csv", "kpis.json", "calendar.csv", "learning-y.csv"):
        assert (out / name).read_bytes() == (pipeline["bt"] / name).read_bytes(), name


@pytest.mark.parametrize("column,value", [("cap_weight", "nan"), ("esg_rating", "inf")])
def test_backtest_non_finite_universe_value_exits_two(pipeline, tmp_path, caplog, column, value):
    """A NaN cap weight would pass the sum-to-one check and turn every KPI
    NaN; a non-finite rating would pass best-in-class unranked. Either exits
    2 naming the date and the stock."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "universe.csv"
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[1].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    cfg = write_cfg(tmp_path, "\n".join([CFG_TEXT] + [
        f"{k} = {data / (k + '.csv')}" for k in ("features", "returns", "universe", "prices")
    ]) + "\n")
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cap, rating = (float(cells[header.index(name)]) for name in ("cap_weight", "esg_rating"))
    assert (f"SpecMismatch: {cells[1]} at {cells[0]} has cap weight {cap!r} and ESG rating "
            f"{rating!r}; both must be finite, the weight >= 0") in caplog.text
    assert "Traceback" not in caplog.text


def test_backtest_price_return_below_minus_one_exits_two(pipeline, tmp_path, caplog):
    """A daily return below -1 would turn the benchmark's KPIs NaN: the run
    exits 2 with one ERROR line naming the stock, the date and the value,
    and writes no kpis.json."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "prices.csv"
    lines = path.read_text().splitlines(keepends=True)
    at = lines[0].rstrip("\n").split(",").index("total_return_daily")
    for i, line in enumerate(lines):
        if line.startswith("2013-03-05,"):
            cells = line.rstrip("\n").split(",")
            cells[at] = "-2.0"
            lines[i] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    cfg = write_cfg(tmp_path, "\n".join([CFG_TEXT] + [
        f"{k} = {data / (k + '.csv')}" for k in ("features", "returns", "universe", "prices")
    ]) + "\n")
    out = tmp_path / "o"
    assert run(["backtest", "--config", cfg, "--out", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    first = load_prices_csv(pipeline["data"] / "prices.csv").stock_ids[0]
    assert errors == [f"SpecMismatch: return -2.0 for {first} on 2013-03-05 is below -1 "
                      f"({SPEC_BLOB['n_stocks']} such returns total)"]
    assert "Traceback" not in caplog.text
    assert not (out / "kpis.json").exists()


@pytest.mark.parametrize("years", ["2099", "2012 ,2099"])
def test_backtest_unknown_learning_year_exits_one_before_any_study(
        pipeline, tmp_path, caplog, monkeypatch, years):
    """A learning year that the price grid does not complete exits 1 before
    the walk-forward study or any frozen study runs."""
    def no_study(*args, **kwargs):
        raise AssertionError("a study ran")

    monkeypatch.setattr(cli, "run_study", no_study)
    monkeypatch.setattr(cli, "learning_y", no_study)
    cfg = write_cfg(tmp_path, "\n".join([CFG_TEXT, f"learning_years = {years}"] + [
        f"{k} = {pipeline['data'] / (k + '.csv')}"
        for k in ("features", "returns", "universe", "prices")
    ]) + "\n")
    out = tmp_path / "o"
    assert run(["backtest", "--config", cfg, "--out", str(out)]) == 1
    assert "UnknownLearningYear: 2099 is not a completed learning year" in caplog.text
    assert "Traceback" not in caplog.text
    assert not out.exists()


# ---------------------------------------------------------------------------
# no look-ahead


def cut_inputs(pipeline, directory, t):
    """The pipeline's four input files with every record dated after t
    dropped, and the labels that resolve after t, written to directory."""
    directory.mkdir()
    for name in ("features", "returns", "universe", "prices"):
        lines = (pipeline["data"] / f"{name}.csv").read_text().splitlines(keepends=True)
        kept = [line for line in lines[1:] if line[:10] <= t]
        if name == "returns":
            resolved = np.busday_offset([line[:10] for line in kept], 63) <= np.datetime64(t)
            kept = [line for line, ok in zip(kept, resolved) if ok]
        (directory / f"{name}.csv").write_text("".join(lines[:1] + kept))
    return directory


def test_backtest_to_end_date_equals_backtest_on_inputs_cut_there(pipeline, tmp_path):
    """`backtest` with end_date = t, `backtest` on the four inputs cut at t
    with the labels that resolve after t dropped, and `backtest` on the
    whole inputs write the same levels.csv rows up to t. The cut falls
    mid-year, so both cut runs end on a learning."""
    t = "2013-06-28"
    data = cut_inputs(pipeline, tmp_path / "data", t)

    def levels(cfg_lines, out):
        cfg = write_cfg(tmp_path, "\n".join([CFG_TEXT] + cfg_lines) + "\n")
        assert run(["backtest", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "levels.csv").read_text().splitlines()

    inputs = [f"{k} = {{}}/{k}.csv" for k in ("features", "returns", "universe", "prices")]
    to_t = levels([line.format(pipeline["data"]) for line in inputs] + [f"end_date = {t}"],
                  "to_t")
    on_cut = levels([line.format(data) for line in inputs], "on_cut")
    whole = (pipeline["bt"] / "levels.csv").read_text().splitlines()
    assert to_t[-1].startswith(t)
    assert to_t == on_cut == whole[:len(to_t)]


def test_learn_on_cut_inputs_writes_the_studys_last_learning(pipeline, tmp_path):
    """`learn` on the inputs cut at a mid-year t writes the rules.json of
    the study's last learning on the same cut, `learned_at` included: both
    stamp the rules with t, the last date of the features panel."""
    t = "2013-06-28"
    data = cut_inputs(pipeline, tmp_path / "data", t)
    cfg_path = write_cfg(tmp_path, CFG_TEXT)
    assert run([
        "learn",
        "--panel", str(data / "features.csv"),
        "--returns", str(data / "returns.csv"),
        "--config", cfg_path,
        "--out", str(tmp_path / "learn" / "rules.json"),
    ]) == 0
    panel, specs = load_features_csv(data / "features.csv")
    panel = attach_returns(panel, load_returns_csv(data / "returns.csv"))
    study = run_study(
        panel, specs, load_universe_csv(data / "universe.csv"),
        load_prices_csv(data / "prices.csv"), parse_config(cfg_path).study,
    )
    assert str(study.learnings[-1].date) == t
    assert ((tmp_path / "learn" / "rules.json").read_text()
            == study.learnings[-1].ruleset.to_json() + "\n")


def test_backtest_out_of_range_study_key_exits_one(pipeline, tmp_path, caplog):
    """An out-of-range config value exits 1 before any input is read, not
    with a traceback from inside the study."""
    lines = [CFG_TEXT.replace("initial_train_years = 3", "initial_train_years = 0")]
    for key in ("features", "returns", "universe", "prices"):
        lines.append(f"{key} = {pipeline['data'] / (key + '.csv')}")
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert run(["backtest", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "ConfigError: initial_train_years must be >= 1, got 0" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "o").exists()


def test_backtest_window_after_the_data_exits_two(pipeline, tmp_path):
    """A start_date after the last price date leaves no trading day to
    study: a typed data error (exit 2), not a traceback."""
    lines = [CFG_TEXT, "start_date = 2030-01-01"]
    for key in ("features", "returns", "universe", "prices"):
        lines.append(f"{key} = {pipeline['data'] / (key + '.csv')}")
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    src = str(Path(rulescreen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "rulescreen.cli",
         "backtest", "--config", cfg, "--out", str(tmp_path / "o")],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "MissingPriceData: the prices hold no trading day" in proc.stderr
    assert "Traceback" not in proc.stderr
