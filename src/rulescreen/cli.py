"""Command-line entry point.

One binary, five subcommands (synth, learn, score, backtest, report).
Configuration is a flat `key = value` text file whose defaults print with
--print-config; every run drops a manifest.json next to its outputs with the
effective config, sha256 of each input file, and library versions, so a run
can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, get_type_hints

from . import __version__
from .csvio import InputCsv, parse_columns, read_digests, sha256_of
from .errors import (
    ConfigError,
    DataError,
    EmptyPanel,
    InconsistentSpec,
    MissingPriceData,
    OutputError,
    SpecMismatch,
    ValidationError,
)

logger = logging.getLogger(__name__)

# The names cli takes from the modules that not every subcommand runs, by
# module ("a as b" binds a as b). Each is bound into this module when first
# needed: run() binds the modules of its subcommand before dispatch, and
# __getattr__ binds a name's module when the name is read from outside, as
# perfbench/tracing.py does to wrap it. A name already bound keeps its value,
# so a wrapper put in its place survives. update, learn_rules and
# fit_discretizer are bound only for perfbench/tracing.py to wrap. numpy
# comes with these modules, so `report` and `import rulescreen.cli` run
# without it.
_LAZY_NAMES = {
    "panel": (
        "Discretizer", "apply_discretizer", "attach_returns", "fit_discretizer",
        "float_cells", "load_features_csv", "load_returns_csv", "str_cells",
        "write_csv_columns", "write_features_csv", "write_returns_csv",
    ),
    "aggregate": ("AggregationState", "predict_many", "score_many", "update"),
    "rules": ("RuleSet",),
    "rulegen": ("learn as learn_rules",),
    "backtest": (
        "BENCHMARK",
        "POSITIVE",
        "WalkForwardConfig",
        "learning_step",
        "learning_y",
        "load_prices_csv",
        "load_universe_csv",
        "run_study",
        "write_calendar_csv",
        "write_kpis_json",
        "write_learning_y_csv",
        "write_levels_csv",
    ),
    "synth": ("generate", "parse_synth_spec", "write_prices_csv", "write_universe_csv"),
}
_MODULE_OF = {
    entry.split(" as ")[-1]: module for module, entries in _LAZY_NAMES.items() for entry in entries
}


def _bind(*modules: str) -> None:
    scope = globals()
    for module in modules:
        owner = importlib.import_module(f".{module}", __package__)
        for entry in _LAZY_NAMES[module]:
            name, _, alias = entry.partition(" as ")
            scope.setdefault(alias or name, getattr(owner, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


# ---------------------------------------------------------------------------
# run configuration


def _default_study():
    _bind("backtest")
    return WalkForwardConfig()


@dataclass
class RunConfig:
    """A config file's values: the run's own keys and the study it runs."""

    start_date: str = ""
    end_date: str = ""
    learning_years: str = "all"
    # inputs
    features: str = ""
    returns: str = ""
    universe: str = ""
    prices: str = ""
    # plumbing
    worker_count: int = 1  # no effect; kept so config files that set it still parse
    study: WalkForwardConfig = field(default_factory=_default_study)

    def as_dict(self) -> Dict[str, object]:
        """Every config key with its value, in --print-config order."""
        study_keys, run_keys, _ = _config_keys()
        values = [(key, getattr(self.study, name)) for key, name in study_keys.items()]
        values += [(key, getattr(self, key)) for key in run_keys]
        return {key: "auto" if v is None else v for key, v in values}


@functools.cache
def _config_keys():
    """The config keys, built on first use, as they need WalkForwardConfig:
    the field of each study key (its own name, except M for top_m;
    `workers` is not a key), the run's own keys, and each key's value type
    as its dataclass declares it. Optional[float] keys also take "auto"
    (None)."""
    _bind("backtest")
    study_keys = {
        "M" if f.name == "top_m" else f.name: f.name
        for f in fields(WalkForwardConfig)
        if f.name != "workers"
    }
    run_keys = [f.name for f in fields(RunConfig) if f.name != "study"]
    study_types = get_type_hints(WalkForwardConfig)
    run_types = get_type_hints(RunConfig, globals())
    key_types = {key: study_types[name] for key, name in study_keys.items()}
    key_types.update((key, run_types[key]) for key in run_keys)
    return study_keys, run_keys, key_types


def _convert(key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind == Optional[float]:
            return None if raw == "auto" else float(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for config key {key!r}") from None


def parse_config(path: Optional[str]) -> RunConfig:
    """The config file's values over the defaults. Every line is read before
    the config is built, so one range that spans keys (c_min < c_max) is
    checked on the file's final values, whatever their order."""
    if path is None:
        return RunConfig()
    study_keys, _, key_types = _config_keys()
    values: Dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = text.split("=", 1)
            key = key.strip()
            if key not in key_types:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _convert(key, raw, key_types[key])
    try:
        study = WalkForwardConfig(
            **{study_keys[k]: v for k, v in values.items() if k in study_keys}
        )
    except SpecMismatch as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(study=study, **{k: v for k, v in values.items() if k not in study_keys})
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    """The range check of the run's own keys, run before any input is read;
    WalkForwardConfig checks the study's."""
    import numpy as np
    if cfg.worker_count < 1:
        raise ConfigError(f"worker_count must be >= 1, got {cfg.worker_count!r}")
    window = {}
    for key in ("start_date", "end_date"):
        value = getattr(cfg, key)
        try:
            if value:
                window[key] = np.datetime64(value, "D")
        except ValueError:
            raise ConfigError(f"{key} must be an ISO date or empty, got {value!r}") from None
    if len(window) == 2 and window["start_date"] > window["end_date"]:
        raise ConfigError(f"start_date {cfg.start_date} is after end_date {cfg.end_date}")
    if cfg.learning_years not in ("all", "none"):
        try:
            years = [int(part) for part in cfg.learning_years.split(",")]
        except ValueError:
            raise ConfigError(
                f"learning_years must be 'all', 'none' or comma-separated "
                f"years, got {cfg.learning_years!r}"
            ) from None
        if len(set(years)) < len(years):
            raise ConfigError(f"learning_years repeats a year: {cfg.learning_years!r}")


def default_config_text() -> str:
    lines = []
    for key, value in RunConfig().as_dict().items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# manifests


def write_manifest(directory, subcommand: str, config: Dict[str, object], inputs) -> None:
    import numpy as np
    digests = {}
    for p in inputs:
        digest = read_digests.get(str(p))
        if digest is None:  # a JSON or config input, which no InputCsv read
            with open(p, "rb") as fh:
                digest = sha256_of(fh)
        digests[str(p)] = digest
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": digests,
        "versions": {
            "rulescreen": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
        },
    }
    path = Path(directory) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shared pieces


def _load_labeled_panel(features_path: str, returns_path: str):
    panel, specs = load_features_csv(features_path)
    panel = attach_returns(panel, load_returns_csv(returns_path))
    return panel, specs


def write_scores_csv(path, dates, stock_ids, y_hat, score) -> None:
    import numpy as np
    write_csv_columns(
        path,
        ["date", "stock_id", "y_hat", "score"],
        (dates, str_cells),
        (stock_ids, str_cells),
        (y_hat, float_cells),
        (np.asarray(score, dtype=np.int64), str_cells),
    )


# ---------------------------------------------------------------------------
# subcommands


def _parse_file(path: str, parse, error=SpecMismatch):
    """parse(the file's text); text that parse cannot read raises error(path)."""
    try:
        return parse(Path(path).read_text())
    except (ValueError, KeyError, TypeError, AttributeError, SpecMismatch) as exc:
        raise error(f"{path} does not parse: {exc!r}") from None


@contextlib.contextmanager
def _writing(directory):
    """The directory a subcommand writes its outputs to, created with its
    parents. An OSError raised while writing there is an OutputError, so it
    is not taken for a missing input."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        yield Path(directory)
    except OSError as exc:
        raise OutputError(f"cannot write to {directory}: {exc}") from None


def cmd_synth(args) -> int:
    blob = _parse_file(args.spec, json.loads, InconsistentSpec)
    spec = parse_synth_spec(blob)
    try:
        data = generate(spec)
    except MemoryError:
        raise InconsistentSpec(f"the market of {args.spec} does not fit in memory") from None
    with _writing(args.out) as out:
        write_features_csv(out / "features.csv", data.panel, data.specs)
        write_returns_csv(out / "returns.csv", data.panel)
        write_universe_csv(out / "universe.csv", data.universe)
        write_prices_csv(
            out / "prices.csv", data.price_dates, data.price_stock_ids, data.price_returns
        )
        write_manifest(out, "synth", {"spec": blob}, [args.spec])
    logger.info("synth: wrote %d panel rows to %s", data.panel.n, out)
    return 0


def cmd_learn(args) -> int:
    import numpy as np
    cfg = parse_config(args.config)
    panel, specs = _load_labeled_panel(args.panel, args.returns)
    keep = np.isfinite(panel.y)
    if not keep.any():
        raise EmptyPanel("returns attach to no feature rows")
    labeled = panel.take(keep)
    if labeled.n < 2:
        raise EmptyPanel(f"need at least 2 labeled rows, got {labeled.n}")
    rec = learning_step(labeled, specs, cfg.study, panel.dates.max())

    out = Path(args.out)
    with _writing(out.parent):
        out.write_text(rec.ruleset.to_json() + "\n")
        rec.report.to_csv(out.parent / "learn-report.csv")
        (out.parent / "discretizer.json").write_text(rec.discretizer.to_json() + "\n")
        (out.parent / "state.json").write_text(rec.state.to_json() + "\n")
        inputs = [args.panel, args.returns] + ([args.config] if args.config else [])
        write_manifest(out.parent, "learn", cfg.as_dict(), inputs)
    logger.info(
        "learn: %d rules (%d design rows, %d replay rows)",
        rec.ruleset.R,
        rec.n_design,
        rec.n_replay,
    )
    return 0


def cmd_score(args) -> int:
    import numpy as np
    try:
        asof = np.datetime64(args.asof, "D")
    except ValueError:
        raise ConfigError(f"--asof must be an ISO date, got {args.asof!r}") from None
    disc = _parse_file(args.discretizer, Discretizer.from_json)
    feature_ids = [s.feature_id for s in disc.specs]
    n_codes = [disc.n_codes(fid) for fid in feature_ids]
    ruleset = _parse_file(args.rules, lambda text: RuleSet.from_json(text, feature_ids, n_codes))
    state = _parse_file(args.state, AggregationState.from_json)
    if state.n_rules != ruleset.R:
        raise SpecMismatch(
            f"{args.state} has {state.n_rules} weights for the {ruleset.R} rules of {args.rules}"
        )
    panel, specs = load_features_csv(args.panel, specs=disc.specs)
    keep = panel.dates == asof
    if not keep.any():
        raise EmptyPanel(f"no feature rows dated {asof}")
    codes = apply_discretizer(panel.take(keep), disc)
    y_hat = predict_many(state, ruleset, codes.x)
    ternary = score_many(y_hat, state.epsilon)
    out = Path(args.out)
    with _writing(out.parent):
        write_scores_csv(out, codes.dates, codes.stock_ids, y_hat, ternary)
        write_manifest(
            out.parent,
            "score",
            {"asof": str(asof)},
            [args.rules, args.state, args.discretizer, args.panel],
        )
    return 0


def cmd_backtest(args) -> int:
    import numpy as np
    cfg = parse_config(args.config)
    for key in ("features", "returns", "universe", "prices"):
        if not getattr(cfg, key):
            raise ConfigError(f"backtest requires config key {key!r}")
    if not os.path.exists(cfg.prices):
        raise MissingPriceData(f"{cfg.prices} not found")
    panel, specs = _load_labeled_panel(cfg.features, cfg.returns)
    universe = load_universe_csv(cfg.universe)
    prices = load_prices_csv(cfg.prices)

    if cfg.start_date or cfg.end_date:
        lo = np.datetime64(cfg.start_date, "D") if cfg.start_date else prices.dates[0]
        hi = np.datetime64(cfg.end_date, "D") if cfg.end_date else prices.dates[-1]
        dmask = (prices.dates >= lo) & (prices.dates <= hi)
        prices = type(prices)(
            dates=prices.dates[dmask],
            stock_ids=prices.stock_ids,
            returns=prices.returns[dmask],
        )
        panel = panel.take((panel.dates >= lo) & (panel.dates <= hi))
        universe = type(universe)(
            {d: s for d, s in universe.snapshots.items() if lo <= d <= hi}
        )

    result = run_study(panel, specs, universe, prices, cfg.study)

    if cfg.learning_years == "none":
        frozen_years: List[int] = []
    elif cfg.learning_years == "all":
        frozen_years = [rec.year for rec in result.learnings]
    else:
        frozen_years = [int(p) for p in cfg.learning_years.split(",")]
    frozen_series = []
    for year in frozen_years:
        rep = learning_y(panel, specs, universe, prices, cfg.study, year)
        frozen_series.append(rep.series)

    with _writing(args.out) as out:
        write_levels_csv(out / "levels.csv", result.series)
        write_kpis_json(out / "kpis.json", result.reports)
        write_calendar_csv(out / "calendar.csv", result.reports)
        write_learning_y_csv(
            out / "learning-y.csv",
            result.series[POSITIVE],
            result.series[BENCHMARK],
            frozen_series,
        )
        inputs = [cfg.features, cfg.returns, cfg.universe, cfg.prices]
        if args.config:
            inputs.append(args.config)
        write_manifest(out, "backtest", cfg.as_dict(), inputs)
    logger.info("backtest: %d reviews, %d learnings", len(result.reviews), len(result.learnings))
    return 0


def to_float_list(cells) -> List[float]:
    """panel.to_floats without numpy: it reads the same cells alike."""
    return [float(cell) for cell in cells]


def cmd_report(args) -> int:
    directory = Path(args.dir)

    def kpi_rows(text: str) -> List[str]:
        blob = json.loads(text)
        return [
            "| {name} | {ann_performance:.2%} | {ann_volatility:.2%} | "
            "{sharpe:.2f} | {max_drawdown:.2%} | {information_ratio:.2f} | "
            "{ann_alpha:.2%} |".format(name=name, **blob[name])
            for name in sorted(blob)
        ]

    lines = ["# Backtest report", ""]
    header = ["strategy", "ann_perf", "ann_vol", "sharpe", "max_dd", "IR", "alpha"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    lines += _parse_file(directory / "kpis.json", kpi_rows)
    cal_path = directory / "calendar.csv"
    if cal_path.exists():
        lines += ["", "## Calendar-year excess vs benchmark", ""]
        calendar = InputCsv(
            cal_path, lambda h: h[:1] == ["year"], "calendar csv must start with a year column"
        )
        header = calendar.header
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for columns, records in calendar.records():
            excess = parse_columns(
                cal_path, records, *[(cells, to_float_list) for cells in columns[1:]]
            )
            for i, year in enumerate(columns[0]):
                cells = [year] + [f"{col[i]:.2%}" for col in excess]
                lines.append("| " + " | ".join(cells) + " |")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        with _writing(out.parent):
            out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulescreen",
        description="Rule-based stock screening: learn, score, backtest.",
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the default configuration and exit",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("learn", help="design rules on a labeled panel")
    p.add_argument("--panel", required=True, help="features.csv")
    p.add_argument("--returns", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="rules.json path")

    p = sub.add_parser("score", help="score one cross-section with saved rules")
    p.add_argument("--rules", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--discretizer", required=True)
    p.add_argument("--panel", required=True, help="features.csv")
    p.add_argument("--asof", required=True, help="ISO date to score")
    p.add_argument("--out", required=True, help="scores.csv path")

    p = sub.add_parser("backtest", help="run the walk-forward study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="report directory")

    p = sub.add_parser("report", help="render a backtest directory as markdown")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", default=None)

    return parser


# Each subcommand, and the modules of _LAZY_NAMES whose names it calls.
_DISPATCH = {
    "synth": (cmd_synth, ("panel", "synth")),
    "learn": (cmd_learn, ("panel", "backtest")),
    "score": (cmd_score, ("panel", "aggregate", "rules")),
    "backtest": (cmd_backtest, ("panel", "backtest")),
    "report": (cmd_report, ()),
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.print_config:
        sys.stdout.write(default_config_text())
        return 0
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    command, modules = _DISPATCH[args.subcommand]
    _bind(*modules)
    read_digests.clear()
    try:
        return command(args)
    except ValidationError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 1
    except (DataError, OutputError) as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 2
    except FileNotFoundError as exc:
        logger.error("missing input file: %s", exc)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
