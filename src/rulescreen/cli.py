"""Command-line entry point.

One binary, five subcommands (synth, learn, score, backtest, report).
Configuration is a flat `key = value` text file whose defaults print with
--print-config; every run drops a manifest.json next to its outputs with the
effective config, sha256 of each input file, and library versions, so a run
can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, get_type_hints

import numpy as np

from . import __version__
from .aggregate import (
    AggregationState,
    predict_many,
    score_many,
    update,  # noqa: F401  (the name perfbench/tracing.py wraps as cli.update)
)
from .backtest import (
    BENCHMARK,
    POSITIVE,
    WalkForwardConfig,
    learning_step,
    learning_y,
    load_prices_csv,
    load_universe_csv,
    run_study,
    write_calendar_csv,
    write_kpis_json,
    write_learning_y_csv,
    write_levels_csv,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyPanel,
    InconsistentSpec,
    MissingPriceData,
    SpecMismatch,
    ValidationError,
)
from .panel import (
    Discretizer,
    InputCsv,
    apply_discretizer,
    attach_returns,
    fit_discretizer,  # noqa: F401  (the name perfbench/tracing.py wraps)
    float_cells,
    load_features_csv,
    load_returns_csv,
    parse_columns,
    sha256_of,
    str_cells,
    to_floats,
    write_csv_columns,
    write_features_csv,
    write_returns_csv,
)
from .rulegen import learn as learn_rules  # noqa: F401  (the name perfbench/tracing.py wraps)
from .rules import Condition, Interval, RuleSet
from .synth import (
    PlantedRule,
    SynthSpec,
    generate,
    write_prices_csv,
    write_universe_csv,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    # rule search
    m: int = 10
    alpha: float = 0.05
    c_min: float = 0.05
    c_max: float = 0.5
    cp_max: int = 2
    M: int = 50
    z_kind: str = "gaussian"
    # aggregation
    eta: Optional[float] = None  # None = auto
    loss_clip: float = 1.0
    epsilon: Optional[float] = None  # None = auto
    learn_fraction: float = 0.25
    # study layout
    horizon_days: int = 63
    initial_train_years: int = 3
    best_in_class_x: float = 0.30
    score_lag_days: int = 4
    periods_per_year: float = 252.0
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

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = "auto" if v is None else v
        return out


# Each key's value type, as RunConfig declares it; Optional[float] keys also
# take "auto" (None).
_KEY_TYPES = get_type_hints(RunConfig, globals())


def _convert(key: str, raw: str):
    raw = raw.strip()
    kind = _KEY_TYPES[key]
    try:
        if kind == Optional[float]:
            return None if raw == "auto" else float(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for config key {key!r}") from None


def parse_config(path: Optional[str]) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = text.split("=", 1)
            key = key.strip()
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg = replace(cfg, **{key: _convert(key, raw)})
    _validate_config(cfg)
    return cfg


# The range of each config key that SearchParams does not check. The
# comparisons are written so that nan fails them.
_RANGES = {
    "eta": (lambda v: v is None or v >= 0.0, ">= 0 or auto"),
    "epsilon": (lambda v: v is None or v >= 0.0, ">= 0 or auto"),
    "m": (lambda v: v >= 2, ">= 2"),
    "loss_clip": (lambda v: v > 0.0, "> 0"),
    "learn_fraction": (lambda v: 0.0 < v < 1.0, "in (0,1)"),
    "horizon_days": (lambda v: v >= 1, ">= 1"),
    "initial_train_years": (lambda v: v >= 1, ">= 1"),
    "best_in_class_x": (lambda v: 0.0 <= v < 1.0, "in [0,1)"),
    "score_lag_days": (lambda v: v >= 0, ">= 0"),
    "periods_per_year": (lambda v: v > 0.0, "> 0"),
    "worker_count": (lambda v: v >= 1, ">= 1"),
}


def _validate_config(cfg: RunConfig) -> None:
    """The one range check of a config file's values, run before any input
    is read."""
    try:
        _cfg_to_walk(cfg).search_params()
    except SpecMismatch as exc:
        raise ConfigError(str(exc)) from None
    for key, (ok, wanted) in _RANGES.items():
        value = getattr(cfg, key)
        if not ok(value):
            raise ConfigError(f"{key} must be {wanted}, got {value!r}")
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
            [int(part) for part in cfg.learning_years.split(",")]
        except ValueError:
            raise ConfigError(
                f"learning_years must be 'all', 'none' or comma-separated "
                f"years, got {cfg.learning_years!r}"
            ) from None


def default_config_text() -> str:
    lines = []
    for key, value in RunConfig().as_dict().items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# manifests


def write_manifest(directory, subcommand: str, config: Dict[str, object], inputs) -> None:
    digests = {}
    for p in inputs:
        with open(p, "rb") as fh:
            digests[str(p)] = sha256_of(fh)
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
    write_csv_columns(
        path,
        ["date", "stock_id", "y_hat", "score"],
        (dates, str_cells),
        (stock_ids, str_cells),
        (y_hat, float_cells),
        (np.asarray(score, dtype=np.int64), str_cells),
    )


def _cfg_to_walk(cfg: RunConfig) -> WalkForwardConfig:
    """The run's study config; its search_params() maps the rule-search keys."""
    return WalkForwardConfig(
        initial_train_years=cfg.initial_train_years,
        horizon_days=cfg.horizon_days,
        learn_fraction=cfg.learn_fraction,
        m=cfg.m,
        alpha=cfg.alpha,
        c_min=cfg.c_min,
        c_max=cfg.c_max,
        cp_max=cfg.cp_max,
        top_m=cfg.M,
        z_kind=cfg.z_kind,
        loss_clip=cfg.loss_clip,
        eta=cfg.eta,
        epsilon=cfg.epsilon,
        bic_x=cfg.best_in_class_x,
        score_lag_days=cfg.score_lag_days,
        periods_per_year=cfg.periods_per_year,
    )


# ---------------------------------------------------------------------------
# subcommands


def _parse_file(path: str, parse, error=SpecMismatch):
    """parse(the file's text); text that parse cannot read raises error(path)."""
    try:
        return parse(Path(path).read_text())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise error(f"{path} does not parse: {exc!r}") from None


def cmd_synth(args) -> int:
    blob = _parse_file(args.spec, json.loads, InconsistentSpec)
    spec = parse_synth_spec(blob)
    data = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_features_csv(out / "features.csv", data.panel, data.specs)
    write_returns_csv(out / "returns.csv", data.panel)
    write_universe_csv(out / "universe.csv", data.universe)
    write_prices_csv(
        out / "prices.csv", data.price_dates, data.price_stock_ids, data.price_returns
    )
    write_manifest(out, "synth", {"spec": blob}, [args.spec])
    logger.info("synth: wrote %d panel rows to %s", data.panel.n, out)
    return 0


def parse_synth_spec(blob: Dict) -> SynthSpec:
    if not isinstance(blob, dict):
        raise InconsistentSpec("a synth spec must be a JSON object")
    known = {f.name for f in fields(SynthSpec)}
    unknown = set(blob) - known
    if unknown:
        raise InconsistentSpec(f"unknown synth spec keys {sorted(unknown)}")

    def parse_rule(entry) -> PlantedRule:
        intervals = tuple(
            Interval(int(iv["feature_index"]), int(iv["lo"]), int(iv["hi"]))
            for iv in entry["intervals"]
        )
        return PlantedRule(condition=Condition(intervals), effect=float(entry["effect"]))

    try:
        kwargs = dict(blob, planted=[parse_rule(e) for e in blob.get("planted", [])])
        shift = blob.get("regime_shift")
        if shift is not None:
            kwargs["regime_shift"] = (
                str(shift["date"]),
                [parse_rule(e) for e in shift.get("replacement", [])],
            )
        spec = SynthSpec(**kwargs)
        spec.validate()
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InconsistentSpec(f"bad synth spec: {exc!r}") from None
    return spec


def cmd_learn(args) -> int:
    cfg = parse_config(args.config)
    panel, specs = _load_labeled_panel(args.panel, args.returns)
    keep = np.isfinite(panel.y)
    if not keep.any():
        raise EmptyPanel("returns attach to no feature rows")
    labeled = panel.take(keep)
    if labeled.n < 2:
        raise EmptyPanel(f"need at least 2 labeled rows, got {labeled.n}")
    rec = learning_step(labeled, specs, _cfg_to_walk(cfg), panel.dates.max())

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
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
    out.parent.mkdir(parents=True, exist_ok=True)
    write_scores_csv(out, codes.dates, codes.stock_ids, y_hat, ternary)
    write_manifest(
        out.parent,
        "score",
        {"asof": str(asof)},
        [args.rules, args.state, args.discretizer, args.panel],
    )
    return 0


def cmd_backtest(args) -> int:
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

    wcfg = _cfg_to_walk(cfg)
    result = run_study(panel, specs, universe, prices, wcfg)

    if cfg.learning_years == "none":
        frozen_years: List[int] = []
    elif cfg.learning_years == "all":
        frozen_years = [rec.year for rec in result.learnings]
    else:
        frozen_years = [int(p) for p in cfg.learning_years.split(",")]
    frozen_series = []
    for year in frozen_years:
        rep = learning_y(panel, specs, universe, prices, wcfg, year)
        frozen_series.append(rep.series)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        columns, records = calendar.records()
        excess = parse_columns(cal_path, records, *[(cells, to_floats) for cells in columns[1:]])
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for i, year in enumerate(columns[0]):
            cells = [year] + [f"{col[i]:.2%}" for col in excess]
            lines.append("| " + " | ".join(cells) + " |")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
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


_DISPATCH = {
    "synth": cmd_synth,
    "learn": cmd_learn,
    "score": cmd_score,
    "backtest": cmd_backtest,
    "report": cmd_report,
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
    try:
        return _DISPATCH[args.subcommand](args)
    except ValidationError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 1
    except DataError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 2
    except FileNotFoundError as exc:
        logger.error("missing input file: %s", exc)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
