"""The benchmark workloads.

Each workload builds its inputs from the benchmark seed (`setup`) and then
runs passes of its operations (`run_pass`), one operation at a time from a
single caller. `Ops` times every operation; every output is checked and
hashed, and a pass returns the sha256 of each output, so the harness can
require equal digests across passes and between untraced and traced passes.
`stages` maps the median time of each operation to the workload's stage
times.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from rulescreen import backtest, synth
from rulescreen.backtest import BENCHMARK, BEST_IN_CLASS, NEGATIVE, POSITIVE, POSITIVE_SM
from rulescreen.rules import Condition, Interval

LEGS = (BENCHMARK, POSITIVE, POSITIVE_SM, NEGATIVE, BEST_IN_CLASS)
KPI_KEYS = (
    "ann_performance",
    "ann_volatility",
    "sharpe",
    "max_drawdown",
    "information_ratio",
    "ann_alpha",
)


class HostProbe:
    """A fixed mix of numpy masking and pure-Python dict updates, the two
    kinds of work the library does, on data of its own: it uses nothing from
    the library, so its time measures only how fast the host runs Python and
    numpy at that moment."""

    ROWS, COLS, LOOP = 24_000, 40, 16_000

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.integers(0, 10, (self.ROWS, self.COLS), dtype=np.int8)
        self.y = rng.random(self.ROWS)

    def __call__(self) -> float:
        """The faster of two back-to-back runs, so that caches an operation
        left cold do not count."""
        return min(self._once(), self._once())

    def _once(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for j in range(0, self.COLS, 2):
            mask = (self.x[:, j] >= 2) & (self.x[:, j] <= 5) & (self.x[:, (j + 7) % self.COLS] <= 6)
            total += float(self.y[mask].sum())
        state: Dict[int, float] = {}
        for i in range(self.LOOP):
            key = i % 97
            state[key] = state.get(key, total) * 0.9 + i * 1e-3
        return time.perf_counter() - start


class CheckFailed(Exception):
    """An output of an operation is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digests(root: Path) -> Dict[str, str]:
    return {
        str(p.relative_to(root)): _sha(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class Ops:
    """Runs operations one at a time: times each, counts the attempts and the
    failures (an exception, a non-zero exit or a failed output check), and
    keeps the peak RSS of the child processes it starts."""

    def __init__(self, env: Dict[str, str]):
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.peak_child_kb = 0
        self.seconds: Dict[str, float] = {}  # operation -> its last wall time
        self.tracer = None  # set while the traced pass runs
        # While set, `probe` is timed just before and just after every
        # operation, and `probe_seconds` keeps the mean of the two.
        self.probe: Optional[Callable[[], float]] = None
        self.probe_seconds: Dict[str, float] = {}

    def _timed(self, name: str, start: float, probe_before: Optional[float]) -> None:
        self.seconds[name] = time.perf_counter() - start
        if probe_before is not None:
            self.probe_seconds[name] = (probe_before + self.probe()) / 2

    def fail(self, name: str, message: str) -> None:
        self.failed += 1
        print(f"FAILED {name}: {message}", file=sys.stderr)

    def call(self, name: str, fn: Callable, check: Optional[Callable] = None,
             span: Optional[str] = None, run_id: Optional[str] = None):
        """Run fn() as one operation; return its result, or None if it raised."""
        self.attempted += 1
        before = self.probe() if self.probe is not None else None
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                with self.tracer.span(span or f"op.{name}", run_id):
                    result = fn()
        except Exception:
            self._timed(name, start, before)
            self.fail(name, traceback.format_exc())
            return None
        self._timed(name, start, before)
        if check is not None:
            try:
                check(result)
            except CheckFailed as exc:
                self.fail(name, str(exc))
        return result

    def cli(self, name: str, argv: List[str], cwd: Path, inproc: bool,
            check: Optional[Callable] = None) -> None:
        """One `rulescreen` stage: a fresh process, or `cli.run(argv)` in this
        process for the traced run."""
        log = cwd / "logs" / f"{name}.err"

        def child() -> int:
            log.parent.mkdir(exist_ok=True)
            with open(log, "w") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "rulescreen.cli", *argv],
                    cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                )
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
            return proc.returncode

        def in_process() -> int:
            from rulescreen import cli

            previous = os.getcwd()
            os.chdir(cwd)
            try:
                return cli.run(list(argv))
            finally:
                os.chdir(previous)

        def checked(code: int) -> None:
            if code != 0:
                detail = log.read_text()[-2000:] if log.exists() and not inproc else ""
                raise CheckFailed(f"exit code {code}\n{detail}")
            if check is not None:
                check()

        self.call(name, in_process if inproc else child, checked,
                  span=f"cli.stage.{argv[0]}", run_id="market")


def _planted_json(rule: synth.PlantedRule) -> dict:
    return {
        "intervals": [
            {"feature_index": iv.feature_index, "lo": iv.lo, "hi": iv.hi}
            for iv in rule.condition.intervals
        ],
        "effect": rule.effect,
    }


def _condition(*intervals: Tuple[int, int, int]) -> Condition:
    return Condition(tuple(Interval(*iv) for iv in intervals))


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """`rulescreen synth` once per set-up; then per pass `learn`, `score` on
    N_ASOF dates, `backtest` with learning_years = all and `report`, each a
    fresh process with worker_count = 1."""

    name = "cli_pipeline"
    runs_processes = True
    setups = 3
    N_STOCKS, N_DATES, D, M = 20, 1260, 8, 10
    EFFECT, NOISE = 0.08, 0.02
    N_ASOF = 2
    LEARN_FRACTION = 0.25
    CONFIG = (
        "m = 10\n"
        "c_max = 0.5\n"
        f"learn_fraction = {LEARN_FRACTION}\n"
        "initial_train_years = 3\n"
        "learning_years = all\n"
        "worker_count = 1\n"
        "features = data/features.csv\n"
        "returns = data/returns.csv\n"
        "universe = data/universe.csv\n"
        "prices = data/prices.csv\n"
    )

    def __init__(self, seed: int, workdir: Path, ops: Ops):
        self.dir, self.ops = workdir, ops
        rng = np.random.default_rng(seed)
        pos_f, neg_f = (int(f) for f in rng.choice(np.arange(1, self.D), 2, replace=False))
        pos_lo, neg_lo = (int(v) for v in rng.integers(0, self.M - 2, size=2))
        self.planted = [
            synth.PlantedRule(_condition((pos_f, pos_lo, pos_lo + 2)), self.EFFECT),
            synth.PlantedRule(_condition((neg_f, neg_lo, neg_lo + 2)), -self.EFFECT),
        ]
        self.spec = {
            "n_stocks": self.N_STOCKS,
            "n_dates": self.N_DATES,
            "d": self.D,
            "m": self.M,
            "planted": [_planted_json(p) for p in self.planted],
            "noise_sigma": self.NOISE,
            "seed": seed,
            "horizon_days": 63,
            "sector_feature": 0,
        }
        grid = synth.business_day_grid(synth.DEFAULT_START, self.N_DATES)
        picks = rng.choice(len(grid) - 252 + np.arange(252), self.N_ASOF, replace=False)
        self.asof = [str(grid[i]) for i in sorted(picks)]
        self.design_mean: Optional[float] = None

    def setup(self, inproc: bool = False) -> Dict[str, str]:
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "spec.json").write_text(json.dumps(self.spec, indent=2) + "\n")
        (self.dir / "run.cfg").write_text(self.CONFIG)
        shutil.rmtree(self.dir / "data", ignore_errors=True)
        self.ops.cli("synth", ["synth", "--spec", "spec.json", "--out", "data"], self.dir, inproc)
        return _tree_digests(self.dir / "data")

    def sizes(self) -> Dict[str, object]:
        data = self.dir / "data"
        with open(data / "returns.csv") as fh:
            labelled = sum(1 for _ in fh) - 1
        return {
            "stocks": self.N_STOCKS,
            "dates": self.N_DATES,
            "rows": self.N_STOCKS * self.N_DATES,
            "labelled_rows": labelled,
            "d": self.D,
            "m": self.M,
            "csv_bytes": {p.name: p.stat().st_size for p in sorted(data.glob("*.csv"))},
        }

    def _design_mean(self) -> float:
        """Mean label of the design rows `learn` searches: the first
        learn_fraction of the labelled rows in (date, stock_id) order."""
        with open(self.dir / "data" / "returns.csv", newline="") as fh:
            rows = sorted((r[0], r[1], float(r[2])) for r in list(csv.reader(fh))[1:])
        n_design = max(1, min(len(rows) - 1, math.floor(self.LEARN_FRACTION * len(rows))))
        return sum(r[2] for r in rows[:n_design]) / n_design

    def _check_rules(self) -> None:
        if self.design_mean is None:
            self.design_mean = self._design_mean()
        rules = json.loads((self.dir / "pass" / "learn" / "rules.json").read_text())
        found = {
            (iv["feature_id"], int(np.sign(r["prediction"] - self.design_mean)))
            for r in rules
            if not r.get("is_default")
            for iv in r["intervals"]
        }
        for p in self.planted:
            feature = f"f{p.condition.intervals[0].feature_index}"
            sign = int(np.sign(p.effect))
            _require((feature, sign) in found,
                     f"planted rule on {feature} (sign {sign:+d}) not among selected rules")

    def _check_scores(self, path: Path, asof: str) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["date", "stock_id", "y_hat", "score"], f"{path.name}: bad header")
        body = rows[1:]
        _require(len(body) == self.N_STOCKS, f"{path.name}: {len(body)} rows, want {self.N_STOCKS}")
        _require({r[1] for r in body} == {f"S{i:04d}" for i in range(self.N_STOCKS)},
                 f"{path.name}: not one row per stock")
        _require(all(r[0] == asof for r in body), f"{path.name}: rows not dated {asof}")
        _require(all(r[3] in ("-1", "0", "1") for r in body), f"{path.name}: score outside {{-1,0,1}}")
        _require(all(math.isfinite(float(r[2])) for r in body), f"{path.name}: non-finite y_hat")

    def _check_backtest(self) -> None:
        blob = json.loads((self.dir / "pass" / "bt" / "kpis.json").read_text())
        _require(sorted(blob) == sorted(LEGS), f"kpis.json legs {sorted(blob)}")
        for leg, k in blob.items():
            _require(all(math.isfinite(k[key]) for key in KPI_KEYS), f"kpis.json: non-finite KPI in {leg}")

    def _check_report(self) -> None:
        text = (self.dir / "pass" / "report.md").read_text()
        _require(text.startswith("# Backtest report") and all(leg in text for leg in LEGS),
                 "report.md misses a leg")

    def run_pass(self, inproc: bool = False) -> Dict[str, str]:
        out = self.dir / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        ops, cwd = self.ops, self.dir
        learn = "pass/learn"
        ops.cli("learn", [
            "learn", "--panel", "data/features.csv", "--returns", "data/returns.csv",
            "--config", "run.cfg", "--out", f"{learn}/rules.json",
        ], cwd, inproc, self._check_rules)
        for asof in self.asof:
            target = f"pass/scores-{asof}.csv"
            ops.cli(f"score-{asof}", [
                "score", "--rules", f"{learn}/rules.json", "--state", f"{learn}/state.json",
                "--discretizer", f"{learn}/discretizer.json", "--panel", "data/features.csv",
                "--asof", asof, "--out", target,
            ], cwd, inproc, lambda t=target, a=asof: self._check_scores(cwd / t, a))
        ops.cli("backtest", ["backtest", "--config", "run.cfg", "--out", "pass/bt"],
                cwd, inproc, self._check_backtest)
        ops.cli("report", ["report", "--dir", "pass/bt", "--out", "pass/report.md"],
                cwd, inproc, self._check_report)
        return _tree_digests(out)

    def stages(self, op_seconds: Dict[str, float]) -> Dict[str, float]:
        return {
            "learn_s": op_seconds["learn"],
            "score_s": statistics.median(op_seconds[f"score-{a}"] for a in self.asof),
            "backtest_s": op_seconds["backtest"],
            "report_s": op_seconds["report"],
        }

    def peak_rss_mb(self) -> float:
        return self.ops.peak_child_kb / 1024.0


# ---------------------------------------------------------------------------
# study_regime


E1, E2, E3 = 0.08, 0.10, 0.08
PRE_RULES = [
    synth.PlantedRule(_condition((1, 3, 4)), E1),
    synth.PlantedRule(_condition((2, 0, 1)), -E1),
    synth.PlantedRule(_condition((0, 3, 4)), E2),
    synth.PlantedRule(_condition((4, 3, 4)), E3),
]
POST_RULES = PRE_RULES[:3] + [synth.PlantedRule(_condition((4, 3, 4)), -E3)]
REGIME_CFG = backtest.WalkForwardConfig(
    initial_train_years=3, learn_fraction=0.75, m=5, c_max=0.7, top_m=20,
    epsilon=0.01, workers=1,
)


def regime_spec(seed: int) -> synth.SynthSpec:
    """40 stocks x 7 years x d=6 with four planted rules, one of which flips
    sign on 2012-01-03."""
    return synth.SynthSpec(
        n_stocks=40, n_dates=7 * 252, d=6, m=5, planted=PRE_RULES,
        regime_shift=("2012-01-03", POST_RULES), noise_sigma=0.02,
        seed=seed, horizon_days=63, sector_feature=0,
    )


def _series_bytes(series) -> bytes:
    return series.dates.astype("datetime64[D]").tobytes() + series.values.tobytes()


def _kpi_bytes(kpis) -> bytes:
    blob = dict(kpis.as_dict(), calendar={str(k): v for k, v in kpis.calendar_excess.items()})
    return json.dumps(blob, sort_keys=True).encode()


def _finite_kpis(kpis, label: str) -> None:
    values = list(kpis.as_dict().values()) + list(kpis.calendar_excess.values())
    _require(all(math.isfinite(v) for v in values), f"{label}: non-finite KPI")


class StudyRegime:
    """`backtest.run_study` and `backtest.learning_y` for every learning year
    on N_MARKETS regime-shift markets."""

    name = "study_regime"
    runs_processes = False
    setups = 5
    N_MARKETS = 2

    def __init__(self, seed: int, workdir: Path, ops: Ops):
        self.ops = ops
        self.market_seeds = [seed * self.N_MARKETS + i for i in range(self.N_MARKETS)]
        self.markets: List[tuple] = []

    def _build(self, market_seed: int) -> tuple:
        data = synth.generate(regime_spec(market_seed))
        universe = backtest.UniverseTable.from_rows(data.universe)
        prices = backtest.PriceTable(data.price_dates, data.price_stock_ids, data.price_returns)
        return data, universe, prices

    def setup(self, inproc: bool = True) -> Dict[str, str]:
        self.markets = []
        digests = {}
        for i, s in enumerate(self.market_seeds):
            built = self.ops.call(f"setup-m{i}", lambda s=s: self._build(s), run_id=f"market{i}")
            if built is None:
                raise RuntimeError("study_regime set-up failed")
            data, _, prices = built
            digests[f"market{i}"] = _sha(
                b"".join(c.tobytes() for c in data.panel.columns)
                + data.panel.y.tobytes() + prices.returns.tobytes()
            )
            self.markets.append(built)
        return digests

    def sizes(self) -> Dict[str, object]:
        data = self.markets[0][0]
        return {"markets": self.N_MARKETS, "market_seeds": self.market_seeds,
                "stocks": data.spec.n_stocks, "dates": data.spec.n_dates,
                "rows_per_market": int(data.panel.n), "d": data.spec.d, "m": data.spec.m}

    def run_pass(self, inproc: bool = True) -> Dict[str, str]:
        digests: Dict[str, str] = {}
        for i, (data, universe, prices) in enumerate(self.markets):
            args = (data.panel, data.specs, universe, prices, REGIME_CFG)

            def check_study(res, i=i) -> None:
                _require(sorted(res.reports) == sorted(LEGS), f"market{i}: legs {sorted(res.reports)}")
                digests[f"market{i}/study"] = _sha(
                    b"".join(_series_bytes(res.series[leg]) + _kpi_bytes(res.reports[leg].kpis)
                             for leg in LEGS)
                )
                for leg, rep in res.reports.items():
                    _finite_kpis(rep.kpis, f"market{i} {leg}")

            res = self.ops.call(f"m{i}/run_study", lambda: backtest.run_study(*args),
                                check_study, run_id=f"market{i}")
            if res is None:
                continue
            for year in [rec.year for rec in res.learnings]:

                def check_frozen(rep, year=year, i=i) -> None:
                    digests[f"market{i}/learning{year}"] = _sha(
                        _series_bytes(rep.series) + _kpi_bytes(rep.kpis))
                    _finite_kpis(rep.kpis, f"market{i} learning {year}")
                    ws = res.series[POSITIVE]
                    _require(np.array_equal(rep.series.dates, ws.dates),
                             f"market{i} learning {year}: date grid differs")
                    first = rep.series.dates.astype("datetime64[Y]").astype(int) + 1970 <= year + 1
                    _require(np.array_equal(rep.series.values[first], ws.values[first]),
                             f"market{i} learning {year}: differs from the walk-forward "
                             f"Positive ML leg before {year + 2}")

                self.ops.call(
                    f"m{i}/learning_y{year}",
                    lambda year=year: backtest.learning_y(*args, year),
                    check_frozen, run_id=f"market{i}",
                )
        return digests

    def stages(self, op_seconds: Dict[str, float]) -> Dict[str, float]:
        return {
            "study_s": sum(v for k, v in op_seconds.items() if k.endswith("/run_study")),
            "frozen_s": sum(v for k, v in op_seconds.items() if "/learning_y" in k),
        }

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOAD_CLASSES = {cls.name: cls for cls in (CliPipeline, StudyRegime)}
