"""Golden digests of the study engine and of the CLI's output files.

The walk-forward study and the frozen-year study for every learning year are
hashed output by output on one small regime-shift market: each leg's level
series and weight history, its KPIs, every score, every learning, and each
frozen series with its KPIs. A refactor of `backtest` that keeps behaviour
byte for byte keeps every digest. The CLI digests cover the four CSV files
`synth` writes and every file `learn`, `score`, `backtest` and `report`
write on the acceptance suite's criterion-10 market, so they pin the
CSV writer and the CSV loaders. That market's `features.csv` and
`prices.csv` have 12,096 records each, more than one block of the writer.
The pinned values were computed with numpy 2.4 on an x86-64 CPU with
AVX-512. They pin last bits, and the same numpy moves those on another
x86-64 CPU: without AVX-512, or with a pre-Haswell OpenBLAS kernel, one to
three of the golden tests fail (numpy's exp, log1p and expm1 and
OpenBLAS's gemv give different last bits there).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rulescreen
from rulescreen.backtest import (
    PriceTable,
    UniverseTable,
    WalkForwardConfig,
    learning_y,
    run_study,
)
from rulescreen.cli import run
from rulescreen.panel import CACHE_DIR
from rulescreen.rules import Condition, Interval
from rulescreen.synth import PlantedRule, SynthSpec, business_day_grid, generate
from test_acceptance import CFG10, SPEC10


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


PRE_RULES = [
    PlantedRule(C((1, 3, 4)), 0.08),
    PlantedRule(C((2, 0, 1)), -0.08),
    PlantedRule(C((0, 3, 4)), 0.10),
    PlantedRule(C((4, 3, 4)), 0.08),
]
POST_RULES = PRE_RULES[:3] + [PlantedRule(C((4, 3, 4)), -0.08)]
CFG = WalkForwardConfig(initial_train_years=3, learn_fraction=0.75, m=5,
                        c_max=0.7, top_m=20, epsilon=0.01)

GOLDEN = {
    "series/Benchmark": "cbc5cfe5a45f0606ba449cba4e3dca091a306a58a780e348269d6d45da0d069c",
    "series/Positive ML": "978b35658f362160049d96de0ffce2b43470fc10afbc0a99ac77f4029d05c4af",
    "series/Positive Sector-Matched": "8691aa683b9c2b21413b987e40d8131a06a29a23aa97aec3064806ed1a8e298e",
    "series/Negative ML": "0fd3a26cb739c20c858370193e192c058b450a2cb8cc6e7f16083d16676bbda8",
    "series/Best-in-class 30%": "cb7c3c066438c652246e7fc86a5699f4174c96189e5e1bf9278e5b2b6a5c2d2a",
    "kpis/Benchmark": "70daea42672861b59f83aca76cb3a2079654ae86630b5bbe4dc643a033d14a04",
    "kpis/Positive ML": "99ff7d2268fa5870b32a56f071f74caa4c81978704172dcbeb894b730ab1bdc2",
    "kpis/Positive Sector-Matched": "d61d425249128e9e26a23d9851dd9b3c854f0c5c5f8eea6527e5e8c7a53b4899",
    "kpis/Negative ML": "0c6c7630aad162501e29ab0ba6536bc77e24adb255cafbf2b4a8b7c8267a3938",
    "kpis/Best-in-class 30%": "b77256ec23cd73bdd7623d3fb50189958500b5311b999414feffcca09cf9992a",
    "scores": "4a36e2b0ddc69a61dd0124887e067e0f58db1a6847c0881d6b21ad269cb5db71",
    "learnings": "f1d5b93b9d5515bf51a350d5b92fed6e3cc5cd0b3b9639c15f62d64cc2aa5819",
    "reviews": "3a97cbaf4a82c20754584dae70fb17bf0196324b06a487c4075d22af1ac0bd16",
    "frozen2013/series/Benchmark": "cbc5cfe5a45f0606ba449cba4e3dca091a306a58a780e348269d6d45da0d069c",
    "frozen2013/series/Positive ML": "be35c370d9d87544310de1a2d81fe752ce27d1d7e9b2084d7a4d46899b4315b0",
    "frozen2013/series/Positive Sector-Matched": "37add313724058974f219faeb909b1348ed7b563efde8feb05729dbb9931a667",
    "frozen2013/series/Negative ML": "a6557aba34234c05e3993f879f881250a1018e4afa2fe3a6acb56535df535486",
    "frozen2013/series/Best-in-class 30%": "cb7c3c066438c652246e7fc86a5699f4174c96189e5e1bf9278e5b2b6a5c2d2a",
    "frozen2013/kpis/Benchmark": "70daea42672861b59f83aca76cb3a2079654ae86630b5bbe4dc643a033d14a04",
    "frozen2013/kpis/Positive ML": "18fea85c16ce44e0d30fa339febae3c3da2fdcbbb773bfb17455b8b114c90e79",
    "frozen2013/kpis/Positive Sector-Matched": "26f95841454d77288c5efde40813757a23295c1135ee2e92172d240066ee3a71",
    "frozen2013/kpis/Negative ML": "af6ad5f409338cb91b2404234d343504dac4997c2e582dd7b85868c28d6af63b",
    "frozen2013/kpis/Best-in-class 30%": "b77256ec23cd73bdd7623d3fb50189958500b5311b999414feffcca09cf9992a",
    "frozen2013/scores": "05fc8316f5a9f4fa8d4446614cab2a98ef8c478fe6ab1e2edc206074a000907d",
    "frozen2013/learnings": "ea161a98c90fbef5894c9bf69a6aef2ed1916acb5e24001bef8302aebb866e43",
    "frozen2013/reviews": "3a97cbaf4a82c20754584dae70fb17bf0196324b06a487c4075d22af1ac0bd16",
    "learning2012": "c1d142903bcbee0263b7fd7a9053476b9dcbc7bacbd3afec7f94643f77db4112",
    "learning2013": "7bab32e4e1062a827a6229ea6e98b863836d8e262439560432d3acaebc114a62",
    "learning2014": "b9f70dc1a3d2c25a25f33508ed6d95da64ecbcc8eb24d1838954f203f89309bd",
    "learning2015": "f97428bcc4aa79d94c51c7d64d976291af8c323aebf0fbd11b43411811071d93",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def series_bytes(series) -> bytes:
    out = series.dates.astype("datetime64[D]").tobytes() + series.values.tobytes()
    for date, ids, weights in series.weights_history:
        out += str(date).encode() + "|".join(map(str, ids)).encode() + weights.tobytes()
    return out


def kpi_bytes(kpis) -> bytes:
    blob = dict(kpis.as_dict(),
                calendar={str(k): v for k, v in kpis.calendar_excess.items()})
    return json.dumps(blob, sort_keys=True).encode()


def score_bytes(scores) -> bytes:
    """The score columns as JSON: each date with its (stock_id, (y_hat,
    ternary)) pairs in stock id order."""
    by_day = {}
    for day, sid, y, s in zip(scores.dates.tolist(), scores.stock_ids.tolist(),
                              scores.y_hat.tolist(), scores.ternary.tolist()):
        by_day.setdefault(str(day), {})[sid] = (y, s)
    return json.dumps(
        [[day, sorted(per_stock.items())] for day, per_stock in sorted(by_day.items())]
    ).encode()


def learning_bytes(rec) -> bytes:
    head = json.dumps([str(rec.date), rec.year, rec.epsilon, rec.n_design, rec.n_replay])
    return head.encode() + rec.ruleset.to_json().encode()


@pytest.fixture(scope="module")
def market():
    spec = SynthSpec(
        n_stocks=20, n_dates=6 * 252, d=5, m=5, planted=PRE_RULES,
        regime_shift=("2012-01-03", POST_RULES), noise_sigma=0.02,
        seed=3, horizon_days=63, sector_feature=0,
    )
    data = generate(spec)
    universe = UniverseTable.from_rows(data.universe)
    prices = PriceTable(data.price_dates, data.price_stock_ids, data.price_returns)
    return data.panel, data.specs, universe, prices


def result_digests(res, prefix=""):
    digests = {
        f"{prefix}series/{name}": sha(series_bytes(s)) for name, s in res.series.items()
    }
    digests.update(
        {f"{prefix}kpis/{name}": sha(kpi_bytes(r.kpis)) for name, r in res.reports.items()}
    )
    digests[f"{prefix}scores"] = sha(score_bytes(res.scores))
    digests[f"{prefix}learnings"] = sha(b"".join(learning_bytes(r) for r in res.learnings))
    digests[f"{prefix}reviews"] = sha(res.reviews.astype("datetime64[D]").tobytes())
    return digests


def study_digests(market):
    res = run_study(*market, CFG)
    digests = result_digests(res)
    digests.update(result_digests(run_study(*market, CFG, freeze_year=2013), "frozen2013/"))
    for rec in res.learnings:
        frozen = learning_y(*market, CFG, rec.year)
        digests[f"learning{rec.year}"] = sha(
            frozen.name.encode() + series_bytes(frozen.series) + kpi_bytes(frozen.kpis)
        )
    return digests


def test_study_outputs_match_golden_digests(market):
    assert study_digests(market) == GOLDEN


# ---------------------------------------------------------------------------
# CLI outputs. manifest.json is left out: it records absolute paths and
# library versions.

CLI_GOLDEN = {
    "data/features.csv": "67cd20c41229399885d552c4dbbc3a146fe877a9f4be065fbac922968c318c36",
    "data/prices.csv": "9b2022aff21db2d24941f3a0c57ddc46645d7eae8be1220e28242675b6de7a4d",
    "data/returns.csv": "57e1392ae285e38bad4f494d70d1e3ba5d40c85cd4b48f3cc30cea326b6d9b0b",
    "data/universe.csv": "30aacdfbfca000fc9f0269c6e6b85b700dc777719ea2592a9de29ad3b44789be",
    "bt/calendar.csv": "eb787281a5e0f7970be760076d3525b324362947687734168a473257ca01867d",
    "bt/kpis.json": "ddf5584bceedf4aebb70c00e95d43d0ca7e3d77026ffdda4dce8c33a208db550",
    "bt/learning-y.csv": "014659b68998289d4e297ee29288fdea9dda5d790f9a46e8f432c6b0b9843300",
    "bt/levels.csv": "c981bbf8ee50b364704079292e91c0358664f3adc9cab00faabb3631ac8fe9bd",
    "learn/discretizer.json": "37e6b8847575df3354fd3ecc3569b2497b7bf76d595b8eb484580eb59589cf1b",
    "learn/learn-report.csv": "0c6747927020c4bfd3c0fccccc05eeffa68a7022d703344630305d8636789b1f",
    "learn/rules.json": "bc64ff36fc5428350d4c36a80b4662f4d06757c6a284cce53021dd313ae81910",
    "learn/state.json": "0ee63501825f8d5359da8f4961def600cd50512453934708bbe89371142ba16b",
    "report/report.md": "af7f84c905fa4fd59a9e99395b3356748aa27d2862ee798f17a95b3b5a6e1002",
    "score/scores.csv": "2bcf020c2b69b412ce377c125f4f8011403ef46691868a6d29b2a4e3806443e9",
}


def fresh_run(argv) -> int:
    """run(argv) in a fresh `python -B -m rulescreen.cli` process, which
    exits through main()."""
    src = str(Path(rulescreen.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-B", "-m", "rulescreen.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}).returncode


def run_stages(root, data, cfg_path, asof, run=run) -> None:
    """learn, score, backtest and report on the inputs in data, into root."""
    assert run(["learn", "--panel", str(data / "features.csv"),
                "--returns", str(data / "returns.csv"), "--config", str(cfg_path),
                "--out", str(root / "learn" / "rules.json")]) == 0
    assert run(["score", "--rules", str(root / "learn" / "rules.json"),
                "--state", str(root / "learn" / "state.json"),
                "--discretizer", str(root / "learn" / "discretizer.json"),
                "--panel", str(data / "features.csv"), "--asof", asof,
                "--out", str(root / "score" / "scores.csv")]) == 0
    assert run(["backtest", "--config", str(cfg_path), "--out", str(root / "bt")]) == 0
    (root / "report").mkdir()
    assert run(["report", "--dir", str(root / "bt"),
                "--out", str(root / "report" / "report.md")]) == 0


def stage_digests(root, data):
    return {
        f"{stage}/{path.name}": sha(path.read_bytes())
        for stage, directory in [("data", data)] + [
            (stage, root / stage) for stage in ("learn", "score", "bt", "report")
        ]
        for path in sorted(directory.iterdir())
        if path.name not in ("manifest.json", CACHE_DIR)
    }


def golden_run(root, run=run):
    """synth, then every later stage with a cold parse cache, into root."""
    data = root / "data"
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC10))
    assert run(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    assert not (data / CACHE_DIR).exists()
    cfg_path = root / "run.cfg"
    cfg_path.write_text("\n".join(
        [CFG10] + [f"{k} = {data / (k + '.csv')}"
                   for k in ("features", "returns", "universe", "prices")]
    ) + "\n")
    asof = str(business_day_grid("2010-01-04", SPEC10["n_dates"])[-1])
    run_stages(root, data, cfg_path, asof, run)
    return root, data, cfg_path, asof


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    return golden_run(tmp_path_factory.mktemp("cli_golden"))


@pytest.fixture(scope="module")
def cli_outputs(cli_run):
    root, data, _, _ = cli_run
    return stage_digests(root, data)


def test_cli_outputs_match_golden_digests(cli_outputs):
    assert cli_outputs == CLI_GOLDEN


def test_cli_outputs_match_golden_digests_from_a_warm_cache(cli_run, cli_outputs):
    root, data, cfg_path, asof = cli_run
    def cache_files():
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in (data / CACHE_DIR).iterdir()}

    cold = cache_files()
    assert sorted(cold) == [f"{name}.csv.npz"
                            for name in ("features", "prices", "returns", "universe")]
    warm = root / "warm"
    run_stages(warm, data, cfg_path, asof)
    assert cache_files() == cold  # every read hit: no cache file was rewritten
    assert stage_digests(warm, data) == CLI_GOLDEN


def test_cli_outputs_match_golden_digests_in_fresh_processes(tmp_path):
    """Every stage run as its own process, through main(), writes the same
    files as run() in this one."""
    root, data, _, _ = golden_run(tmp_path, fresh_run)
    assert stage_digests(root, data) == CLI_GOLDEN
