"""Acceptance gate: one test per numbered shipping criterion.

Each test prints a single PASS/FAIL line with the measured quantities so a
plain `pytest -v` run doubles as the sign-off record. The heavyweight
regime-shift study (criteria 6 and 7) is generated once per module.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from rulescreen.aggregate import default_eta, init_state, predict_many, update
from rulescreen.backtest import (
    BENCHMARK,
    NEGATIVE,
    POSITIVE,
    POSITIVE_SM,
    PriceTable,
    UniverseTable,
    WalkForwardConfig,
    best_in_class,
    kpis,
    learning_y,
    review_plan,
    run_study,
    simulate,
)
from rulescreen.backtest import PortfolioSeries
from rulescreen.cli import run
from rulescreen.panel import (
    MISSING_CODE,
    DiscretizedPanel,
    FeatureSpec,
    RawPanel,
    apply_discretizer,
    fit_discretizer,
)
from rulescreen.rulegen import design_rules
from rulescreen.rules import (
    Condition,
    Interval,
    Rule,
    RuleSet,
    SearchParams,
    activation_mask,
    conditional_mean,
    gaussian_threshold,
    sample_std,
)
from rulescreen.synth import (
    PlantedRule,
    SynthSpec,
    business_day_grid,
    generate,
)


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def panel_from_codes(x, y, m):
    x = np.asarray(x, dtype=np.int32)
    n, d = x.shape
    return DiscretizedPanel(
        specs=[FeatureSpec(f"f{k}") for k in range(d)],
        dates=np.array(["2020-01-01"] * n, dtype="datetime64[D]"),
        stock_ids=np.array([f"S{i}" for i in range(n)], dtype=object),
        x=x,
        y=np.asarray(y, dtype=np.float64),
        n_codes=[m] * d,
    )


# ---------------------------------------------------------------------------
# 1. vectorized activation statistics agree with a per-row oracle


def test_c01_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(20, 1001))
        d = int(rng.integers(1, 21))
        m = int(rng.integers(2, 11))
        x = rng.integers(0, m, size=(n, d)).astype(np.int32)
        x[rng.random((n, d)) < 0.05] = MISSING_CODE
        y = rng.normal(0.0, 0.05, n)
        y[rng.random(n) < 0.1] = np.nan
        panel = panel_from_codes(x, y, m)

        k = int(rng.integers(1, min(d, 3) + 1))
        feats = sorted(int(f) for f in rng.choice(d, size=k, replace=False))
        ivs = []
        for f in feats:
            lo = int(rng.integers(0, m))
            ivs.append(Interval(f, lo, int(rng.integers(lo, m))))
        cond = Condition(tuple(ivs))

        mask = np.empty(n, dtype=bool)
        for i in range(n):
            ok = True
            for iv in ivs:
                code = x[i, iv.feature_index]
                if code == MISSING_CODE or not iv.lo <= code <= iv.hi:
                    ok = False
                    break
            mask[i] = ok
        assert activation_mask(cond, panel.x).sum() == int(mask.sum())
        sel = y[mask]
        sel = sel[np.isfinite(sel)]
        expected = 0.0 if sel.size == 0 else float(np.sum(sel) / sel.size)
        assert conditional_mean(cond, panel) == expected
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0, f"100 panels exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. every designed rule survives an independent suitability recheck


def test_c02_suitability_post_conditions():
    params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=2, M=30)
    q = float(norm.ppf(1.0 - params.alpha / 2.0))
    emitted = 0
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        n = 500
        x = rng.integers(0, 5, size=(n, 4)).astype(np.int32)
        y = rng.normal(0.0, 0.03, n)
        y[x[:, 0] <= 1] += 0.05
        y[(x[:, 1] >= 3) & (x[:, 2] <= 1)] -= 0.06
        panel = panel_from_codes(x, y, 5)
        mu = float(y.mean())
        sigma = float(np.std(y, ddof=1))
        for rule in design_rules(panel, params):
            emitted += 1
            mask = np.ones(n, dtype=bool)
            for iv in rule.condition.intervals:
                col = x[:, iv.feature_index]
                mask &= (col >= iv.lo) & (col <= iv.hi)
            n_act = int(mask.sum())
            cov = n_act / n
            thr = q * sigma / math.sqrt(n_act)
            # 1e-12 absorbs the different summation order of this recheck
            if not params.c_min <= cov <= params.c_max:
                violations += 1
            elif abs(y[mask].mean() - mu) < thr - 1e-12:
                violations += 1
    report(2, emitted > 0 and violations == 0,
           f"{emitted} rules rechecked, {violations} violations")


# ---------------------------------------------------------------------------
# 3. planted complexity-2 rule recovery and null false-positive rate


TARGET3 = C((0, 0, 2), (1, 1, 2))
PARAMS3 = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=2, M=50)


def labeled_codes(spec):
    data = generate(spec)
    keep = np.isfinite(data.panel.y)
    raw = RawPanel(
        dates=data.panel.dates[keep],
        stock_ids=data.panel.stock_ids[keep],
        columns=[c[keep] for c in data.panel.columns],
        y=data.panel.y[keep],
    )
    return apply_discretizer(raw, fit_discretizer(raw, data.specs, 5))


def recovery_spec(seed, planted):
    return SynthSpec(n_stocks=250, n_dates=105, d=10, m=5, planted=planted,
                     noise_sigma=0.03, seed=seed, horizon_days=5,
                     sector_feature=0)


def test_c03_planted_recovery_and_null_rate():
    t0 = time.monotonic()
    hits = 0
    for seed in range(100):
        rules = labeled_codes(
            recovery_spec(seed, [PlantedRule(TARGET3, 0.09)]))
        found = design_rules(rules, PARAMS3)
        hits += any(r.condition == TARGET3 for r in found)

    num = den = 0
    for seed in range(20):
        codes = labeled_codes(recovery_spec(1000 + seed, []))
        mu = conditional_mean(Condition(), codes)
        sigma = sample_std(codes)
        for f in range(10):
            for lo in range(5):
                for hi in range(lo, 5):
                    cond = C((f, lo, hi))
                    n_act = int(activation_mask(cond, codes.x).sum())
                    if not PARAMS3.c_min <= n_act / codes.n <= PARAMS3.c_max:
                        continue
                    den += 1
                    thr = gaussian_threshold(n_act, PARAMS3.alpha, sigma)
                    if abs(conditional_mean(cond, codes) - mu) >= thr:
                        num += 1
    rate = num / den
    elapsed = time.monotonic() - t0
    report(3, hits >= 95 and rate <= 2 * PARAMS3.alpha and elapsed < 300.0,
           f"recovered {hits}/100, null rate {rate:.4f} "
           f"(bound {2 * PARAMS3.alpha:.2f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. exponential-weighting regret bound, all rules always active


def always_active_ruleset(preds):
    rules = [Rule(Condition(), float(p), 1, int(np.sign(p)) or 1)
             for p in preds]
    return RuleSet(rules=rules, learned_at="2015-12-31",
                   feature_ids=["f0"], n_codes=[5], global_mean=0.0)


def test_c04_regret_bound():
    R, T = 20, 500
    t0 = time.monotonic()
    eta = default_eta(R, T)
    x = np.zeros((1, 1), dtype=np.int32)
    worst = -math.inf
    violations = 0
    for stream in range(50):
        rng = np.random.default_rng(400 + stream)
        preds = rng.random(R)
        ys = rng.random(T)
        ruleset = always_active_ruleset(preds)
        active = ruleset.activation_matrix(x)
        state = init_state(R, eta=eta)
        loss_agg = 0.0
        for y in ys:
            p = float(predict_many(state, ruleset, x, activation=active)[0])
            loss_agg += min((p - y) ** 2, 1.0)
            state = update(state, ruleset, np.array([y]), active)
        loss_best = min(float(np.minimum((p - ys) ** 2, 1.0).sum())
                        for p in preds)
        slack = loss_agg - (loss_best + math.log(R) / eta + T * eta / 8.0)
        worst = max(worst, slack)
        violations += slack > 0
    elapsed = time.monotonic() - t0
    report(4, violations == 0 and elapsed < 30.0,
           f"50 streams, worst slack {worst:+.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. a never-active rule keeps exactly its initial relative weight


def test_c05_sleeping_invariance():
    R = 8
    rng = np.random.default_rng(500)
    preds = rng.normal(0.0, 0.05, R)
    conditions = [C((0, 5, 5))] + [Condition()] * (R - 1)
    rules = [Rule(conditions[i], float(preds[i]), 1, 1) for i in range(R)]
    ruleset = RuleSet(rules=rules, learned_at="2015-12-31",
                      feature_ids=["f0"], n_codes=[6], global_mean=0.0)
    worst = 0.0
    for _ in range(20):
        state = init_state(R, eta=0.4)
        for _ in range(300):
            active = ruleset.activation_matrix(np.array([[rng.integers(0, 5)]], dtype=np.int32))
            state = update(state, ruleset, np.array([rng.normal(0.0, 0.05)]), active)
        rel = float(state.weights[0] / state.weights.sum())
        worst = max(worst, abs(rel - 1.0 / R))
    report(5, worst <= 1e-12, f"max |relative weight drift| {worst:.2e}")


# ---------------------------------------------------------------------------
# 6 and 7 share one 100-seed regime-shift study


E1, E2, E3 = 0.08, 0.10, 0.08
PRE_RULES = [
    PlantedRule(C((1, 3, 4)), E1),
    PlantedRule(C((2, 0, 1)), -E1),
    PlantedRule(C((0, 3, 4)), E2),
    PlantedRule(C((4, 3, 4)), E3),
]
POST_RULES = PRE_RULES[:3] + [PlantedRule(C((4, 3, 4)), -E3)]
REGIME_CFG = WalkForwardConfig(initial_train_years=3, learn_fraction=0.75,
                               m=5, c_max=0.7, top_m=20, epsilon=0.01)
N_STUDY_SEEDS = 100
FREEZE_YEAR = 2012


def regime_spec(seed):
    return SynthSpec(
        n_stocks=40, n_dates=7 * 252, d=6, m=5, planted=PRE_RULES,
        regime_shift=("2012-01-03", POST_RULES), noise_sigma=0.02,
        seed=seed, horizon_days=63, sector_feature=0,
    )


@pytest.fixture(scope="module")
def regime_outcomes():
    rows = []
    for seed in range(N_STUDY_SEEDS):
        data = generate(regime_spec(seed))
        universe = UniverseTable.from_rows(data.universe)
        prices = PriceTable(data.price_dates, data.price_stock_ids,
                            data.price_returns)
        res = run_study(data.panel, data.specs, universe, prices, REGIME_CFG)
        frozen = learning_y(data.panel, data.specs, universe, prices,
                            REGIME_CFG, FREEZE_YEAR)
        rows.append({
            "pm": res.reports[POSITIVE].kpis.ann_performance,
            "sm": res.reports[POSITIVE_SM].kpis.ann_performance,
            "nm": res.reports[NEGATIVE].kpis.ann_performance,
            "bench": res.reports[BENCHMARK].kpis.ann_performance,
            "wex": res.reports[POSITIVE].kpis.calendar_excess,
            "fex": frozen.kpis.calendar_excess,
        })
    return rows


def test_c06_screening_order(regime_outcomes):
    ok_seeds = 0
    for row in regime_outcomes:
        sm_excess = row["sm"] - row["bench"]
        pm_excess = row["pm"] - row["bench"]
        ok_seeds += (row["pm"] > row["bench"] > row["nm"]
                     and 0.0 < sm_excess < pm_excess)
    report(6, ok_seeds >= 90,
           f"ordering held in {ok_seeds}/{N_STUDY_SEEDS} seeds")


def test_c07_learning_decay(regime_outcomes):
    decayed = 0
    bitwise = 0
    for row in regime_outcomes:
        shared = sorted(y for y in row["fex"]
                        if y in row["wex"] and y >= FREEZE_YEAR + 2)
        diffs = [row["fex"][y] - row["wex"][y] for y in shared]
        decayed += float(np.mean(diffs)) < 0.0
        bitwise += row["fex"][FREEZE_YEAR + 1] == row["wex"][FREEZE_YEAR + 1]
    report(7, decayed >= 80 and bitwise == N_STUDY_SEEDS,
           f"frozen below walk-forward in {decayed}/{N_STUDY_SEEDS} seeds, "
           f"first year bitwise in {bitwise}/{N_STUDY_SEEDS}")


# ---------------------------------------------------------------------------
# 8. ratings independent of returns: best-in-class IR centered on zero


def test_c08_best_in_class_neutrality():
    irs = []
    for seed in range(100):
        spec = SynthSpec(n_stocks=50, n_dates=10 * 252, d=3, m=5, planted=[],
                         noise_sigma=0.03, seed=seed, horizon_days=63,
                         sector_feature=0)
        data = generate(spec)
        prices = PriceTable(data.price_dates, data.price_stock_ids,
                            data.price_returns)
        universe = UniverseTable.from_rows(data.universe)
        reviews = [r for r in data.review_dates if prices.index_of(r) >= 4]
        plan = review_plan(reviews, prices, universe)
        bic = simulate(plan, lambda s: best_in_class(s, 0.30), prices, name="bic")
        bench = simulate(plan, lambda s: s.cap_weight, prices, name="bench")
        irs.append(kpis(bic, bench, 252.0).information_ratio)
    mean_ir = float(np.mean(irs))
    report(8, abs(mean_ir) <= 0.5,
           f"mean IR {mean_ir:+.3f} over 100 seeds (sd {np.std(irs):.2f})")


# ---------------------------------------------------------------------------
# 9. hand-checked KPI values


def test_c09_kpi_hand_values():
    dates = np.array(["2020-01-06", "2020-01-07", "2020-01-08", "2020-01-09"],
                     dtype="datetime64[D]")
    lvl = PortfolioSeries("p", dates, np.array([100.0, 120.0, 90.0, 110.0]))
    flat = PortfolioSeries("b", dates, np.array([100.0] * 4))
    dd = kpis(lvl, flat, 252.0).max_drawdown
    self_ir = kpis(lvl, lvl, 252.0).information_ratio
    report(9, dd == -0.25 and self_ir == 0.0,
           f"max drawdown {dd}, self information ratio {self_ir}")


# ---------------------------------------------------------------------------
# 10. two fresh runs, one on a cold parse cache, write the same bytes


SPEC10 = {
    "n_stocks": 12, "n_dates": 1008, "d": 3, "m": 3,
    "planted": [
        {"intervals": [{"feature_index": 0, "lo": 0, "hi": 0}],
         "effect": 0.06},
    ],
    "noise_sigma": 0.02, "seed": 17, "horizon_days": 63, "sector_feature": 0,
}

CFG10 = """
m = 3
c_max = 0.7
M = 20
learn_fraction = 0.75
initial_train_years = 3
worker_count = 1
"""

COMPARED = ("learn/rules.json", "learn/state.json", "scores.csv",
            "bt/levels.csv", "bt/kpis.json", "bt/calendar.csv",
            "bt/learning-y.csv", "report.md")


def test_c10_worker_determinism(tmp_path):
    data = tmp_path / "data"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC10))
    assert run(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    asof = str(business_day_grid("2010-01-04", SPEC10["n_dates"])[-1])

    def one_pass(label):
        root = tmp_path / label
        cfg_path = root / "run.cfg"
        root.mkdir()
        lines = [CFG10] + [f"{k} = {data / (k + '.csv')}"
                           for k in ("features", "returns", "universe",
                                     "prices")]
        cfg_path.write_text("\n".join(lines) + "\n")
        assert run(["learn", "--panel", str(data / "features.csv"),
                    "--returns", str(data / "returns.csv"),
                    "--config", str(cfg_path),
                    "--out", str(root / "learn" / "rules.json")]) == 0
        assert run(["score", "--rules", str(root / "learn" / "rules.json"),
                    "--state", str(root / "learn" / "state.json"),
                    "--discretizer",
                    str(root / "learn" / "discretizer.json"),
                    "--panel", str(data / "features.csv"),
                    "--asof", asof,
                    "--out", str(root / "scores.csv")]) == 0
        assert run(["backtest", "--config", str(cfg_path),
                    "--out", str(root / "bt")]) == 0
        assert run(["report", "--dir", str(root / "bt"),
                    "--out", str(root / "report.md")]) == 0
        return {name: (root / name).read_bytes() for name in COMPARED}

    first, second = one_pass("cold"), one_pass("warm")
    same = [name for name in COMPARED if first[name] == second[name]]
    report(10, len(same) == len(COMPARED),
           f"{len(same)}/{len(COMPARED)} outputs byte-identical "
           f"for a cold and a warm parse-cache run")
