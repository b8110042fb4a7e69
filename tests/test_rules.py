"""Conditions, activation, suitability, and rule serialization."""

import json
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rulescreen.errors import (
    DimensionMismatch,
    NoActivations,
    SpecMismatch,
)
from rulescreen.panel import MISSING_CODE, DiscretizedPanel, FeatureSpec
from rulescreen.rulegen import enumerate_complexity1, generate_complexity_c
from rulescreen.rules import (
    Condition,
    Interval,
    Rule,
    RuleSet,
    SearchParams,
    activation_mask,
    conditional_mean,
    gaussian_quantile,
    gaussian_threshold,
    sample_std,
    selection_criterion,
)


def toy_panel(x, y, m=5):
    x = np.asarray(x, dtype=np.int32)
    n, d = x.shape
    return DiscretizedPanel(
        specs=[FeatureSpec(f"f{k}") for k in range(d)],
        dates=np.arange("2020-01-01", "2020-01-01", dtype="datetime64[D]").repeat(0)
        if n == 0
        else np.array(["2020-01-01"] * n, dtype="datetime64[D]"),
        stock_ids=np.array([f"S{i}" for i in range(n)], dtype=object),
        x=x,
        y=np.asarray(y, dtype=np.float64),
        n_codes=[m] * d,
    )


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


def activates_row(condition, codes):
    """activation_mask on a one-row code matrix."""
    return bool(activation_mask(condition, np.array([codes], dtype=np.int32))[0])


def rule_on(condition, panel):
    """A rule with its learning-set statistics on the panel."""
    mu = conditional_mean(condition, panel)
    gm = conditional_mean(Condition(), panel)
    count = int(activation_mask(condition, panel.x).sum())
    return Rule(condition, mu, count, int(np.sign(mu - gm)))


# --- activation ---------------------------------------------------------


def test_empty_condition_activates_everything():
    assert activates_row(Condition(), [0, 1, 2])
    assert activates_row(Condition(), [])


def test_interval_containment():
    cond = C((3, 5, 9))
    assert activates_row(cond, [0, 0, 0, 7])
    assert not activates_row(cond, [0, 0, 0, 4])
    assert not activates_row(cond, [0, 0, 0, 10])


def test_missing_code_never_activates():
    cond = C((0, 0, 4))
    assert not activates_row(cond, [MISSING_CODE])
    # but a condition silent on the missing feature still can
    assert activates_row(C((1, 0, 4)), [MISSING_CODE, 2])


def test_condition_on_feature_beyond_x_raises():
    with pytest.raises(DimensionMismatch):
        activates_row(C((5, 0, 1)), [0, 1])


def test_interval_lo_above_hi_rejected():
    with pytest.raises(SpecMismatch):
        Interval(0, 3, 2)


def test_two_intervals_same_feature_rejected():
    with pytest.raises(SpecMismatch):
        Condition((Interval(0, 0, 1), Interval(0, 2, 3)))


def test_activation_mask_matches_row_loop():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 5, size=(60, 4)).astype(np.int32)
    x[rng.uniform(size=x.shape) < 0.1] = MISSING_CODE
    cond = C((0, 1, 3), (2, 0, 2))
    mask = activation_mask(cond, x)
    for i in range(60):
        assert mask[i] == all(iv.lo <= x[i, iv.feature_index] <= iv.hi for iv in cond.intervals)


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_shrinking_an_interval_never_adds_activations(lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    rng = np.random.default_rng(42)
    x = rng.integers(0, 5, size=(80, 2)).astype(np.int32)
    wide = activation_mask(C((0, lo, hi)), x)
    if hi > lo:
        narrow = activation_mask(C((0, lo, hi - 1)), x)
        assert not np.any(narrow & ~wide)


def test_complexity_counts_strict_subintervals_only():
    n_codes = [5, 5, 3]
    assert C((0, 0, 4)).complexity(n_codes) == 0
    assert C((0, 0, 3)).complexity(n_codes) == 1
    assert C((0, 1, 4), (2, 0, 1)).complexity(n_codes) == 2
    assert Condition().complexity(n_codes) == 0


# --- statistics ---------------------------------------------------------


def test_conditional_mean_hand_case():
    panel = toy_panel([[0], [0], [1]], [0.02, 0.04, -0.10])
    assert conditional_mean(C((0, 0, 0)), panel) == pytest.approx(0.03)


def test_conditional_mean_zero_over_zero_is_zero():
    panel = toy_panel([[0], [1]], [0.5, 0.5])
    assert conditional_mean(C((0, 3, 4)), panel) == 0.0


def test_conditional_mean_full_space_is_sample_mean():
    y = [0.1, -0.2, 0.4, 0.3]
    panel = toy_panel([[0], [1], [2], [3]], y)
    assert conditional_mean(Condition(), panel) == pytest.approx(np.mean(y))


def test_coverage_one_of_four():
    panel = toy_panel([[0], [1], [1], [2]], [0.0] * 4)
    assert activation_mask(C((0, 0, 0)), panel.x).mean() == 0.25
    assert activation_mask(Condition(), panel.x).mean() == 1.0
    assert activation_mask(C((0, 4, 4)), panel.x).mean() == 0.0


def test_gaussian_threshold_table_value():
    assert gaussian_threshold(25, 0.05, 0.10) == pytest.approx(0.0392, abs=5e-5)


def test_threshold_zero_at_alpha_one():
    assert gaussian_threshold(10, 1.0, 0.5) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(0.01)
@example(0.05)
@example(0.1)
@example(0.5)
def test_threshold_quantile_matches_scipy(alpha):
    want = float(norm.ppf(1.0 - alpha / 2.0))
    assert gaussian_threshold(1, alpha, 1.0) == pytest.approx(want, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 10**6),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=0.0, max_value=10.0),
)
def test_threshold_with_cached_quantile_is_the_per_call_formula(n, alpha, sigma):
    """The quantile is computed once per alpha; the threshold keeps the
    arithmetic of computing it on every call, bit for bit."""
    p = 1.0 - alpha / 2.0
    q = np.inf if p == 1.0 else NormalDist().inv_cdf(p)
    want = q * sigma / np.sqrt(n)
    for _ in range(2):
        got = gaussian_threshold(n, alpha, sigma)
        assert got == want or (np.isnan(got) and np.isnan(want))
    assert gaussian_quantile.cache_info().hits >= 1


def test_threshold_infinite_at_alpha_zero():
    assert gaussian_threshold(10, 0.0, 0.5) == np.inf


def test_threshold_shrinks_with_root_n():
    t1 = gaussian_threshold(50, 0.05, 0.2)
    t2 = gaussian_threshold(100, 0.05, 0.2)
    assert t2 == pytest.approx(t1 / np.sqrt(2))


def test_threshold_decreasing_in_alpha():
    ts = [gaussian_threshold(25, a, 0.1) for a in (0.01, 0.05, 0.2, 0.99)]
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_threshold_requires_activations():
    with pytest.raises(NoActivations):
        gaussian_threshold(0, 0.05, 0.1)


def test_significance_threshold_uses_panel_dispersion():
    rng = np.random.default_rng(1)
    y = rng.normal(0, 0.1, 40)
    panel = toy_panel(np.zeros((40, 1)), y)
    n_act = int(activation_mask(C((0, 0, 0)), panel.x).sum())
    got = gaussian_threshold(n_act, 0.05, sample_std(panel))
    want = gaussian_threshold(40, 0.05, float(np.std(y, ddof=1)))
    assert got == pytest.approx(want)


def test_sample_std_is_ddof1_over_observed():
    y = np.array([0.1, 0.2, np.nan, 0.4])
    panel = toy_panel(np.zeros((4, 1)), y)
    assert sample_std(panel) == pytest.approx(np.std([0.1, 0.2, 0.4], ddof=1))


# --- suitability --------------------------------------------------------


def suitable_fixture():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 5, size=(200, 2)).astype(np.int32)
    y = rng.normal(0, 0.02, 200)
    y[x[:, 0] <= 1] += 0.08
    return toy_panel(x, y)


def suitable_conditions(panel, params):
    return [r.condition for r in enumerate_complexity1(panel, params)]


def test_planted_strong_rule_is_suitable():
    panel = suitable_fixture()
    params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=2, M=10)
    found = {r.condition: r for r in enumerate_complexity1(panel, params)}
    assert found[C((0, 0, 1))].sign == 1


def test_coverage_bounds_veto_regardless_of_significance():
    panel = suitable_fixture()
    too_high = SearchParams(alpha=0.05, c_min=0.0, c_max=0.1, cp_max=1, M=1)
    too_low = SearchParams(alpha=0.05, c_min=0.9, c_max=1.0, cp_max=1, M=1)
    assert C((0, 0, 1)) not in suitable_conditions(panel, too_high)
    assert C((0, 0, 1)) not in suitable_conditions(panel, too_low)


def test_alpha_zero_rejects_every_finite_effect():
    panel = suitable_fixture()
    params = SearchParams(alpha=0.0, c_min=0.0, c_max=1.0, cp_max=1, M=1)
    assert suitable_conditions(panel, params) == []


def test_selection_criterion_scale():
    rule = Rule(C((0, 0, 1)), prediction=0.05, activations=100, sign=1)
    assert selection_criterion(rule, 0.01) == pytest.approx(0.04 * 10)


# --- intersections ------------------------------------------------------
# The level-2 search with every filter but the intersection conditions open
# (alpha = 1 makes the significance threshold 0).

OPEN = SearchParams(alpha=1.0, c_min=0.0, c_max=1.0, cp_max=2, M=50)


def level2(panel, *conditions):
    rules = [rule_on(c, panel) for c in conditions]
    return [r.condition for r in generate_complexity_c(rules, rules, 2, OPEN, panel)]


def test_intersection_disjoint_features_accepted():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 5, size=(300, 2)).astype(np.int32)
    panel = toy_panel(x, rng.normal(size=300))
    assert level2(panel, C((0, 0, 2)), C((1, 1, 3))) == [C((0, 0, 2), (1, 1, 3))]


def test_intersection_same_feature_rejected():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 5, size=(300, 2)).astype(np.int32)
    panel = toy_panel(x, rng.normal(size=300))
    # [1, 2] is a complexity-1 interval, not the sum of its parents' 1 + 1
    assert level2(panel, C((0, 0, 2)), C((0, 1, 3))) == []


def test_intersection_subset_activation_rejected():
    # every row activating a also activates b, so the intersection adds nothing
    x = np.array([[0, 0], [0, 1], [1, 2], [2, 3]], dtype=np.int32)
    panel = toy_panel(x, np.arange(4.0))
    assert level2(panel, C((0, 0, 0)), C((1, 0, 1))) == []


def test_intersection_geometrically_empty():
    x = np.array([[0], [1], [3], [4]], dtype=np.int32)
    panel = toy_panel(x, np.arange(4.0))
    assert level2(panel, C((0, 0, 1)), C((0, 3, 4))) == []


# --- serialization ------------------------------------------------------


def make_ruleset():
    rules = [
        Rule(C((0, 0, 1)), prediction=0.04, activations=50, sign=1),
        Rule(C((1, 2, 4), (0, 0, 2)), prediction=-0.03, activations=30, sign=-1),
        Rule(Condition(), prediction=0.005, activations=200, sign=0, is_default=True),
    ]
    return RuleSet(rules=rules, learned_at="2015-12-31",
                   feature_ids=["f0", "f1"], n_codes=[5, 5], global_mean=0.005)


def test_ruleset_json_round_trip():
    rs = make_ruleset()
    clone = RuleSet.from_json(rs.to_json(), ["f0", "f1"], [5, 5])
    assert clone.R == rs.R
    for a, b in zip(clone.rules, rs.rules):
        assert a.condition == b.condition
        assert a.prediction == b.prediction
        assert a.activations == b.activations
        assert a.is_default == b.is_default
    assert clone.default_prediction() == rs.default_prediction()
    assert clone.global_mean == rs.global_mean
    assert str(clone.learned_at) == "2015-12-31"


def test_ruleset_json_keeps_the_mean_without_a_default_rule():
    rs = make_ruleset()
    rs.rules.pop()  # the learning rows were covered without the default rule
    rs.global_mean = 0.0125
    clone = RuleSet.from_json(rs.to_json(), ["f0", "f1"], [5, 5])
    assert clone.global_mean == 0.0125
    assert clone.default_prediction() == 0.0125
    assert [r.sign for r in clone.rules] == [1, -1]


def test_ruleset_json_without_a_stored_mean_reads_the_default_rule():
    blob = json.loads(make_ruleset().to_json())
    for entry in blob:
        del entry["global_mean"]
    clone = RuleSet.from_json(json.dumps(blob), ["f0", "f1"], [5, 5])
    assert clone.global_mean == 0.005


def test_ruleset_describe_mentions_features_and_default():
    lines = make_ruleset().describe()
    assert "f0 in [0, 1]" in lines[0]
    assert "+4.00%" in lines[0]
    assert lines[2].endswith("(default)")
    assert lines[2].startswith("IF any stock")


def test_activation_matrix_shape_and_content():
    rs = make_ruleset()
    x = np.array([[0, 3], [4, 0], [2, 2]], dtype=np.int32)
    A = rs.activation_matrix(x)
    assert A.shape == (3, 3)
    assert A[:, 2].all()  # default rule activates everywhere
    assert A[0, 0] and not A[1, 0]


def test_activation_count_on_panel():
    x = np.array([[0], [1], [1], [3]], dtype=np.int32)
    panel = toy_panel(x, np.zeros(4))
    assert activation_mask(C((0, 1, 1)), panel.x).sum() == 2
