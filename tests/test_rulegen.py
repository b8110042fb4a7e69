"""Rule search: enumeration, intersection levels, covering selection."""

import numpy as np
import pytest

from rulescreen.errors import EmptyLearningSet
from rulescreen.panel import DiscretizedPanel, FeatureSpec
from rulescreen.rulegen import (
    LearnReport,
    design_rules,
    enumerate_complexity1,
    generate_complexity_c,
    learn,
    select_covering,
)
from rulescreen.rules import (
    Condition,
    Interval,
    SearchParams,
    activation_mask,
    conditional_mean,
    gaussian_threshold,
    sample_std,
)


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


def toy_panel(x, y, m):
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


def open_params(**kw):
    base = dict(alpha=1.0, c_min=0.0, c_max=1.0, cp_max=1, M=50)
    base.update(kw)
    return SearchParams(**base)


def test_disabled_filters_return_all_12_candidates():
    # d=2, m=3: m(m+1)/2 = 6 interval conditions per feature.
    rng = np.random.default_rng(0)
    x = np.stack([rng.permutation(np.repeat([0, 1, 2], 10)) for _ in range(2)], axis=1)
    panel = toy_panel(x, rng.normal(size=30), m=3)
    rules = enumerate_complexity1(panel, open_params())
    assert len(rules) == 12


def test_report_counts_candidates():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 3, size=(30, 2)).astype(np.int32)
    panel = toy_panel(x, rng.normal(size=30), m=3)
    report = LearnReport()
    enumerate_complexity1(panel, open_params(), report=report)
    assert report.level(1).candidates == 12


def test_enumeration_requires_observed_rows():
    panel = toy_panel(np.zeros((3, 1)), [np.nan] * 3, m=2)
    with pytest.raises(EmptyLearningSet):
        enumerate_complexity1(panel, open_params())


def planted_panel(seed=0, n=400):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 5, size=(n, 4)).astype(np.int32)
    y = rng.normal(0, 0.02, n)
    y[(x[:, 0] <= 1) & (x[:, 1] >= 3)] += 0.10
    return toy_panel(x, y, m=5)


def test_planted_single_feature_effect_found():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 5, size=(400, 3)).astype(np.int32)
    y = rng.normal(0, 0.02, 400)
    y[x[:, 2] <= 1] += 0.10
    panel = toy_panel(x, y, m=5)
    params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=1, M=50)
    rules = enumerate_complexity1(panel, params)
    assert any(r.condition == C((2, 0, 1)) for r in rules)


def test_planted_conjunction_recovered_at_level_2():
    panel = planted_panel()
    params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=2, M=50)
    rules = design_rules(panel, params)
    assert any(r.condition == C((0, 0, 1), (1, 3, 4)) for r in rules)


def test_every_emitted_rule_is_suitable():
    panel = planted_panel(seed=7)
    params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=2, M=50)
    sigma = sample_std(panel)
    gm = conditional_mean(Condition(), panel)
    for rule in design_rules(panel, params):
        n_act = int(activation_mask(rule.condition, panel.x).sum())
        assert params.c_min <= n_act / panel.n <= params.c_max
        threshold = gaussian_threshold(n_act, params.alpha, sigma)
        assert abs(conditional_mean(rule.condition, panel) - gm) >= threshold


def test_cp_max_1_equals_plain_enumeration():
    panel = planted_panel(seed=3)
    params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=1, M=50)
    a = [r.condition for r in design_rules(panel, params)]
    b = [r.condition for r in enumerate_complexity1(panel, params)]
    assert a == b


def test_level2_output_has_complexity_exactly_2():
    panel = planted_panel(seed=5)
    params = SearchParams(alpha=0.05, c_min=0.02, c_max=0.8, cp_max=2, M=50)
    level1 = enumerate_complexity1(panel, params)
    level2 = generate_complexity_c(level1, level1, 2, params, panel)
    for r in level2:
        assert r.complexity(panel.n_codes) == 2


def test_m_caps_intersection_attempts():
    panel = planted_panel(seed=6)
    params_narrow = SearchParams(alpha=0.5, c_min=0.02, c_max=0.9, cp_max=2, M=1)
    params_wide = SearchParams(alpha=0.5, c_min=0.02, c_max=0.9, cp_max=2, M=50)
    level1 = enumerate_complexity1(panel, params_wide)
    narrow = generate_complexity_c(level1, level1, 2, params_narrow, panel)
    wide = generate_complexity_c(level1, level1, 2, params_wide, panel)
    assert len(narrow) <= 1
    assert len(narrow) <= len(wide)


def test_parents_sharing_their_only_feature_yield_nothing():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 5, size=(200, 1)).astype(np.int32)
    y = rng.normal(0, 0.01, 200) + 0.05 * (x[:, 0] <= 1)
    panel = toy_panel(x, y, m=5)
    params = SearchParams(alpha=0.5, c_min=0.0, c_max=1.0, cp_max=2, M=50)
    level1 = enumerate_complexity1(panel, params)
    assert level1
    assert generate_complexity_c(level1, level1, 2, params, panel) == []


# --- covering selection -------------------------------------------------


def test_single_covering_candidate_no_default():
    panel = planted_panel(seed=8)
    full = design_rules(panel, open_params())
    wide = [r for r in full if r.condition.complexity(panel.n_codes) == 0]
    rs = select_covering(wide[:1], panel)
    assert rs.R == 1
    assert not rs.rules[0].is_default


def test_two_disjoint_candidates_cover_without_default():
    x = np.array([[0], [0], [3], [3]], dtype=np.int32)
    panel = toy_panel(x, [0.1, 0.1, -0.1, -0.1], m=5)
    params = open_params()
    cands = [r for r in enumerate_complexity1(panel, params)
             if r.condition in (C((0, 0, 0)), C((0, 3, 3)))]
    rs = select_covering(cands, panel)
    assert {r.condition for r in rs.rules} == {C((0, 0, 0)), C((0, 3, 3))}
    assert not any(r.is_default for r in rs.rules)


def test_empty_candidates_fall_back_to_default_rule():
    panel = planted_panel(seed=2)
    rs = select_covering([], panel)
    assert rs.R == 1
    assert rs.rules[0].is_default
    assert rs.rules[0].prediction == pytest.approx(float(np.mean(panel.y)))


def test_default_appended_only_when_needed():
    x = np.array([[0], [1], [2], [4]], dtype=np.int32)
    panel = toy_panel(x, [0.2, 0.2, -0.2, 0.0], m=5)
    params = open_params()
    partial = [r for r in enumerate_complexity1(panel, params)
               if r.condition == C((0, 0, 1))]
    rs = select_covering(partial, panel)
    assert any(r.is_default for r in rs.rules)
    A = rs.activation_matrix(panel.x)
    assert A.any(axis=1).all()


def test_covering_invariant_on_random_panels():
    rng = np.random.default_rng(10)
    params = SearchParams(alpha=0.2, c_min=0.05, c_max=0.6, cp_max=2, M=20)
    for _ in range(10):
        x = rng.integers(0, 4, size=(150, 3)).astype(np.int32)
        y = rng.normal(0, 0.05, 150)
        panel = toy_panel(x, y, m=4)
        rs, _report = learn(panel, params)
        A = rs.activation_matrix(panel.x)
        assert A.any(axis=1).all()


def test_learned_at_defaults_to_last_panel_date():
    panel = planted_panel(seed=11)
    rs = select_covering([], panel)
    assert rs.learned_at == panel.dates.max()


def test_learn_report_csv(tmp_path):
    panel = planted_panel(seed=13)
    params = SearchParams(alpha=0.05, c_min=0.05, c_max=0.7, cp_max=2, M=50)
    _rs, report = learn(panel, params)
    out = tmp_path / "learn-report.csv"
    report.to_csv(out)
    text = out.read_text().splitlines()
    assert text[0].startswith("complexity,")
    assert len(text) >= 2
