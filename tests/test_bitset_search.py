"""The packed-bitset rule search against the per-pair reference search.

The reference below is the search as it was before masks were packed: every
candidate's activations come from `activation_mask` over the code matrix and
every mean from `conditional_mean`. The bitset search must emit the same
rules, in the same order, with bit-identical predictions, the same
activation counts and the same per-level report.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulescreen.errors import EmptyLearningSet
from rulescreen.panel import MISSING_CODE, DiscretizedPanel, FeatureSpec
from rulescreen.rulegen import LearnReport, LearningSet, learn
from rulescreen.rules import (
    Z_KINDS,
    Condition,
    Interval,
    Rule,
    SearchParams,
    activation_mask,
    conditional_mean,
    intersect_conditions,
    rule_sort_key,
    sample_std,
)

# --- the reference search ---------------------------------------------------


def ref_finalize(raw, obs, params, global_mean, sigma):
    z_fn = Z_KINDS[params.z_kind]
    out = []
    for cond, count in raw:
        mu = conditional_mean(cond, obs)
        if not params.c_min <= count / obs.n <= params.c_max:
            continue
        if abs(mu - global_mean) < z_fn(count, params.alpha, sigma):
            continue
        out.append(Rule(cond, mu, count, int(np.sign(mu - global_mean))))
    return out


def observed_rows(panel):
    return panel.take(np.isfinite(panel.y))


def ref_level1(panel, params, report):
    obs = observed_rows(panel)
    if obs.n == 0:
        raise EmptyLearningSet("no rows with observed y")
    global_mean = conditional_mean(Condition(), obs)
    sigma = sample_std(obs)
    z_fn = Z_KINDS[params.z_kind]
    raw = []
    for k, K in enumerate(obs.n_codes):
        col = obs.x[:, k]
        valid = col >= 0
        c_pre = np.concatenate(([0], np.cumsum(np.bincount(col[valid], minlength=K))))
        s_pre = np.concatenate(
            ([0.0], np.cumsum(np.bincount(col[valid], weights=obs.y[valid], minlength=K)))
        )
        for a in range(K):
            for b in range(a, K):
                count = int(c_pre[b + 1] - c_pre[a])
                if count < 1 or not params.c_min <= count / obs.n <= params.c_max:
                    continue
                mu = (s_pre[b + 1] - s_pre[a]) / count
                if abs(mu - global_mean) < z_fn(count, params.alpha, sigma):
                    continue
                raw.append((Condition((Interval(k, a, b),)), count))
    rules = ref_finalize(raw, obs, params, global_mean, sigma)
    rules.sort(key=lambda r: rule_sort_key(r, global_mean, obs.n_codes))
    row = report.level(1)
    row.candidates = sum(K * (K + 1) // 2 for K in obs.n_codes)
    row.suitable = len(rules)
    return rules


def ref_level_c(suitable_1, suitable_cminus1, c, params, panel, report):
    """One `activation_mask` and one `conditional_mean` per parent pair."""
    obs = observed_rows(panel)
    top1 = suitable_1[: params.M]
    topc = suitable_cminus1[: params.M]
    if c == 2:
        pairs = [(top1[i], top1[j]) for i, j in itertools.combinations(range(len(top1)), 2)]
    else:
        pairs = [(a, b) for a in top1 for b in topc]
    n_codes = obs.n_codes
    global_mean = conditional_mean(Condition(), obs)
    sigma = sample_std(obs)
    z_fn = Z_KINDS[params.z_kind]
    seen = {}
    for rule_a, rule_b in pairs:
        cond = intersect_conditions(rule_a.condition, rule_b.condition)
        if cond is None:
            continue
        cp = cond.complexity(n_codes)
        if cp != rule_a.complexity(n_codes) + rule_b.complexity(n_codes) or cp != c:
            continue
        count = int(activation_mask(cond, obs.x).sum())
        if count in (rule_a.activations, rule_b.activations) or count < 1:
            continue
        if not params.c_min <= count / obs.n <= params.c_max:
            continue
        mu = conditional_mean(cond, obs)
        if abs(mu - global_mean) < z_fn(count, params.alpha, sigma):
            continue
        seen.setdefault(cond.key(), (cond, count))
    rules = ref_finalize(list(seen.values()), obs, params, global_mean, sigma)
    rules.sort(key=lambda r: rule_sort_key(r, global_mean, n_codes))
    row = report.level(c)
    row.candidates = len(pairs)
    row.suitable = len(rules)
    return rules


def ref_learn(panel, params):
    report = LearnReport()
    level1 = ref_level1(panel, params, report)
    candidates, previous = list(level1), level1
    for c in range(2, params.cp_max + 1):
        if not previous:
            break
        previous = ref_level_c(level1, previous, c, params, panel, report)
        if not previous:
            break
        candidates.extend(previous)
    # Greedy covering over boolean activation vectors of every panel row.
    global_mean = conditional_mean(Condition(), panel)
    ordered = sorted(candidates, key=lambda r: rule_sort_key(r, global_mean, panel.n_codes))
    covered = np.zeros(panel.n, dtype=bool)
    selected = []
    for rule in ordered:
        if covered.all():
            break
        mask = activation_mask(rule.condition, panel.x)
        if np.any(mask & ~covered):
            selected.append(rule)
            covered |= mask
    report.default_rule_appended = not covered.all()
    for rule in selected:
        row = report.level(rule.complexity(panel.n_codes))
        row.selected += 1
        row.selected_positive += rule.sign > 0
        row.selected_negative += rule.sign < 0
    return candidates, selected, report


# --- random panels -----------------------------------------------------------


LEARNED_AT = np.datetime64("2020-01-01")


def random_panel(seed, n, d, m, missing, unobserved):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, m, size=(n, d)).astype(np.int32)
    x[rng.random((n, d)) < missing] = MISSING_CODE
    y = rng.normal(0.0, 0.05, n)
    # A planted conjunction, so that higher levels have suitable rules.
    y[(x[:, 0] <= m // 2) & (x[:, -1] >= m // 2)] += 0.08
    y[rng.random(n) < unobserved] = np.nan
    return DiscretizedPanel(
        specs=[FeatureSpec(f"f{k}") for k in range(d)],
        dates=np.full(n, np.datetime64("2020-01-01")),
        stock_ids=np.array([f"S{i}" for i in range(n)], dtype=object),
        x=x,
        y=y,
        n_codes=[m] * d,
    )


def facts(rules):
    """Everything a rule carries, predictions as exact bit patterns."""
    return [
        (r.condition.key(), r.prediction.hex(), r.activations, r.sign, r.is_default)
        for r in rules
    ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
    d=st.integers(1, 4),
    m=st.integers(2, 5),
    missing=st.sampled_from([0.0, 0.1, 0.4]),
    unobserved=st.sampled_from([0.0, 0.2, 0.7]),
    cp_max=st.sampled_from([2, 3]),
    M=st.integers(1, 8),
    c_min=st.sampled_from([0.0, 0.05]),
    c_max=st.sampled_from([0.5, 0.8, 1.0]),
    alpha=st.sampled_from([0.05, 0.5, 1.0]),
)
def test_bitset_search_matches_the_per_pair_reference(
    seed, n, d, m, missing, unobserved, cp_max, M, c_min, c_max, alpha
):
    panel = random_panel(seed, n, d, m, missing, unobserved)
    params = SearchParams(alpha=alpha, c_min=c_min, c_max=c_max, cp_max=cp_max, M=M)
    if not np.isfinite(panel.y).any():
        with pytest.raises(EmptyLearningSet):
            learn(panel, params, LEARNED_AT)
        return
    candidates, selected, ref_report = ref_learn(panel, params)
    ruleset, report = learn(panel, params, LEARNED_AT)
    rules = [r for r in ruleset.rules if not r.is_default]
    assert facts(rules) == facts(selected)
    assert ruleset.rules[-1].is_default == ref_report.default_rule_appended
    assert report == ref_report
    assert sum(lv.suitable for lv in report.levels) == len(candidates)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 200),
    bounds=st.lists(
        st.tuples(st.integers(0, 2), st.integers(-1, 6), st.integers(0, 6)), max_size=3
    ),
)
def test_packed_mask_equals_activation_mask(seed, n, bounds):
    """Any condition, including intervals reaching the missing code or past
    the last code, packs to exactly its activation vector."""
    panel = random_panel(seed, n, 3, 4, 0.2, 0.3)
    by_feature = {k: Interval(k, min(lo, hi), max(lo, hi)) for k, lo, hi in bounds}
    cond = Condition(tuple(by_feature.values()))
    if not np.isfinite(panel.y).any():  # no learning set without an observed y
        with pytest.raises(EmptyLearningSet):
            LearningSet(panel)
        return
    data = LearningSet(panel)
    mask = data.mask(cond)
    assert mask.dtype == np.uint64 and mask.shape == (data.words,)
    assert data.rows(mask).tolist() == activation_mask(cond, panel.x).tolist()
