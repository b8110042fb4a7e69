"""Rule search: exhaustive complexity-1 enumeration, recursive pairwise
intersection up to cp_max, and greedy covering selection.

All statistics are computed on the observed-y rows of the learning panel;
the covering requirement is checked against every learning row's feature
vector (rows with unobserved y still need a prediction later).
"""

from __future__ import annotations

import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyLearningSet
from .panel import DiscretizedPanel, str_cells, write_csv_columns
from .rules import (
    Condition,
    Interval,
    Rule,
    RuleSet,
    SearchParams,
    Z_KINDS,
    activation_mask,
    conditional_mean,
    intersect_conditions,
    rule_sort_key,
    sample_std,
)

logger = logging.getLogger(__name__)


@dataclass
class LevelStats:
    complexity: int
    candidates: int
    suitable: int
    selected: int = 0
    selected_positive: int = 0
    selected_negative: int = 0


@dataclass
class LearnReport:
    """Per-complexity search statistics, one row per level."""

    levels: List[LevelStats] = field(default_factory=list)
    default_rule_appended: bool = False

    def level(self, complexity: int) -> LevelStats:
        for row in self.levels:
            if row.complexity == complexity:
                return row
        row = LevelStats(complexity=complexity, candidates=0, suitable=0)
        self.levels.append(row)
        return row

    def to_csv(self, path) -> None:
        """One record per level, by complexity, then a default_rule record
        whose selected cell says whether the default rule was appended."""
        header = [f.name for f in fields(LevelStats)]
        rows = sorted(self.levels, key=lambda r: r.complexity)
        last = {"complexity": "default_rule", "selected": int(self.default_rule_appended)}
        write_csv_columns(
            path,
            header,
            *[
                ([getattr(r, name) for r in rows] + [last.get(name)], str_cells)
                for name in header
            ],
        )


def _chunks(items: Sequence, n_chunks: int) -> List[Sequence]:
    n_chunks = max(1, min(n_chunks, len(items)))
    bounds = np.linspace(0, len(items), n_chunks + 1).astype(int)
    return [items[bounds[i] : bounds[i + 1]] for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def _map_chunked(fn, items: Sequence, workers: int) -> List:
    """Apply fn to chunks of items, in parallel when workers > 1; results are
    concatenated in chunk order so output never depends on scheduling."""
    chunks = _chunks(items, workers * 4 if workers > 1 else 1)
    if workers <= 1 or len(chunks) <= 1:
        parts = [fn(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, chunks))
    return [item for part in parts for item in part]


def _finalize_candidates(
    raw_candidates: List[Tuple[Condition, int]],
    obs: DiscretizedPanel,
    params: SearchParams,
    global_mean: float,
    sigma: float,
) -> List[Rule]:
    """Recompute survivor statistics through the reference gather path and
    re-assert suitability, so emitted rules pass independent re-checks
    exactly."""
    n = obs.n
    z_fn = Z_KINDS[params.z_kind]
    out = []
    for cond, count in raw_candidates:
        mu = conditional_mean(cond, obs)
        cov = count / n
        if not params.c_min <= cov <= params.c_max:
            continue
        if abs(mu - global_mean) < z_fn(count, params.alpha, sigma):
            continue
        out.append(
            Rule(
                condition=cond,
                prediction=mu,
                activations=count,
                sign=int(np.sign(mu - global_mean)),
            )
        )
    return out


def enumerate_complexity1(
    panel: DiscretizedPanel,
    params: SearchParams,
    workers: int = 1,
    report: Optional[LearnReport] = None,
) -> List[Rule]:
    """Evaluate every single-feature interval condition and keep suitable ones.

    For each feature with K codes there are K(K+1)/2 candidate intervals,
    including the full-width one (complexity 0 but still a stored condition).
    Candidates that activate nothing are skipped: their prediction is
    undefined. Output is sorted by the selection criterion.
    """
    obs = panel.observed()
    if obs.n == 0:
        raise EmptyLearningSet("no rows with observed y")
    n = obs.n
    global_mean = conditional_mean(Condition(), obs)
    sigma = sample_std(obs)
    z_fn = Z_KINDS[params.z_kind]
    n_candidates = 0

    def screen_features(feature_indices: Sequence[int]) -> List[Tuple[Condition, int]]:
        picked = []
        for k in feature_indices:
            col = obs.x[:, k]
            K = obs.n_codes[k]
            valid = col >= 0
            counts = np.bincount(col[valid], minlength=K)
            sums = np.bincount(col[valid], weights=obs.y[valid], minlength=K)
            c_pre = np.concatenate(([0], np.cumsum(counts)))
            s_pre = np.concatenate(([0.0], np.cumsum(sums)))
            for a in range(K):
                for b in range(a, K):
                    count = int(c_pre[b + 1] - c_pre[a])
                    if count < 1:
                        continue
                    cov = count / n
                    if not params.c_min <= cov <= params.c_max:
                        continue
                    mu = (s_pre[b + 1] - s_pre[a]) / count
                    if abs(mu - global_mean) < z_fn(count, params.alpha, sigma):
                        continue
                    picked.append((Condition((Interval(k, a, b),)), count))
        return picked

    d = obs.d
    n_candidates = sum(K * (K + 1) // 2 for K in obs.n_codes)
    raw = _map_chunked(screen_features, list(range(d)), workers)
    rules = _finalize_candidates(raw, obs, params, global_mean, sigma)
    rules.sort(key=lambda r: rule_sort_key(r, global_mean, obs.n_codes))
    if report is not None:
        row = report.level(1)
        row.candidates = n_candidates
        row.suitable = len(rules)
    return rules


def generate_complexity_c(
    suitable_1: List[Rule],
    suitable_cminus1: List[Rule],
    c: int,
    params: SearchParams,
    panel: DiscretizedPanel,
    workers: int = 1,
    report: Optional[LearnReport] = None,
) -> List[Rule]:
    """Intersect top-M complexity-1 rules with top-M complexity-(c-1) rules.

    A pair survives when the geometric intersection is non-empty, complexities
    add up, and the joint activation count is strictly below both parents'.
    Survivors must be suitable and of complexity exactly c. Duplicate
    conditions reached through different parent pairs are kept once.
    """
    obs = panel.observed()
    if obs.n == 0:
        raise EmptyLearningSet("no rows with observed y")
    top1 = suitable_1[: params.M]
    topc = suitable_cminus1[: params.M]
    if c == 2:
        # Both parent lists are the complexity-1 list; unordered pairs only,
        # otherwise every intersection shows up twice.
        pairs = list(itertools.combinations(range(len(top1)), 2))
        pair_rules = [(top1[i], top1[j]) for i, j in pairs]
    else:
        pair_rules = [(a, b) for a in top1 for b in topc]

    n = obs.n
    n_codes = obs.n_codes
    global_mean = conditional_mean(Condition(), obs)
    sigma = sample_std(obs)
    z_fn = Z_KINDS[params.z_kind]

    def screen_pairs(pair_chunk) -> List[Tuple[Condition, int]]:
        picked = []
        for rule_a, rule_b in pair_chunk:
            cond = intersect_conditions(rule_a.condition, rule_b.condition)
            if cond is None:
                continue
            cp = cond.complexity(n_codes)
            if cp != rule_a.complexity(n_codes) + rule_b.complexity(n_codes):
                continue
            if cp != c:
                continue
            count = int(activation_mask(cond, obs.x).sum())
            if count == rule_a.activations or count == rule_b.activations:
                continue
            if count < 1:
                continue
            cov = count / n
            if not params.c_min <= cov <= params.c_max:
                continue
            mu = conditional_mean(cond, obs)
            if abs(mu - global_mean) < z_fn(count, params.alpha, sigma):
                continue
            picked.append((cond, count))
        return picked

    raw = _map_chunked(screen_pairs, pair_rules, workers)
    seen: Dict[tuple, Tuple[Condition, int]] = {}
    for cond, count in raw:
        seen.setdefault(cond.key(), (cond, count))
    rules = _finalize_candidates(list(seen.values()), obs, params, global_mean, sigma)
    rules.sort(key=lambda r: rule_sort_key(r, global_mean, obs.n_codes))
    if report is not None:
        row = report.level(c)
        row.candidates = len(pair_rules)
        row.suitable = len(rules)
    return rules


def design_rules(
    panel: DiscretizedPanel,
    params: SearchParams,
    workers: int = 1,
    report: Optional[LearnReport] = None,
) -> List[Rule]:
    """All suitable rules up to cp_max; stops early when a level comes out
    empty."""
    level1 = enumerate_complexity1(panel, params, workers=workers, report=report)
    all_rules = list(level1)
    previous = level1
    for c in range(2, params.cp_max + 1):
        if not previous:
            break
        level_c = generate_complexity_c(
            level1, previous, c, params, panel, workers=workers, report=report
        )
        if not level_c:
            break
        all_rules.extend(level_c)
        previous = level_c
    return all_rules


def select_covering(
    candidates: List[Rule],
    panel: DiscretizedPanel,
    learned_at=None,
    report: Optional[LearnReport] = None,
) -> RuleSet:
    """Greedy covering selection.

    Candidates are walked in criterion order; a rule enters S when it covers
    at least one still-uncovered learning row. If rows remain uncovered after
    the walk, a full-space default rule predicting the learning-set mean is
    appended (flagged is_default).
    """
    obs = panel.observed()
    global_mean = conditional_mean(Condition(), obs) if obs.n else 0.0
    if learned_at is None:
        learned_at = panel.dates.max() if panel.n else None

    ordered = sorted(
        candidates, key=lambda r: rule_sort_key(r, global_mean, panel.n_codes)
    )
    covered = np.zeros(panel.n, dtype=bool)
    selected: List[Rule] = []
    for rule in ordered:
        if covered.all():
            break
        mask = activation_mask(rule.condition, panel.x)
        if np.any(mask & ~covered):
            selected.append(rule)
            covered |= mask
    appended_default = not covered.all()
    if appended_default:
        selected.append(
            Rule(
                condition=Condition(),
                prediction=global_mean,
                activations=panel.n,
                sign=0,
                is_default=True,
            )
        )
    if report is not None:
        report.default_rule_appended = appended_default
        by_level: Dict[int, List[Rule]] = {}
        for rule in selected:
            if rule.is_default:
                continue
            by_level.setdefault(rule.complexity(panel.n_codes), []).append(rule)
        for c, rules_at_c in by_level.items():
            row = report.level(c)
            row.selected = len(rules_at_c)
            row.selected_positive = sum(1 for r in rules_at_c if r.sign > 0)
            row.selected_negative = sum(1 for r in rules_at_c if r.sign < 0)
    return RuleSet(
        rules=selected,
        learned_at=learned_at,
        feature_ids=panel.feature_ids,
        n_codes=list(panel.n_codes),
        global_mean=global_mean,
    )


def learn(
    panel: DiscretizedPanel,
    params: SearchParams,
    learned_at=None,
    workers: int = 1,
) -> Tuple[RuleSet, LearnReport]:
    """Full rule-learning pass over one learning panel."""
    report = LearnReport()
    candidates = design_rules(panel, params, workers=workers, report=report)
    ruleset = select_covering(candidates, panel, learned_at=learned_at, report=report)
    logger.info(
        "learned %d rules (%d candidates suitable) at %s",
        ruleset.R,
        len(candidates),
        ruleset.learned_at,
    )
    return ruleset, report
