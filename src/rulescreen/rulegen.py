"""Rule search: exhaustive complexity-1 enumeration, recursive pairwise
intersection up to cp_max, and greedy covering selection.

All statistics are computed on the observed-y rows of the learning panel;
the covering requirement is checked against every learning row's feature
vector (rows with unobserved y still need a prediction later).
"""

from __future__ import annotations

import logging
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
    observed_mean,
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


# Bytes of unpacked boolean rows held at once, while prefix masks are built
# and while the survivors' means are gathered.
UNPACKED_BLOCK_BYTES = 1 << 22


class PackedMasks:
    """Activation masks over the rows of a discretized panel, held as packed
    bits: a mask is a uint64 array of `words` = ceil(n / 64) words in which
    row i is bit i % 64 of word i // 64, and padding bits are 0.

    For each feature, the masks of rows with 0 <= code < j, for j = 0..K, are
    packed once. An interval [lo, hi] is then below[hi + 1] & ~below[lo], and
    a condition, a hyper-rectangle, is the AND of its intervals' masks. So the
    mask of an intersection is the AND of its parents' masks.
    """

    def __init__(self, panel: DiscretizedPanel):
        self.n = panel.n
        self.words = -(-self.n // 64)
        self.x = panel.x
        self.y = panel.y
        self.all = self.pack(np.ones(self.n, dtype=bool))
        # The rows the search counts and averages: those whose y is observed.
        self.observed = self.pack(np.isfinite(panel.y))
        self.n_observed = int(_popcount(self.observed))
        self._below = []
        step = max(1, UNPACKED_BLOCK_BYTES // max(self.n, 1))
        for k in range(panel.d):
            col = panel.x[:, k]
            top = max(panel.n_codes[k], int(col.max(initial=-1)) + 1)
            bounds = np.arange(top + 1)[:, None]
            self._below.append(
                np.concatenate(
                    [
                        self.pack((col >= 0) & (col < bounds[j : j + step]))
                        for j in range(0, top + 1, step)
                    ]
                )
            )

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """The packed bits of a boolean array whose last axis is the rows."""
        packed = np.packbits(rows, axis=-1, bitorder="little")
        out = np.zeros(packed.shape[:-1] + (8 * self.words,), dtype=np.uint8)
        out[..., : packed.shape[-1]] = packed
        return out.view(np.uint64)

    def rows(self, masks: np.ndarray) -> np.ndarray:
        """The boolean row vector of a packed mask, or of each of a stack."""
        unpacked = np.unpackbits(masks.view(np.uint8), axis=-1, count=self.n, bitorder="little")
        return unpacked.view(bool)

    def interval(self, iv: Interval) -> np.ndarray:
        below = self._below[iv.feature_index]
        if iv.lo < 0:  # reaches MISSING_CODE, which no prefix mask holds
            return self.pack(activation_mask(Condition((iv,)), self.x))
        top = len(below) - 1
        return below[min(iv.hi + 1, top)] & ~below[min(iv.lo, top)]

    def mask(self, condition: Condition) -> np.ndarray:
        """activation_mask(condition, panel.x), packed."""
        out = self.all
        for iv in condition.intervals:
            out = out & self.interval(iv)
        return out

    def observed_masks(self, rules: Sequence[Rule]) -> np.ndarray:
        """(len(rules), words) masks of the rules over the observed rows."""
        out = np.empty((len(rules), self.words), dtype=np.uint64)
        for r, rule in enumerate(rules):
            out[r] = self.mask(rule.condition) & self.observed
        return out


def _popcount(masks: np.ndarray):
    """Set bits of a packed mask, or of each row of a stack of them."""
    return np.bitwise_count(masks).sum(axis=-1, dtype=np.int64)


def _with_means(candidates: Sequence[tuple], masks_of, bits: PackedMasks) -> List[tuple]:
    """(condition, count, mean) of each (condition, count, source) candidate,
    where masks_of(sources) stacks the candidates' packed masks. The mean of
    observed y over a condition's rows, summed in row order, is bit for bit
    conditional_mean(condition, panel.observed()). These means are the costly
    part of the search, so a block of masks is unpacked in one call."""
    block = max(1, UNPACKED_BLOCK_BYTES // max(bits.n, 1))
    out = []
    for start in range(0, len(candidates), block):
        part = candidates[start : start + block]
        rows = bits.rows(masks_of([source for _, _, source in part]))
        out += [(cond, count, observed_mean(bits.y[r])) for (cond, count, _), r in zip(part, rows)]
    return out


def _finalize_candidates(
    raw_candidates: List[Tuple[Condition, int, float]],
    params: SearchParams,
    global_mean: float,
    sigma: float,
) -> List[Rule]:
    """Rules of the (condition, count, exact mean) candidates, which passed
    the count and coverage screens, whose mean passes the significance test.
    The means are gathered as conditional_mean gathers them, so emitted rules
    pass independent re-checks exactly."""
    z_fn = Z_KINDS[params.z_kind]
    out = []
    for cond, count, mu in raw_candidates:
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
    report: Optional[LearnReport] = None,
    bits: Optional[PackedMasks] = None,
) -> List[Rule]:
    """Evaluate every single-feature interval condition and keep suitable ones.

    For each feature with K codes there are K(K+1)/2 candidate intervals,
    including the full-width one (complexity 0 but still a stored condition).
    Candidates that activate nothing are skipped: their prediction is
    undefined. Output is sorted by the selection criterion. `bits` are the
    panel's packed masks, when the caller already holds them.
    """
    obs = panel.observed()
    if obs.n == 0:
        raise EmptyLearningSet("no rows with observed y")
    if bits is None:
        bits = PackedMasks(panel)
    n = obs.n
    global_mean = conditional_mean(Condition(), obs)
    sigma = sample_std(obs)
    z_fn = Z_KINDS[params.z_kind]

    raw = []
    for k in range(obs.d):
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
                # A screen only: finalize re-tests with the exact mean.
                mu = (s_pre[b + 1] - s_pre[a]) / count
                if abs(mu - global_mean) < z_fn(count, params.alpha, sigma):
                    continue
                cond = Condition((Interval(k, a, b),))
                raw.append((cond, count, cond))
    n_candidates = sum(K * (K + 1) // 2 for K in obs.n_codes)
    raw = _with_means(raw, lambda conds: np.array([bits.mask(c) for c in conds]), bits)
    rules = _finalize_candidates(raw, params, global_mean, sigma)
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
    report: Optional[LearnReport] = None,
    bits: Optional[PackedMasks] = None,
) -> List[Rule]:
    """Intersect top-M complexity-1 rules with top-M complexity-(c-1) rules.

    A pair survives when the geometric intersection is non-empty, complexities
    add up, and the joint activation count is strictly below both parents'.
    Survivors must be suitable and of complexity exactly c. Duplicate
    conditions reached through different parent pairs are kept once.

    The joint count of a pair is the popcount of the AND of its parents'
    packed masks, taken for one complexity-1 parent against the block of
    its partners at a time; the geometric checks and the exact mean run only
    for the pairs whose count passes.
    """
    if bits is None:
        bits = PackedMasks(panel)
    n = bits.n_observed
    if n == 0:
        raise EmptyLearningSet("no rows with observed y")
    # c == 2: both parent lists are the complexity-1 list; unordered pairs
    # only, otherwise every intersection shows up twice.
    top1 = suitable_1[: params.M]
    topc = top1 if c == 2 else suitable_cminus1[: params.M]
    masks1 = bits.observed_masks(top1)
    masksc = masks1 if c == 2 else bits.observed_masks(topc)
    acts_c = np.array([r.activations for r in topc], dtype=np.int64)

    survivors = []
    for i, rule_a in enumerate(top1):
        first = i + 1 if c == 2 else 0
        counts = _popcount(masksc[first:] & masks1[i])
        cov = counts / n
        passed = (
            (counts >= 1)
            & (counts != rule_a.activations)
            & (counts != acts_c[first:])
            & (params.c_min <= cov)
            & (cov <= params.c_max)
        )
        survivors.extend((i, first + j, int(counts[j])) for j in np.flatnonzero(passed))
    n_pairs = len(top1) * (len(top1) - 1) // 2 if c == 2 else len(top1) * len(topc)

    n_codes = panel.n_codes
    cp1 = [r.complexity(n_codes) for r in top1]
    cpc = [r.complexity(n_codes) for r in topc]
    seen: Dict[tuple, tuple] = {}
    for i, j, count in survivors:
        cond = intersect_conditions(top1[i].condition, topc[j].condition)
        if cond is None:
            continue
        cp = cond.complexity(n_codes)
        if cp != c or cp != cp1[i] + cpc[j]:
            continue
        seen.setdefault(cond.key(), (cond, count, (i, j)))

    global_mean = conditional_mean(Condition(), panel)
    sigma = sample_std(panel)
    raw = _with_means(
        list(seen.values()),
        lambda pairs: masks1[[i for i, _ in pairs]] & masksc[[j for _, j in pairs]],
        bits,
    )
    rules = _finalize_candidates(raw, params, global_mean, sigma)
    rules.sort(key=lambda r: rule_sort_key(r, global_mean, n_codes))
    if report is not None:
        row = report.level(c)
        row.candidates = n_pairs
        row.suitable = len(rules)
    return rules


def design_rules(
    panel: DiscretizedPanel,
    params: SearchParams,
    report: Optional[LearnReport] = None,
    bits: Optional[PackedMasks] = None,
) -> List[Rule]:
    """All suitable rules up to cp_max; stops early when a level comes out
    empty. Every level reads one set of packed masks of the panel."""
    if bits is None:
        bits = PackedMasks(panel)
    level1 = enumerate_complexity1(panel, params, report=report, bits=bits)
    all_rules = list(level1)
    previous = level1
    for c in range(2, params.cp_max + 1):
        if not previous:
            break
        level_c = generate_complexity_c(
            level1, previous, c, params, panel, report=report, bits=bits
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
    bits: Optional[PackedMasks] = None,
) -> RuleSet:
    """Greedy covering selection.

    Candidates are walked in criterion order; a rule enters S when it covers
    at least one still-uncovered learning row. If rows remain uncovered after
    the walk, a full-space default rule predicting the learning-set mean is
    appended (flagged is_default). Coverage is kept as a packed mask.
    """
    if bits is None:
        bits = PackedMasks(panel)
    global_mean = conditional_mean(Condition(), panel)
    if learned_at is None:
        learned_at = panel.dates.max() if panel.n else None

    ordered = sorted(
        candidates, key=lambda r: rule_sort_key(r, global_mean, panel.n_codes)
    )
    covered = np.zeros_like(bits.all)
    selected: List[Rule] = []
    for rule in ordered:
        if np.array_equal(covered, bits.all):
            break
        mask = bits.mask(rule.condition)
        if np.any(mask & ~covered):
            selected.append(rule)
            covered |= mask
    appended_default = not np.array_equal(covered, bits.all)
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
) -> Tuple[RuleSet, LearnReport]:
    """Full rule-learning pass over one learning panel."""
    report = LearnReport()
    bits = PackedMasks(panel)
    candidates = design_rules(panel, params, report=report, bits=bits)
    ruleset = select_covering(
        candidates, panel, learned_at=learned_at, report=report, bits=bits
    )
    logger.info(
        "learned %d rules (%d candidates suitable) at %s",
        ruleset.R,
        len(candidates),
        ruleset.learned_at,
    )
    return ruleset, report
