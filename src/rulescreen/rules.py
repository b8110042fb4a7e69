"""Rule algebra: hyper-rectangle conditions, activation masks, conditional
means, significance thresholds and geometric intersections.

A condition is a sparse set of closed modality intervals, one per constrained
feature; features without an interval are unconstrained. A rule couples a
condition with its prediction (the conditional mean of y over the learning
set) and its activation count.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NoActivations, SpecMismatch
from .panel import DiscretizedPanel


@dataclass(frozen=True, order=True)
class Interval:
    """Closed modality interval [lo, hi] on one feature."""

    feature_index: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise SpecMismatch(f"interval lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class Condition:
    """Sparse hyper-rectangle; intervals sorted by feature index.

    A stored full-width interval (covering the whole code set) contributes 0
    to complexity but still matters for activation: missing-coded values fail
    every stored interval.
    """

    intervals: Tuple[Interval, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.intervals, key=lambda iv: iv.feature_index))
        idx = [iv.feature_index for iv in ordered]
        if len(set(idx)) != len(idx):
            raise SpecMismatch("condition holds two intervals on one feature")
        object.__setattr__(self, "intervals", ordered)

    def complexity(self, n_codes: Sequence[int]) -> int:
        """Number of stored intervals strictly narrower than the feature's
        full code set."""
        cp = 0
        for iv in self.intervals:
            full = n_codes[iv.feature_index]
            if not (iv.lo == 0 and iv.hi == full - 1):
                cp += 1
        return cp

    def key(self) -> tuple:
        return tuple((iv.feature_index, iv.lo, iv.hi) for iv in self.intervals)


def activation_mask(condition: Condition, x_matrix: np.ndarray) -> np.ndarray:
    """Boolean activation vector over the rows of an (n, d) code matrix."""
    n, d = x_matrix.shape
    mask = np.ones(n, dtype=bool)
    for iv in condition.intervals:
        if iv.feature_index >= d:
            raise DimensionMismatch(
                f"condition references feature {iv.feature_index}, panel has {d}"
            )
        col = x_matrix[:, iv.feature_index]
        mask &= (col >= iv.lo) & (col <= iv.hi)
    return mask


def conditional_mean(condition: Condition, panel: DiscretizedPanel) -> float:
    """Mean of observed y over activated rows; 0.0 when nothing activates.

    Rows with unobserved y are excluded from both sums. The gather order is
    row order, so a per-row loop over the same panel reproduces the value
    bit for bit.
    """
    return observed_mean(panel.y[activation_mask(condition, panel.x)])


def observed_mean(selected: np.ndarray) -> float:
    """Mean of the finite values of `selected`, summed in their order; 0.0
    when there are none. The arithmetic of every rule prediction."""
    selected = selected[np.isfinite(selected)]
    if selected.size == 0:
        return 0.0
    return float(np.sum(selected) / selected.size)


def sample_std(panel: DiscretizedPanel) -> float:
    """Sample standard deviation (ddof=1) of observed y on the panel."""
    y = panel.y[np.isfinite(panel.y)]
    if y.size < 2:
        return 0.0
    return float(np.std(y, ddof=1))


@functools.lru_cache(maxsize=64)
def gaussian_quantile(alpha: float) -> float:
    """q(1 - alpha/2) of the standard normal, computed once per alpha.

    alpha == 0 (or one too small to move 1 - alpha/2 off 1.0) asks for the
    quantile at 1, which is infinite; inv_cdf raises there, so q is inf.
    """
    from statistics import NormalDist  # here, as `score` needs no threshold

    p = 1.0 - alpha / 2.0
    return np.inf if p == 1.0 else NormalDist().inv_cdf(p)


def gaussian_threshold(n_activations: int, alpha: float, sigma: float) -> float:
    """Two-sided gaussian mean test threshold: q(1 - alpha/2) * sigma / sqrt(n)."""
    if n_activations < 1:
        raise NoActivations("threshold undefined with zero activations")
    return gaussian_quantile(alpha) * sigma / np.sqrt(n_activations)


Z_KINDS: Dict[str, Callable[[int, float, float], float]] = {
    "gaussian": gaussian_threshold,
}


@dataclass(frozen=True)
class SearchParams:
    """Knobs of the rule search."""

    alpha: float = 0.05
    c_min: float = 0.05
    c_max: float = 0.5
    cp_max: int = 2
    M: int = 50
    z_kind: str = "gaussian"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise SpecMismatch(f"alpha must lie in [0,1], got {self.alpha}")
        # c_min = 0 disables the lower coverage bound (diagnostic configs).
        if not 0.0 <= self.c_min < self.c_max <= 1.0:
            raise SpecMismatch(
                f"need 0 <= c_min < c_max <= 1, got ({self.c_min}, {self.c_max})"
            )
        if self.cp_max < 1:
            raise SpecMismatch(f"cp_max must be >= 1, got {self.cp_max}")
        if self.M < 1:
            raise SpecMismatch(f"M must be >= 1, got {self.M}")
        if self.z_kind not in Z_KINDS:
            raise SpecMismatch(f"unknown z_kind {self.z_kind!r}")


@dataclass(frozen=True)
class Rule:
    """A condition with its learning-set statistics, frozen at learning time."""

    condition: Condition
    prediction: float
    activations: int
    sign: int
    is_default: bool = False

    def complexity(self, n_codes: Sequence[int]) -> int:
        return self.condition.complexity(n_codes)


def intersect_conditions(a: Condition, b: Condition) -> Optional[Condition]:
    """Geometric intersection of two hyper-rectangles; None when empty."""
    merged: Dict[int, Tuple[int, int]] = {
        iv.feature_index: (iv.lo, iv.hi) for iv in a.intervals
    }
    for iv in b.intervals:
        if iv.feature_index in merged:
            lo0, hi0 = merged[iv.feature_index]
            lo, hi = max(lo0, iv.lo), min(hi0, iv.hi)
            if lo > hi:
                return None
            merged[iv.feature_index] = (lo, hi)
        else:
            merged[iv.feature_index] = (iv.lo, iv.hi)
    return Condition(
        tuple(Interval(k, lo, hi) for k, (lo, hi) in sorted(merged.items()))
    )


def selection_criterion(rule: Rule, global_mean: float) -> float:
    """Significance-scaled effect size used to rank rules."""
    return abs(rule.prediction - global_mean) * math.sqrt(rule.activations)


def rule_sort_key(rule: Rule, global_mean: float, n_codes: Sequence[int]) -> tuple:
    # Criterion descending, then complexity, then the interval tuple, making
    # the order total: it never depends on the order candidates were found in.
    return (
        -selection_criterion(rule, global_mean),
        rule.complexity(n_codes),
        rule.condition.key(),
    )


def describe(rule: Rule, feature_ids: Sequence[str]) -> str:
    """Human-readable If-Then rendering of one rule."""
    if not rule.condition.intervals:
        clause = "any stock"
    else:
        parts = [
            f"{feature_ids[iv.feature_index]} in [{iv.lo}, {iv.hi}]"
            for iv in rule.condition.intervals
        ]
        clause = " AND ".join(parts)
    tag = " (default)" if rule.is_default else ""
    return (
        f"IF {clause} THEN expected 3m excess return = "
        f"{rule.prediction * 100:+.2f}% "
        f"({rule.activations} activations){tag}"
    )


def _finite(value, name: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def json_int(value, name: str) -> int:
    """A JSON integer field; a bool or a float raises ValueError, never truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass
class RuleSet:
    """Covering set of rules frozen at a learning date."""

    rules: List[Rule]
    learned_at: object
    feature_ids: List[str]
    n_codes: List[int]
    global_mean: float = 0.0

    @property
    def R(self) -> int:
        return len(self.rules)

    def describe(self) -> List[str]:
        return [describe(r, self.feature_ids) for r in self.rules]

    def activation_matrix(self, x_matrix: np.ndarray) -> np.ndarray:
        """(n, R) boolean activation matrix over a code matrix."""
        cols = [activation_mask(r.condition, x_matrix) for r in self.rules]
        return np.stack(cols, axis=1) if cols else np.zeros((len(x_matrix), 0), bool)

    def to_json(self) -> str:
        blob = []
        for rule in self.rules:
            entry = {
                "intervals": [
                    {
                        "feature_id": self.feature_ids[iv.feature_index],
                        "lo": int(iv.lo),
                        "hi": int(iv.hi),
                    }
                    for iv in rule.condition.intervals
                ],
                "prediction": float(rule.prediction),
                "activations": int(rule.activations),
                "learned_at": str(self.learned_at),
                "global_mean": float(self.global_mean),
            }
            if rule.is_default:
                entry["is_default"] = True
            blob.append(entry)
        return json.dumps(blob, indent=2)

    @classmethod
    def from_json(
        cls, text: str, feature_ids: Sequence[str], n_codes: Sequence[int]
    ) -> "RuleSet":
        """Read a ruleset written by to_json. A prediction or global_mean
        that is not finite raises ValueError: it would make every score NaN."""
        blob = json.loads(text)
        index = {f: k for k, f in enumerate(feature_ids)}
        means = [_finite(entry["global_mean"], "global_mean") for entry in blob
                 if "global_mean" in entry]
        # Files written before the learning-set mean was stored: the default
        # (full-space) rule predicts it, when there is one.
        global_mean = means[-1] if means else next(
            (float(e["prediction"]) for e in blob if e.get("is_default", False)), 0.0
        )
        rules = []
        learned_at = None
        for entry in blob:
            intervals = []
            for iv in entry["intervals"]:
                if iv["feature_id"] not in index:
                    raise SpecMismatch(f"unknown feature_id {iv['feature_id']!r}")
                k = index[iv["feature_id"]]
                lo, hi = json_int(iv["lo"], "lo"), json_int(iv["hi"], "hi")
                # A code outside 0..n_codes-1 never comes out of the
                # discretizer; lo < 0 would let a missing value activate.
                if lo < 0 or hi >= n_codes[k]:
                    raise ValueError(
                        f"interval [{lo}, {hi}] on {iv['feature_id']!r} lies outside "
                        f"its codes 0..{n_codes[k] - 1}"
                    )
                intervals.append(Interval(k, lo, hi))
            learned_at = np.datetime64(entry["learned_at"], "D")
            prediction = _finite(entry["prediction"], "prediction")
            rules.append(
                Rule(
                    condition=Condition(tuple(intervals)),
                    prediction=prediction,
                    activations=json_int(entry["activations"], "activations"),
                    # The schema does not carry signs; recover them against
                    # the learning-set mean, as the search set them.
                    sign=int(np.sign(prediction - global_mean)),
                    is_default=bool(entry.get("is_default", False)),
                )
            )
        return cls(
            rules=rules,
            learned_at=learned_at,
            feature_ids=list(feature_ids),
            n_codes=list(n_codes),
            global_mean=global_mean,
        )
