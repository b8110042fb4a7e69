"""Sleeping-expert aggregation of rule predictions.

Each rule in the covering set is an expert that speaks only when activated.
Predictions are the weight-normalized average over active rules; weight
updates multiply active rules by exp(-eta * loss) while inactive rules keep
their weight untouched (the active block redistributes its own mass, which is
the exact form of charging sleepers the mix loss of the active ensemble).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NonFiniteLoss, SpecMismatch
from .rules import RuleSet, json_int

def squared_loss(p, y):
    """Squared loss of scalars or broadcastable arrays. float_power calls C
    pow on every element, as `** 2` does on a scalar; `** 2` on an array
    squares by multiplication, which can differ in the last bit."""
    return np.float_power(p - y, 2.0)


# Every charged loss is clipped to [0, LOSS_CLIP]: the exponential-weights
# regret bound that default_eta minimizes holds for losses in [0, 1]
# (Cesa-Bianchi & Lugosi, Prediction, Learning, and Games, 2006, section 2.3).
LOSS_CLIP = 1.0

# An active block whose mass falls below the smallest normal float64 has
# underflowed: rescaling it would divide by a subnormal and overflow to inf.
TINY = np.finfo(np.float64).tiny


def default_eta(n_rules: int, expected_steps: int) -> float:
    """Learning rate minimizing the exponential-weighting regret bound."""
    if n_rules < 2 or expected_steps < 1:
        return 0.0
    return math.sqrt(8.0 * math.log(n_rules) / expected_steps)


@dataclass(frozen=True)
class AggregationState:
    """Weight vector over the rules of one RuleSet plus update bookkeeping."""

    weights: np.ndarray
    eta: float
    epsilon: float = 0.0
    step: int = 0

    @property
    def n_rules(self) -> int:
        return len(self.weights)

    def to_json(self) -> str:
        return json.dumps(
            {
                "weights": [float(w) for w in self.weights],
                "eta": float(self.eta),
                "step": int(self.step),
                "epsilon": float(self.epsilon),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "AggregationState":
        """Read a state written by to_json. Weights that are empty, negative
        or not finite, and a negative or non-finite eta or epsilon, raise
        ValueError: each would silently change every prediction or score."""
        blob = json.loads(text)
        weights = np.asarray(blob["weights"], dtype=np.float64)
        eta, epsilon = float(blob["eta"]), float(blob["epsilon"])
        if weights.ndim != 1 or not weights.size:
            raise ValueError("weights must be a non-empty list")
        for name, values in (("weights", weights), ("eta", eta), ("epsilon", epsilon)):
            if not np.all(np.isfinite(values) & (np.asarray(values) >= 0.0)):
                raise ValueError(f"{name} must be finite and non-negative")
        return cls(weights=weights, eta=eta, epsilon=epsilon, step=json_int(blob["step"], "step"))


def init_state(n_rules: int, eta: float) -> AggregationState:
    """Uniform initial weights 1/R."""
    if n_rules < 1:
        raise SpecMismatch("cannot aggregate an empty ruleset")
    return AggregationState(weights=np.full(n_rules, 1.0 / n_rules, dtype=np.float64), eta=eta)


def predict_many(
    state: AggregationState,
    ruleset: RuleSet,
    x_matrix: np.ndarray,
    activation: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized predict over an (n, d) code matrix.

    Rows activating no rule get the ruleset's learning-set mean, global_mean,
    instead of raising: the scoring engine must be total even when the
    learning sample happened to be coverable without the full-space rule.
    """
    A = ruleset.activation_matrix(x_matrix) if activation is None else activation
    preds = np.array([r.prediction for r in ruleset.rules])
    den = A @ state.weights
    num = A @ (state.weights * preds)
    out = np.full(len(x_matrix), ruleset.global_mean, dtype=np.float64)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    # Rows with active rules whose weights all underflowed to zero.
    stranded = (~ok) & A.any(axis=1)
    if stranded.any():
        cnt = A[stranded].sum(axis=1)
        out[stranded] = (A[stranded] @ preds) / cnt
    return out


def update(
    state: AggregationState,
    ruleset: RuleSet,
    y: np.ndarray,
    active: np.ndarray,
) -> AggregationState:
    """Weight update from a block of k resolved outcomes: y has shape (k,)
    and active, the rows' activation matrix, shape (k, R). The rows apply in
    order on one weight vector.

    Active rules are charged their own loss, clipped at LOSS_CLIP; inactive
    rules keep exactly their current weight, so a rule that never activates
    retains its initial relative weight bit for bit. A row that activates
    nothing leaves the weights unchanged; so does one whose active mass
    underflows (falls below the smallest normal float, TINY).
    Every row advances the step count.
    """
    y = np.asarray(y, dtype=np.float64)
    active = np.asarray(active, dtype=bool)
    finite = np.isfinite(y)
    if not finite.all():
        raise NonFiniteLoss(f"outcome {float(y[~finite][0])!r} is not finite")

    w = state.weights.copy()
    rows = np.flatnonzero(active.any(axis=1))
    if len(rows):
        preds = np.array([r.prediction for r in ruleset.rules])
        losses = squared_loss(preds, y[rows, None])
        if not np.all(np.isfinite(losses[active[rows]])):
            raise NonFiniteLoss("non-finite loss on an active rule")
        factors = np.exp(-state.eta * np.minimum(losses, LOSS_CLIP))
        for f, i in zip(factors, rows):
            on = active[i]
            block = w[on] * f[on]
            block_sum = block.sum()
            target = 1.0 - w[~on].sum()  # mass the active block must keep
            if block_sum >= TINY:
                w[on] = block * (target / block_sum)
    return replace(state, weights=w, step=state.step + len(y))


def score_many(y_hat: np.ndarray, epsilon: float) -> np.ndarray:
    """Ternary scores with a closed dead zone: |y_hat| <= epsilon maps to 0."""
    out = np.zeros(len(y_hat), dtype=np.int64)
    out[y_hat > epsilon] = 1
    out[y_hat < -epsilon] = -1
    return out
