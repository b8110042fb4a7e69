"""Sleeping-expert weights in action.

Three rules forecast excess returns. Rule A is right whenever it speaks,
rule B is wrong, and rule C never activates at all (its interval sits on a
code the stream never produces). Streaming 600 outcomes through the
exponential-weighting update shows A absorbing B's weight while C's share
stays frozen at its initial 1/3, then the ternary screen maps predictions
to {-1, 0, +1} around the dead zone.

Run: python3 demos/03_expert_aggregation.py
"""

import numpy as np

from rulescreen.aggregate import init_state, predict_many, score_many, update
from rulescreen.rules import Condition, Interval, Rule, RuleSet

rules = [
    Rule(Condition((Interval(0, 0, 2),)), prediction=0.04, activations=50, sign=1),
    Rule(Condition((Interval(0, 1, 3),)), prediction=-0.04, activations=50, sign=-1),
    Rule(Condition((Interval(0, 4, 4),)), prediction=0.10, activations=5, sign=1),
]
ruleset = RuleSet(
    rules=rules,
    learned_at="2019-12-31",
    feature_ids=["momentum_bucket"],
    n_codes=[5],
    global_mean=0.0,
)

rng = np.random.default_rng(3)
state = init_state(ruleset.R, eta=0.8)
x_probe = np.array([[1]], dtype=np.int32)

print("step   w(A)    w(B)    w(C)    aggregate prediction at code 1")
for step in range(600):
    x = np.array([[rng.integers(1, 3)]], dtype=np.int32)  # codes 1..2 only
    y = 0.04 + rng.normal(0.0, 0.02)  # A's forecast is the truth
    # one resolved outcome: a block of one row and its activation row
    state = update(state, ruleset, np.array([y]), ruleset.activation_matrix(x))
    if (step + 1) % 100 == 0:
        w = state.weights / state.weights.sum()
        print(
            f"{step + 1:4d}  {w[0]:.4f}  {w[1]:.4f}  {w[2]:.4f}    "
            f"{predict_many(state, ruleset, x_probe)[0]:+.4f}"
        )

w = state.weights / state.weights.sum()
print(f"\nrule C slept through all 600 updates; its share is still {w[2]:.6f}")
print("(exactly the initial 1/3: sleepers are neither charged nor rescaled).")

print("\nternary screen with dead zone epsilon = 0.02:")
y_hats = np.array([0.05, 0.02, 0.019, -0.001, -0.03])
for y_hat, s in zip(y_hats, score_many(y_hats, 0.02)):
    print(f"  y_hat {y_hat:+.3f} -> score {s:+d}")
