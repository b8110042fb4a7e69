"""Sleeping-expert weight dynamics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulescreen.errors import NonFiniteLoss, SpecMismatch
from rulescreen.aggregate import (
    LOSS_CLIP,
    AggregationState,
    default_eta,
    init_state,
    predict_many,
    score_many,
    squared_loss,
    update,
)
from rulescreen.rules import Condition, Interval, Rule, RuleSet


def C(*ivs):
    return Condition(tuple(Interval(*iv) for iv in ivs))


def ruleset_of(preds, conditions=None, default_idx=None):
    rules = []
    for i, p in enumerate(preds):
        cond = Condition() if conditions is None else conditions[i]
        rules.append(Rule(cond, float(p), 1, int(np.sign(p)),
                          is_default=(i == default_idx)))
    return RuleSet(rules=rules, learned_at="2015-12-31",
                   feature_ids=["f0"], n_codes=[5],
                   global_mean=0.0)


def update_row(state, ruleset, code, y):
    """update on a one-row block: one outcome y for one stock with code."""
    active = ruleset.activation_matrix(np.array([[code]], dtype=np.int32))
    return update(state, ruleset, np.array([y]), active)


def test_initial_weights_uniform():
    st0 = init_state(4, eta=0.5)
    assert st0.weights.tolist() == [0.25] * 4
    with pytest.raises(SpecMismatch):
        init_state(0, eta=0.5)


def test_default_eta_formula():
    assert default_eta(20, 500) == pytest.approx(math.sqrt(8 * math.log(20) / 500))
    assert default_eta(1, 500) == 0.0
    assert default_eta(10, 0) == 0.0


def test_predict_weighted_mean_of_active():
    rs = ruleset_of([0.10, -0.02], [C((0, 0, 2)), C((0, 2, 4))])
    st0 = AggregationState(weights=np.array([0.75, 0.25]), eta=0.1)
    both, first = predict_many(st0, rs, np.array([[2], [0]], dtype=np.int32))
    # both active at code 2
    assert both == pytest.approx(0.75 * 0.10 + 0.25 * -0.02)
    # only the first active at code 0
    assert first == pytest.approx(0.10)


def test_predict_many_default_fallback():
    rs = ruleset_of([0.10, 0.007], [C((0, 0, 1)), Condition()], default_idx=1)
    st0 = init_state(2, 0.1)
    x = np.array([[0], [4]], dtype=np.int32)
    out = predict_many(st0, rs, x)
    assert out[0] == pytest.approx(0.5 * 0.10 + 0.5 * 0.007, rel=1e-12)
    assert out[1] == pytest.approx(0.007)


def test_predict_many_uncovered_row_gets_default_prediction():
    rs = ruleset_of([0.10, 0.03], [C((0, 0, 1)), C((0, 1, 2))])
    st0 = init_state(2, 0.1)
    out = predict_many(st0, rs, np.array([[4]], dtype=np.int32))
    # no default rule stored: falls back to the ruleset's global mean
    assert out[0] == rs.global_mean


def test_update_hand_case():
    rs = ruleset_of([0.5, 0.0], [Condition(), Condition()])
    eta = 0.8
    st0 = init_state(2, eta)
    y = 0.0
    st1 = update_row(st0, rs, 0, y)
    f = np.exp(-eta * np.array([0.25, 0.0]))
    want = 0.5 * f / (0.5 * f).sum()
    assert st1.weights == pytest.approx(want, rel=1e-14)
    assert st1.step == 1


def test_update_rescales_only_the_active_block():
    conds = [C((0, 0, 0)), C((0, 0, 0)), C((0, 3, 4))]
    rs = ruleset_of([0.2, -0.2, 0.9], conds)
    st0 = AggregationState(weights=np.array([0.3, 0.3, 0.4]), eta=1.0)
    st1 = update_row(st0, rs, 0, 0.2)
    # sleeper keeps its weight bit for bit
    assert st1.weights[2] == 0.4
    # active block keeps its joint mass
    assert st1.weights[:2].sum() == pytest.approx(0.6, abs=1e-15)
    # the closer prediction gains
    assert st1.weights[0] > st1.weights[1]


def test_update_without_activations_is_identity_plus_step():
    rs = ruleset_of([0.1], [C((0, 0, 0))])
    st0 = init_state(1, 0.5)
    st1 = update_row(st0, rs, 4, 0.3)
    assert st1.weights.tolist() == st0.weights.tolist()
    assert st1.step == 1


def test_update_rejects_non_finite_outcome():
    rs = ruleset_of([0.1])
    with pytest.raises(NonFiniteLoss):
        update_row(init_state(1, 0.1), rs, 0, float("nan"))


def test_loss_clip_caps_the_charge():
    rs = ruleset_of([10.0, 0.0], [Condition(), Condition()])
    st1 = update_row(init_state(2, eta=1.0), rs, 0, 0.0)
    # squared loss of the far rule is 100 but gets clipped to LOSS_CLIP = 1
    f = np.exp(-np.array([1.0, 0.0]))
    want = 0.5 * f / (0.5 * f).sum()
    assert st1.weights == pytest.approx(want, rel=1e-14)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_never_active_rule_keeps_exact_initial_weight(codes):
    """A rule whose condition never fires is bitwise untouched by any
    update sequence, and total mass stays 1."""
    conds = [C((0, 0, 1)), C((0, 1, 3)), C((0, 5, 5))]  # code 5 never occurs
    rs = ruleset_of([0.05, -0.05, 1.0], conds)
    state = init_state(3, eta=0.7)
    w_sleeper = state.weights[2]
    rng = np.random.default_rng(0)
    for code in codes:
        state = update_row(state, rs, code, float(rng.normal(0, 0.1)))
    assert state.weights[2] == w_sleeper  # exact, no tolerance
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (state.weights >= 0).all()


def test_score_dead_zone_is_closed():
    y_hat = np.array([0.02, -0.02, 0.020001, -0.020001, 0.0])
    assert score_many(y_hat, 0.02).tolist() == [0, 0, 1, -1, 0]


@given(st.floats(-1, 1, allow_nan=False), st.floats(0, 0.5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_score_odd_symmetry(y_hat, eps):
    assert score_many(np.array([-y_hat]), eps)[0] == -score_many(np.array([y_hat]), eps)[0]


def ternary(y_hat, epsilon):
    """The score of one prediction: its sign outside the closed dead zone."""
    if y_hat > epsilon:
        return 1
    if y_hat < -epsilon:
        return -1
    return 0


def test_score_many_matches_scalar():
    y = np.array([-0.5, -0.01, 0.0, 0.01, 0.5])
    got = score_many(y, 0.01)
    assert got.tolist() == [ternary(v, 0.01) for v in y]


def test_state_json_round_trip():
    st0 = AggregationState(weights=np.array([0.7, 0.2, 0.1]), eta=0.33,
                           epsilon=0.015, step=12)
    clone = AggregationState.from_json(st0.to_json())
    assert clone.weights.tolist() == st0.weights.tolist()
    assert clone.eta == st0.eta
    assert clone.epsilon == st0.epsilon
    assert clone.step == st0.step


# --- block updates ------------------------------------------------------------


def reference_update(weights, preds, y, active, eta):
    """One row of the update as a plain per-row loop: scalar losses, the
    active block rescaled to keep its mass, nothing done when no rule is
    active or the active mass underflows."""
    w = weights.copy()
    if not active.any():
        return w
    losses = np.minimum(np.array([(p - y) ** 2 for p in preds[active]]), LOSS_CLIP)
    block = w[active] * np.exp(-eta * losses)
    block_sum = block.sum()
    target = 1.0 - w[~active].sum()
    if block_sum >= np.finfo(np.float64).tiny:
        w[active] = block * (target / block_sum)
    return w


@st.composite
def update_blocks(draw):
    R = draw(st.integers(1, 6))
    k = draw(st.integers(1, 25))
    value = st.floats(-2.0, 2.0, allow_nan=False)
    preds = draw(st.lists(value, min_size=R, max_size=R))
    ys = draw(st.lists(value, min_size=k, max_size=k))
    bits = draw(st.lists(st.booleans(), min_size=k * R, max_size=k * R))
    eta = draw(st.sampled_from([0.0, 0.3, 5.0, 1e4]))
    return preds, np.array(ys), np.array(bits).reshape(k, R), eta


@given(update_blocks())
@example(([0.26953125], np.array([0.0, 0.0]), np.array([[True], [True]]), 1e4))
@settings(max_examples=80, deadline=None)
def test_block_update_equals_row_by_row(case):
    """A block update gives exactly (==) the weights of k one-row blocks
    and of the per-row reference loop, through all-inactive rows, clipped
    losses (|p - y| up to 4, so squared losses up to 16, against
    LOSS_CLIP = 1) and blocks whose active mass underflows (eta = 1e4), to
    zero or to a subnormal."""
    preds, ys, active, eta = case
    rs = ruleset_of(preds)
    st0 = init_state(len(preds), eta)

    block = update(st0, rs, ys, active)
    rows = st0
    want = st0.weights
    for i, (y, on) in enumerate(zip(ys, active)):
        rows = update(rows, rs, ys[i : i + 1], active[i : i + 1])
        want = reference_update(want, np.array(preds), float(y), on, eta)
    assert block.weights.tolist() == rows.weights.tolist()
    assert block.weights.tolist() == want.tolist()
    assert block.step == rows.step == len(ys)


def test_block_update_equals_reference_on_random_returns():
    """Thousands of return-like outcomes, not only the short floats that
    hypothesis favours."""
    rng = np.random.default_rng(11)
    k, R, eta = 3000, 5, 2.0
    preds = rng.normal(0.0, 0.3, R)
    ys = rng.normal(0.0, 0.3, k)
    active = rng.random((k, R)) < 0.6
    rs = ruleset_of(preds)
    st0 = init_state(R, eta=eta)
    want = st0.weights
    for y, on in zip(ys, active):
        want = reference_update(want, preds, float(y), on, eta)
    got = update(st0, rs, ys, active)
    assert got.weights.tolist() == want.tolist()

def test_squared_loss_block_equals_scalar_losses():
    """The loss matrix of a block holds exactly the losses a per-row loop
    takes one scalar at a time. `** 2` on a float64 scalar calls C pow, while
    on an array it multiplies, which differs in the last bit on about one
    loss in a thousand."""
    rng = np.random.default_rng(5)
    preds = rng.normal(0.0, 0.1, 50)
    ys = rng.normal(0.0, 0.1, 400)
    block = squared_loss(preds, ys[:, None])
    scalar = [[(p - float(y)) ** 2 for p in preds] for y in ys]
    assert block.tolist() == scalar

def test_block_update_underflow_and_clip_hand_cases():
    rs = ruleset_of([1.0, -1.0, 0.0], [Condition(), Condition(), C((0, 4, 4))])
    st0 = init_state(3, eta=1e4)
    active = rs.activation_matrix(np.array([[0], [0], [1]], dtype=np.int32))
    st1 = update(st0, rs, np.array([0.0, 1.0, 3.0]), active)
    # row 0: both active losses are 1, exp(-1e4) underflows, weights stay;
    # row 1: losses 0 and 4 (clipped to 1): the exact rule takes the mass;
    # row 2: losses 4 and 16 both clip to 1 and underflow again.
    assert st1.weights[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert st1.weights[1] == 0.0
    assert st1.weights[2] == st0.weights[2]  # the sleeper, bit for bit
    assert st1.step == 3
    assert update(st1, rs, np.array([3.0]), active[2:]).weights.tolist() == \
        st1.weights.tolist()


def test_block_update_rejects_a_non_finite_outcome_anywhere():
    rs = ruleset_of([0.1])
    with pytest.raises(NonFiniteLoss):
        update(init_state(1, 0.1), rs, np.array([0.0, np.inf, 0.1]), np.ones((3, 1), bool))


# --- scoring through saved files -------------------------------------------------


@st.composite
def saved_models(draw):
    """A ruleset with no default rule (so some rows activate nothing), its
    weights, and code rows that include missing codes (-1)."""
    R = draw(st.integers(1, 5))
    conditions, preds = [], []
    for _ in range(R):
        lo = draw(st.integers(0, 4))
        hi = draw(st.integers(lo, 4))
        conditions.append(C((draw(st.integers(0, 1)), lo, hi)))
        preds.append(draw(st.floats(-0.2, 0.2, allow_nan=False)))
    raw_w = draw(st.lists(st.floats(1e-6, 1.0), min_size=R, max_size=R))
    codes = draw(st.lists(st.integers(-1, 4), min_size=2, max_size=80))
    if len(codes) % 2:
        codes = codes[:-1]
    mean = draw(st.floats(-0.1, 0.1, allow_nan=False))
    return conditions, preds, np.array(raw_w), np.array(codes, np.int32), mean


@given(saved_models())
@settings(max_examples=60, deadline=None)
def test_scores_through_saved_files_match_in_memory(model):
    """rules.json and state.json written and read back score every row like
    the in-memory objects, rows that activate no rule included (they get the
    learning-set mean)."""
    conditions, preds, raw_w, codes, mean = model
    rules = [Rule(c, p, 10, int(np.sign(p - mean))) for c, p in zip(conditions, preds)]
    rs = RuleSet(rules=rules, learned_at="2015-12-31", feature_ids=["f0", "f1"],
                 n_codes=[5, 5], global_mean=mean)
    state = AggregationState(weights=raw_w / raw_w.sum(), eta=0.2, epsilon=0.01)
    x = codes.reshape(-1, 2)

    rs_disk = RuleSet.from_json(rs.to_json(), ["f0", "f1"], [5, 5])
    state_disk = AggregationState.from_json(state.to_json())
    want = predict_many(state, rs, x)
    got = predict_many(state_disk, rs_disk, x)
    assert got.tolist() == want.tolist()
    assert score_many(got, state_disk.epsilon).tolist() == \
        score_many(want, state.epsilon).tolist()
    assert [r.sign for r in rs_disk.rules] == [r.sign for r in rules]
