import dataclasses

import numpy as np
import pytest

from coredse.objective import (
    EvalOutcome,
    OutcomeBatch,
    RewardConfig,
    Violation,
    advantages,
    penalty_reward,
    raw_objective,
    scalar_reward,
    surrogate_gradients,
    surrogate_objective,
)
from coredse.policy import (
    DomainError,
    entropy,
    heads_from_raw,
    layout_for_space,
    kl,
    log_probs,
    sample,
    stack_actions,
)
from scipy.special import polygamma

from coredse.space import Categorical, ParameterSpace, ParamSpec, Ranged, ShapeError, SortKey
from heads import dists_from_heads, log_prob


def softmax(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max())
    return e / e.sum()


def mixed_dists(alphas=(2.0, 1.5), betas=(5.0, 3.0), logits=(0.3, -0.2, 0.8)):
    return dists_from_heads(
        [
            ("beta", alphas[0], betas[0]),
            ("cat", softmax(logits)),
            ("beta", alphas[1], betas[1]),
        ]
    )


def act(*raw):
    return np.asarray(raw, dtype=float)


# ---------------------------------------------------------------------------
# outcome containers


def test_violation_requires_positive_residual():
    Violation("area", 0.25)
    for bad in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            Violation("area", bad)


def test_outcome_constructors_and_feasibility():
    ok = EvalOutcome.ok((10.0, 3.0))
    assert ok.metrics == (10.0, 3.0) and ok.feasible and not ok.anomalous
    assert ok.violation_sum() == 0.0

    hit = EvalOutcome.ok((10.0, 3.0), (Violation("area", 0.2), Violation("l1", 0.3)))
    assert not hit.feasible
    assert abs(hit.violation_sum() - 0.5) < 1e-15

    bad = EvalOutcome.failed("mapping does not tile")
    assert bad.anomalous and not bad.feasible and bad.metrics is None
    assert bad.note == "mapping does not tile"


def test_outcome_validation():
    with pytest.raises(ValueError):
        EvalOutcome(metrics=(1.0,), anomalous=True)
    with pytest.raises(ValueError):
        EvalOutcome(metrics=None)
    with pytest.raises(ValueError):
        EvalOutcome(metrics=(1.0, float("inf")))


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(weights=())


# ---------------------------------------------------------------------------
# reward terms


def batch(*outcomes) -> OutcomeBatch:
    return OutcomeBatch.of((None, o) for o in outcomes)


def test_scalar_reward_is_weighted_metrics_minus_penalty():
    cfg = RewardConfig(weights=(-1.0, -0.5), alpha_c=10.0)
    out = EvalOutcome.ok((100.0, 50.0), (Violation("area", 0.2), Violation("l2", 0.3)))
    # -100 - 25 - 10 * 0.5
    got = scalar_reward(batch(out, EvalOutcome.ok((100.0, 50.0))), cfg)
    assert np.allclose(got, [-130.0, -125.0], rtol=0.0, atol=1e-12)


def test_penalty_reward_collapses_violations():
    cfg = RewardConfig(weights=(-1.0, 0.0), no_shaping_penalty=-7e8)
    clean = EvalOutcome.ok((42.0, 9.0))
    dirty = EvalOutcome.ok((42.0, 9.0), (Violation("area", 1e-6),))
    assert penalty_reward(batch(clean, dirty), cfg).tolist() == [-42.0, -7e8]


def test_reward_terms_are_nan_on_anomalous_rows():
    cfg = RewardConfig(weights=(-1.0,))
    mixed = batch(EvalOutcome.failed(), EvalOutcome.ok((2.0,)))
    for reward in (scalar_reward, penalty_reward):
        got = reward(mixed, cfg)
        assert np.isnan(got[0]) and got[1] == -2.0
        assert np.isnan(reward(batch(EvalOutcome.failed()), cfg)).all()
    with pytest.raises(ValueError):
        raw_objective(EvalOutcome.failed(), (-1.0,))
    with pytest.raises(ValueError, match="1 metrics vs 2 weights"):
        scalar_reward(mixed, RewardConfig(weights=(-1.0, 0.0)))


def test_batch_rewards_are_bit_equal_to_one_design_at_a_time():
    # weighted sums add one metric at a time from 0.0, and residual sums one
    # constraint at a time, for a batch as for one design
    rng = np.random.default_rng(3)
    names = ("area", "l1", "l2")
    outcomes = []
    for _ in range(300):
        hits = [Violation(n, float(rng.uniform(1e-3, 1e3))) for n in names if rng.random() < 0.5]
        outcomes.append(EvalOutcome.ok(rng.uniform(-1e6, 1e6, size=3), hits))
    cfg = RewardConfig(weights=tuple(rng.uniform(-2.0, 2.0, size=3)), alpha_c=float(rng.uniform(0.1, 10.0)))
    b = batch(*outcomes)
    assert b.violation_sums().tobytes() == np.array([o.violation_sum() for o in outcomes]).tobytes()
    want = [-raw_objective(o, cfg.weights) - cfg.alpha_c * o.violation_sum() for o in outcomes]
    assert scalar_reward(b, cfg).tobytes() == np.array(want).tobytes()


def test_outcome_batch_keeps_each_outcomes_violation_order():
    rows = [
        EvalOutcome.ok((1.0,), [Violation("l1", 0.1)]),
        EvalOutcome.ok((1.0,), [Violation("area", 0.2), Violation("l1", 0.3)]),
        EvalOutcome.ok((1.0,), [Violation("l2", 0.4)]),
        EvalOutcome.ok((1.0,), [Violation("l1", 0.5), Violation("l2", 0.6)]),
        EvalOutcome.failed("no model"),
    ]
    b = batch(*rows)
    assert b.names == ("area", "l1", "l2")
    assert [b.outcome(k) for k in range(len(rows))] == rows
    assert b.feasible.tolist() == [False] * 5 and b.notes == {4: "no model"}
    with pytest.raises(ValueError, match="metrics in one batch"):
        batch(EvalOutcome.ok((1.0,)), EvalOutcome.ok((1.0, 2.0)))


def test_advantages_leave_one_out():
    # each reward minus the mean of the other two
    got = advantages([1.0, 2.0, 6.0])
    assert np.allclose(got, [1.0 - 4.0, 2.0 - 3.5, 6.0 - 1.5], rtol=0.0, atol=1e-15)
    assert abs(got.sum()) < 1e-12
    # a batch of one, or of equal rewards, has nothing to compare against
    assert advantages([5.0]).tolist() == [0.0]
    assert advantages(np.full(7, 0.1)).tolist() == [0.0] * 7
    assert advantages(np.full(4, -1e9)).tolist() == [0.0] * 4


def test_reward_translation_invariance():
    # shifting every reward of a batch by c leaves its advantages untouched
    rng = np.random.default_rng(4)
    rewards = rng.normal(size=12)
    c = 123.456
    assert np.allclose(advantages(rewards), advantages(rewards + c), rtol=0.0, atol=1e-9)


def test_raw_objective_negates_weighted_metrics():
    out = EvalOutcome.ok((3.0, 2.0), (Violation("area", 0.5),))
    # violations do not enter the raw objective
    assert abs(raw_objective(out, (-1.0, -2.0)) - 7.0) < 1e-15
    assert abs(raw_objective(out, (-1e-6, 0.0)) - 3e-6) < 1e-18


# ---------------------------------------------------------------------------
# surrogate objective


def mixed_space():
    return ParameterSpace(
        (
            ParamSpec("a", Ranged(1, 8)),
            ParamSpec("pick", Categorical(6)),
            ParamSpec("k0", SortKey("order", 0)),
            ParamSpec("k1", SortKey("order", 1)),
            ParamSpec("mode", Categorical(3)),
            ParamSpec("b", Ranged(0, 40)),
        )
    )


def ratio_kl_surrogate_gradients(dists, snapshot, actions, advs, beta_r, beta_e, ratio_bound=20.0):
    """The importance-ratio surrogate with a clamp and a KL(dists || snapshot)
    trust term, kept here as the reference: at the snapshot its gradient is
    the on-policy score-function gradient."""
    layout = dists.layout
    advs = np.asarray(advs, dtype=float)
    E = len(actions)
    a, b = dists.alphas, dists.betas
    ab = a + b
    dg_a, dg_b, dg_ab = dists.dg_alpha, dists.dg_beta, dists.dg_sum

    batch = stack_actions(layout, actions)
    delta = batch.log_x @ (a - snapshot.alphas) + batch.log_1mx @ (b - snapshot.betas)
    delta -= (dists.beta_norm - snapshot.beta_norm).sum()
    flat = batch.cat_index + layout.cat_flat_off
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pq = np.log(dists.flat_probs.take(flat)) - np.log(snapshot.flat_probs.take(flat))
        delta = delta + log_pq.sum(axis=1)
    ratio = np.exp(np.clip(delta, -ratio_bound, ratio_bound))
    active = np.abs(delta) < ratio_bound
    coef = advs * ratio * active / E

    value = float(ratio @ advs) / E
    d_alpha = np.zeros_like(a)
    d_beta = np.zeros_like(b)
    d_logits = [np.zeros_like(p) for p in dists.cat_probs]
    if layout.n_beta:
        d_alpha += coef @ (batch.log_x - dg_a + dg_ab)
        d_beta += coef @ (batch.log_1mx - dg_b + dg_ab)
    for j, p in enumerate(dists.cat_probs):
        g = -np.outer(coef, p)
        g[np.arange(E), batch.cat_index[:, j]] += coef
        d_logits[j] += g.sum(axis=0)

    tg_a, tg_b, tg_ab = polygamma(1, a), polygamma(1, b), polygamma(1, ab)
    da, db = a - snapshot.alphas, b - snapshot.betas
    value -= beta_r * kl(dists, snapshot)
    d_alpha -= beta_r * (da * tg_a - (da + db) * tg_ab)
    d_beta -= beta_r * (db * tg_b - (da + db) * tg_ab)
    heads = [slice(off, off + k) for off, k in zip(layout.cat_flat_off, layout.cat_sizes)]
    log_p, log_q = dists.flat_log_probs, snapshot.flat_log_probs
    for j, (p, h) in enumerate(zip(dists.cat_probs, heads)):
        q = snapshot.flat_probs[h]
        logpq = np.where(p > 0.0, log_p[h] - log_q[h] + np.where(q > 0.0, 0.0, np.inf), 0.0)
        d_logits[j] -= beta_r * p * (logpq - float(np.sum(p * logpq)))

    value += beta_e * entropy(dists)
    d_alpha += beta_e * (-(a - 1.0) * tg_a + (ab - 2.0) * tg_ab)
    d_beta += beta_e * (-(b - 1.0) * tg_b + (ab - 2.0) * tg_ab)
    for j, (p, h) in enumerate(zip(dists.cat_probs, heads)):
        h_head = -float(np.sum(p * log_p[h]))
        d_logits[j] += beta_e * p * (-log_p[h] - h_head)
    return value, d_alpha, d_beta, d_logits


def test_surrogate_at_snapshot_reduces_to_advantage_plus_entropy():
    # Against its own sampling snapshot the ratio surrogate is mean(adv) +
    # beta_e * H, and its gradient is the on-policy one, bit for bit.
    layout = layout_for_space(mixed_space())
    for seed in range(5):
        rng = np.random.default_rng([seed])
        dists = heads_from_raw(rng.normal(scale=2.0, size=layout.out_width), layout)
        actions = sample(dists, rng, 16)
        advs = rng.normal(scale=10.0, size=16)
        beta_e = float(rng.uniform(0.0, 1.0))
        ref_value, *ref = ratio_kl_surrogate_gradients(dists, dists, actions, advs, 3.0, beta_e)
        assert abs(ref_value - (np.mean(advs) + beta_e * entropy(dists))) < 1e-10

        got = surrogate_gradients(dists, actions, advs, beta_e)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert len(got[2]) == len(ref[2]) == 2
        assert all(np.array_equal(g, r) for g, r in zip(got[2], ref[2]))


def test_surrogate_is_advantage_weighted_log_prob_plus_entropy():
    dists = mixed_dists()
    actions = np.array([act(0.3, 2, 0.5), act(0.7, 0, 0.1), act(0.4, 1, 0.9)])
    advs = [1.0, -2.0, 0.5]
    got = surrogate_objective(dists, actions, advs, beta_e=0.25)
    want = np.mean([adv * log_prob(dists, a) for adv, a in zip(advs, actions)]) + 0.25 * entropy(dists)
    assert abs(got - want) < 1e-10


def test_surrogate_validates_batch():
    dists = mixed_dists()
    with pytest.raises(ValueError):
        surrogate_objective(dists, [], [], 1.0)
    with pytest.raises(ValueError):
        surrogate_objective(dists, [act(0.3, 2, 0.5)], [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        surrogate_gradients(dists, [], [], 1.0)


def perturbed(dists, which, i, h, logits=None):
    """Rebuild a DistributionSet with one head coordinate nudged by h."""
    if which == "alpha":
        alphas = dists.alphas.copy()
        alphas[i] += h
        return dataclasses.replace(dists, alphas=alphas)
    if which == "beta":
        betas = dists.betas.copy()
        betas[i] += h
        return dataclasses.replace(dists, betas=betas)
    z = np.asarray(logits, dtype=float).copy()
    z[i] += h
    return dataclasses.replace(dists, cat_probs=(softmax(z),))


def test_gradients_match_finite_differences():
    logits = np.array([0.3, -0.2, 0.8])
    dists = mixed_dists(logits=logits)
    rng = np.random.default_rng(21)
    actions = np.array([act(rng.uniform(0.1, 0.9), rng.integers(3), rng.uniform(0.1, 0.9)) for _ in range(5)])
    advs = rng.normal(size=5)
    beta_e = 0.3

    d_alpha, d_beta, d_logits = surrogate_gradients(dists, actions, advs, beta_e)

    h = 1e-6

    def fd(which, i):
        up = surrogate_objective(perturbed(dists, which, i, +h, logits), actions, advs, beta_e)
        dn = surrogate_objective(perturbed(dists, which, i, -h, logits), actions, advs, beta_e)
        return (up - dn) / (2.0 * h)

    for i in range(2):
        assert abs(d_alpha[i] - fd("alpha", i)) < 1e-5 * max(1.0, abs(d_alpha[i]))
        assert abs(d_beta[i] - fd("beta", i)) < 1e-5 * max(1.0, abs(d_beta[i]))
    for i in range(3):
        got = d_logits[0][i]
        assert abs(got - fd("logit", i)) < 1e-5 * max(1.0, abs(got))


# ---------------------------------------------------------------------------
# batched log-probabilities against the one-action reference log_prob


def test_batched_log_probs_match_scalar_log_prob():
    layout = layout_for_space(mixed_space())
    rng = np.random.default_rng(5)
    dists = heads_from_raw(rng.normal(scale=2.0, size=layout.out_width), layout)
    actions = sample(dists, rng, 24)

    want = np.array([log_prob(dists, a) for a in actions])
    got = log_probs(dists, stack_actions(layout, actions))
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    # A zero-probability category gives -inf, as log_prob does.
    p = dists_from_heads([("beta", 2.0, 3.0), ("cat", [0.5, 0.5, 0.0])])
    zero = [act(0.4, 2), act(0.4, 1)]
    got = log_probs(p, stack_actions(p.layout, zero))
    assert got[0] == -np.inf and log_prob(p, zero[0]) == -np.inf
    assert np.isclose(got[1], log_prob(p, zero[1]), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "bad, error",
    [
        (act(0.3, 2), ShapeError),  # one value short
        (act(0.3, 2, 0.5, 0.5), ShapeError),  # one value too many
        (act(0.0, 1, 0.5), DomainError),  # Beta value on the lower edge
        (act(0.3, 1, 1.0), DomainError),  # Beta value on the upper edge
        (act(0.3, 3, 0.5), DomainError),  # category k of a 3-way head
        (act(0.3, -1, 0.5), DomainError),  # negative category
    ],
)
def test_surrogate_validates_actions_like_log_prob(bad, error):
    dists = mixed_dists()
    # A matrix's rows share one length, so a wrong-length action makes every row wrong.
    actions = np.stack([act(0.3, 2, 0.5) if bad.size == 3 else bad, bad])
    with pytest.raises(error):
        log_prob(dists, bad)
    with pytest.raises(error):
        surrogate_objective(dists, actions, [1.0, -1.0], 0.3)
    with pytest.raises(error):
        surrogate_gradients(dists, actions, [1.0, -1.0], 0.3)
