import dataclasses
import math

import numpy as np
import pytest

from coredse.objective import (
    EvalOutcome,
    RewardConfig,
    Violation,
    advantages,
    anomalous_reward,
    penalty_reward,
    raw_objective,
    scalar_reward,
    surrogate_gradients,
    surrogate_objective,
    update_running,
)
from coredse.policy import (
    CompoundAction,
    DistributionSet,
    DomainError,
    entropy,
    heads_from_raw,
    layout_for_space,
    log_prob,
    log_ratio,
    sample,
    stack_actions,
)
from coredse.space import Categorical, ParameterSpace, ParamSpec, Ranged, ShapeError, SortKey


def softmax(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max())
    return e / e.sum()


def mixed_dists(alphas=(2.0, 1.5), betas=(5.0, 3.0), logits=(0.3, -0.2, 0.8)):
    return DistributionSet.from_heads(
        [
            ("beta", alphas[0], betas[0]),
            ("cat", softmax(logits)),
            ("beta", alphas[1], betas[1]),
        ]
    )


def act(*raw):
    return CompoundAction(raw=np.asarray(raw, dtype=float))


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
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            RewardConfig(alpha_r=bad)


# ---------------------------------------------------------------------------
# reward terms


def test_scalar_reward_is_weighted_metrics_minus_penalty():
    cfg = RewardConfig(weights=(-1.0, -0.5), alpha_c=10.0)
    out = EvalOutcome.ok((100.0, 50.0), (Violation("area", 0.2), Violation("l2", 0.3)))
    # -100 - 25 - 10 * 0.5
    assert abs(scalar_reward(out, cfg) - (-130.0)) < 1e-12
    assert abs(scalar_reward(EvalOutcome.ok((100.0, 50.0)), cfg) - (-125.0)) < 1e-12


def test_penalty_reward_collapses_violations():
    cfg = RewardConfig(weights=(-1.0, 0.0), no_shaping_penalty=-7e8)
    clean = EvalOutcome.ok((42.0, 9.0))
    dirty = EvalOutcome.ok((42.0, 9.0), (Violation("area", 1e-6),))
    assert penalty_reward(clean, cfg) == -42.0
    assert penalty_reward(dirty, cfg) == -7e8


def test_reward_terms_reject_anomalous_outcomes():
    cfg = RewardConfig(weights=(-1.0,))
    bad = EvalOutcome.failed()
    with pytest.raises(ValueError):
        scalar_reward(bad, cfg)
    with pytest.raises(ValueError):
        penalty_reward(bad, cfg)
    with pytest.raises(ValueError):
        raw_objective(bad, (-1.0,))


def test_anomalous_reward_branches():
    cfg = RewardConfig(weights=(-1.0,), r_ano=-1e9, alpha_p=1.0)
    # first episode: no history to lean on
    assert anomalous_reward(None, 0.0, None, 1, cfg) == -1e9
    assert anomalous_reward(5.0, 3.0, 4.0, 1, cfg) == -1e9
    # missing either batch mean falls back to the floor
    assert anomalous_reward(None, 3.0, 4.0, 2, cfg) == -1e9
    assert anomalous_reward(5.0, 3.0, None, 2, cfg) == -1e9
    # min() picks whichever history signal is worse
    assert abs(anomalous_reward(5.0, 3.0, 4.0, 2, cfg) - (3.0 - 4.0)) < 1e-12
    assert abs(anomalous_reward(2.0, 3.0, 4.0, 2, cfg) - (2.0 - 4.0)) < 1e-12
    cfg2 = dataclasses.replace(cfg, alpha_p=0.5)
    assert abs(anomalous_reward(5.0, 3.0, 4.0, 7, cfg2) - (3.0 - 2.0)) < 1e-12
    with pytest.raises(ValueError):
        anomalous_reward(5.0, 3.0, 4.0, 0, cfg)


def test_update_running_ema_step():
    rewards = [8.0, 12.0, 10.0, 10.0]  # mean 10
    assert update_running(0.0, rewards, 0.2) == 2.0
    assert update_running(5.0, rewards, 1.0) == 10.0
    assert update_running(5.0, rewards, 0.0) == 5.0
    with pytest.raises(ValueError):
        update_running(0.0, [], 0.2)


def test_advantages_center_on_running():
    got = advantages([1.0, 2.0, 3.0], 2.0)
    assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-15)


def test_reward_translation_invariance():
    # shifting every reward and the running mean by c shifts the EMA by c
    # and leaves advantages untouched
    rng = np.random.default_rng(4)
    rewards = rng.normal(size=12)
    running = 0.7
    c = 123.456
    base = update_running(running, rewards, 0.2)
    shifted = update_running(running + c, rewards + c, 0.2)
    assert abs(shifted - (base + c)) < 1e-9
    assert np.allclose(
        advantages(rewards, base), advantages(rewards + c, base + c), atol=1e-9
    )


def test_raw_objective_negates_weighted_metrics():
    out = EvalOutcome.ok((3.0, 2.0), (Violation("area", 0.5),))
    # violations do not enter the raw objective
    assert abs(raw_objective(out, (-1.0, -2.0)) - 7.0) < 1e-15
    assert abs(raw_objective(out, (-1e-6, 0.0)) - 3e-6) < 1e-18


# ---------------------------------------------------------------------------
# surrogate objective


def test_surrogate_at_snapshot_reduces_to_advantage_plus_entropy():
    dists = mixed_dists()
    actions = [act(0.3, 2, 0.5), act(0.7, 0, 0.1), act(0.4, 1, 0.9)]
    advs = [1.0, -2.0, 0.5]
    got = surrogate_objective(dists, dists, actions, advs, beta_r=3.0, beta_e=0.25)
    want = np.mean(advs) + 0.25 * entropy(dists)
    assert abs(got - want) < 1e-10


def test_surrogate_validates_batch():
    dists = mixed_dists()
    with pytest.raises(ValueError):
        surrogate_objective(dists, dists, [], [], 1.0, 1.0)
    with pytest.raises(ValueError):
        surrogate_objective(dists, dists, [act(0.3, 2, 0.5)], [1.0, 2.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        surrogate_gradients(dists, dists, [], [], 1.0, 1.0)


def test_surrogate_is_minus_infinity_off_snapshot_support():
    p = DistributionSet.from_heads([("cat", np.array([0.5, 0.5]))])
    q = DistributionSet.from_heads([("cat", np.array([1.0, 0.0]))])
    got = surrogate_objective(p, q, [act(0)], [1.0], beta_r=1.0, beta_e=0.0)
    assert got == -np.inf


def test_gradient_value_matches_objective():
    rng = np.random.default_rng(8)
    dists = mixed_dists()
    snap = mixed_dists(alphas=(2.2, 1.4), betas=(4.5, 3.3), logits=(0.1, 0.0, 0.5))
    actions = [act(rng.uniform(0.05, 0.95), rng.integers(3), rng.uniform(0.05, 0.95)) for _ in range(6)]
    advs = rng.normal(size=6)
    value, *_ = surrogate_gradients(dists, snap, actions, advs, beta_r=0.7, beta_e=0.3)
    want = surrogate_objective(dists, snap, actions, advs, beta_r=0.7, beta_e=0.3)
    assert abs(value - want) < 1e-10


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


def test_gradients_match_finite_differences_off_snapshot():
    logits = np.array([0.3, -0.2, 0.8])
    dists = mixed_dists(logits=logits)
    snap = mixed_dists(alphas=(2.4, 1.3), betas=(4.0, 3.5), logits=(0.0, 0.1, 0.6))
    rng = np.random.default_rng(21)
    actions = [act(rng.uniform(0.1, 0.9), rng.integers(3), rng.uniform(0.1, 0.9)) for _ in range(5)]
    advs = rng.normal(size=5)
    beta_r, beta_e = 0.7, 0.3

    value, d_alpha, d_beta, d_logits = surrogate_gradients(
        dists, snap, actions, advs, beta_r, beta_e
    )

    h = 1e-6

    def fd(which, i):
        up = surrogate_objective(
            perturbed(dists, which, i, +h, logits), snap, actions, advs, beta_r, beta_e
        )
        dn = surrogate_objective(
            perturbed(dists, which, i, -h, logits), snap, actions, advs, beta_r, beta_e
        )
        return (up - dn) / (2.0 * h)

    for i in range(2):
        assert abs(d_alpha[i] - fd("alpha", i)) < 1e-5 * max(1.0, abs(d_alpha[i]))
        assert abs(d_beta[i] - fd("beta", i)) < 1e-5 * max(1.0, abs(d_beta[i]))
    for i in range(3):
        got = d_logits[0][i]
        assert abs(got - fd("logit", i)) < 1e-5 * max(1.0, abs(got))


def test_kl_gradient_vanishes_at_snapshot():
    dists = mixed_dists()
    actions = [act(0.5, 1, 0.5)]
    # beta_e = 0 isolates ratio + KL; at the snapshot the KL term is flat,
    # so gradients with beta_r = 0 and beta_r = 50 must agree
    _, da0, db0, dl0 = surrogate_gradients(dists, dists, actions, [1.0], 0.0, 0.0)
    _, da1, db1, dl1 = surrogate_gradients(dists, dists, actions, [1.0], 50.0, 0.0)
    assert np.allclose(da0, da1, atol=1e-12)
    assert np.allclose(db0, db1, atol=1e-12)
    assert np.allclose(dl0[0], dl1[0], atol=1e-12)


def test_clamped_ratio_contributes_no_gradient():
    # snapshot assigns ~1e-12 mass to the drawn category: the log-ratio
    # exceeds the clamp bound, freezing both the value and the gradient
    eps = 1e-12
    p = DistributionSet.from_heads([("cat", np.array([0.5, 0.5]))])
    q = DistributionSet.from_heads([("cat", np.array([1.0 - eps, eps]))])
    value, _, _, d_logits = surrogate_gradients(p, q, [act(1)], [1.0], 0.0, 0.0)
    assert abs(value - math.exp(20.0)) < 1e-6 * math.exp(20.0)
    assert np.array_equal(d_logits[0], np.zeros(2))


def test_unclamped_sample_still_counts_in_mixed_batch():
    eps = 1e-12
    p = DistributionSet.from_heads([("cat", np.array([0.5, 0.5]))])
    q = DistributionSet.from_heads([("cat", np.array([1.0 - eps, eps]))])
    # sample 0 is clamped out, sample 1 (idx 0) stays live
    _, _, _, d_mixed = surrogate_gradients(p, q, [act(1), act(0)], [1.0, 2.0], 0.0, 0.0)
    _, _, _, d_single = surrogate_gradients(p, q, [act(0)], [2.0], 0.0, 0.0)
    assert np.allclose(d_mixed[0], d_single[0] / 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# batched log-ratio against the scalar log_prob


def test_batched_log_ratio_matches_scalar_log_probs():
    space = ParameterSpace(
        (
            ParamSpec("a", Ranged(1, 8)),
            ParamSpec("pick", Categorical(6)),
            ParamSpec("k0", SortKey("order", 0)),
            ParamSpec("k1", SortKey("order", 1)),
            ParamSpec("mode", Categorical(3)),
            ParamSpec("b", Ranged(0, 40)),
        )
    )
    layout = layout_for_space(space)
    rng = np.random.default_rng(5)
    dists = heads_from_raw(rng.normal(scale=2.0, size=layout.out_width), layout)
    snap = heads_from_raw(rng.normal(scale=2.0, size=layout.out_width), layout)
    actions = [sample(dists, rng) for _ in range(24)]
    batch = stack_actions(layout, actions)

    want = np.array([log_prob(dists, a) - log_prob(snap, a) for a in actions])
    assert np.allclose(log_ratio(dists, snap, batch), want, rtol=0.0, atol=1e-12)
    # The trainer takes the ratio of a set against itself: exactly zero.
    assert np.array_equal(log_ratio(dists, dists, batch), np.zeros(len(actions)))

    # A zero-probability category gives -inf, as log_prob does.
    p = DistributionSet.from_heads([("beta", 2.0, 3.0), ("cat", [0.5, 0.5, 0.0])])
    q = DistributionSet.from_heads([("beta", 1.5, 2.0), ("cat", [0.2, 0.3, 0.5])])
    zero = [act(0.4, 2), act(0.4, 1)]
    got = log_ratio(p, q, stack_actions(p.layout, zero))
    assert got[0] == -np.inf
    assert np.isclose(got[1], log_prob(p, zero[1]) - log_prob(q, zero[1]), rtol=0.0, atol=1e-12)


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
    snap = mixed_dists(alphas=(2.2, 1.4), betas=(4.5, 3.3), logits=(0.1, 0.0, 0.5))
    actions = [act(0.3, 2, 0.5), bad]
    with pytest.raises(error):
        log_prob(dists, bad)
    with pytest.raises(error):
        surrogate_objective(dists, snap, actions, [1.0, -1.0], 0.7, 0.3)
    with pytest.raises(error):
        surrogate_gradients(dists, snap, actions, [1.0, -1.0], 0.7, 0.3)
