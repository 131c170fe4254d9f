"""Rewards, advantages, and the on-policy surrogate objective.

Reward shaping: a valid design scores the weighted metric sum minus
alpha_c times the summed positive constraint residuals.  A design the
evaluator could not score (anomalous) gets a reward derived from the
previous batch mean, the running reward, and the current batch mean --
or the floor value r_ano on the first episode and whenever those means
are unavailable.

The surrogate is J = mean(adv * log pi(a)) + beta_e * H(pi): the
score-function (REINFORCE) objective over the batch plus a decaying
entropy bonus.  The trainer takes exactly one step per sampled batch, at
the parameters that drew it, so no importance ratio against a sampling
snapshot is needed: at the snapshot a ratio is exp(0) = 1 with gradient
grad log pi(a), a ratio clamp never binds, and a KL(pi || snapshot) trust
term has zero gradient, so a ratio/KL surrogate's gradient equals this one
exactly.  That is also PPO's clipped objective at its first step.

The log-probabilities of a batch come from one pass (`policy.log_probs`):
the actions are stacked and validated once, log x and log(1 - x) are taken
once, and the distribution set contributes its cached Beta normalisers,
digammas and categorical probabilities.  Those caches are computed when a
`DistributionSet` is built and rely on its arrays never being mutated
afterwards; a changed set is a new one, from `policy.heads_from_raw` or
`dataclasses.replace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma

from . import policy
from .policy import DistributionSet

__all__ = [
    "Violation",
    "EvalOutcome",
    "RewardConfig",
    "scalar_reward",
    "penalty_reward",
    "anomalous_reward",
    "update_running",
    "advantages",
    "raw_objective",
    "surrogate_objective",
    "surrogate_gradients",
]


@dataclass(frozen=True)
class Violation:
    """One positive normalized constraint residual: (value - budget) / budget."""

    name: str
    residual: float

    def __post_init__(self):
        if not (self.residual > 0.0):
            raise ValueError(f"violation {self.name!r} needs residual > 0, got {self.residual}")


@dataclass(frozen=True)
class EvalOutcome:
    metrics: tuple[float, ...] | None
    violations: tuple[Violation, ...] = ()
    anomalous: bool = False
    note: str = ""

    def __post_init__(self):
        if self.anomalous:
            if self.metrics is not None:
                raise ValueError("anomalous outcomes carry no metrics")
        else:
            if self.metrics is None or not all(math.isfinite(m) for m in self.metrics):
                raise ValueError(f"valid outcome needs finite metrics, got {self.metrics}")

    @staticmethod
    def ok(metrics, violations=()) -> "EvalOutcome":
        return EvalOutcome(metrics=tuple(float(m) for m in metrics), violations=tuple(violations))

    @staticmethod
    def failed(note: str = "") -> "EvalOutcome":
        return EvalOutcome(metrics=None, anomalous=True, note=note)

    @property
    def feasible(self) -> bool:
        return not self.anomalous and not self.violations

    def violation_sum(self) -> float:
        return float(sum(v.residual for v in self.violations))


@dataclass(frozen=True)
class RewardConfig:
    weights: tuple[float, ...] = (-1.0, 0.0)  # latency-only objective
    alpha_c: float = 1.0  # constraint penalty rate
    alpha_p: float = 1.0  # anomalous batch-mean rate
    alpha_r: float = 0.2  # running-reward EMA rate
    beta_e_start: float = 1.0  # entropy bonus schedule
    beta_e_end: float = 0.02
    r_ano: float = -1e9  # anomalous floor reward
    shaping: bool = True
    no_shaping_penalty: float = -1e9

    def __post_init__(self):
        if not self.weights:
            raise ValueError("RewardConfig needs at least one metric weight")
        if not 0.0 <= self.alpha_r <= 1.0:
            raise ValueError(f"alpha_r must be in [0, 1], got {self.alpha_r}")


def _weighted(metrics, weights) -> float:
    if len(metrics) != len(weights):
        raise ValueError(f"{len(metrics)} metrics vs {len(weights)} weights")
    return float(np.dot(np.asarray(metrics, dtype=float), np.asarray(weights, dtype=float)))


def scalar_reward(outcome: EvalOutcome, cfg: RewardConfig) -> float:
    """Weighted metrics minus alpha_c * sum of positive residuals."""
    if outcome.anomalous:
        raise ValueError("scalar_reward is only defined for valid outcomes")
    return _weighted(outcome.metrics, cfg.weights) - cfg.alpha_c * outcome.violation_sum()


def penalty_reward(outcome: EvalOutcome, cfg: RewardConfig) -> float:
    """Shaping-disabled scoring: any violation collapses to the fixed penalty."""
    if outcome.anomalous:
        raise ValueError("penalty_reward is only defined for valid outcomes")
    if outcome.violations:
        return cfg.no_shaping_penalty
    return _weighted(outcome.metrics, cfg.weights)


def anomalous_reward(
    prev_batch_mean: float | None,
    running_prev: float,
    cur_batch_mean: float | None,
    t: int,
    cfg: RewardConfig,
) -> float:
    """Reward for a design the evaluator rejected, at 1-based episode t."""
    if t < 1:
        raise ValueError(f"episode index must be >= 1, got {t}")
    if t == 1 or prev_batch_mean is None or cur_batch_mean is None:
        return cfg.r_ano
    return min(prev_batch_mean, running_prev) - cfg.alpha_p * cur_batch_mean


def update_running(running_prev: float, rewards, alpha_r: float) -> float:
    """EMA step: alpha_r * batch_mean + (1 - alpha_r) * previous."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size == 0:
        raise ValueError("cannot update the running reward from an empty batch")
    return float(alpha_r * rewards.mean() + (1.0 - alpha_r) * running_prev)


def advantages(rewards, running: float) -> np.ndarray:
    return np.asarray(rewards, dtype=float) - running


def raw_objective(outcome: EvalOutcome, weights) -> float:
    """Positive minimization objective: negated weighted metric sum."""
    if outcome.anomalous:
        raise ValueError("raw_objective is only defined for valid outcomes")
    return -_weighted(outcome.metrics, weights)


# ---------------------------------------------------------------------------
# Surrogate objective

def _stack_batch(dists: DistributionSet, actions, advs):
    advs = np.asarray(advs, dtype=float)
    if len(actions) != advs.size:
        raise ValueError(f"{len(actions)} actions vs {advs.size} advantages")
    if len(actions) == 0:
        raise ValueError("surrogate objective needs a non-empty batch")
    return policy.stack_actions(dists.layout, actions), advs


def _objective(dists: DistributionSet, batch, advs, beta_e: float) -> float:
    return float(policy.log_probs(dists, batch) @ advs) / advs.size + beta_e * policy.entropy(dists)


def surrogate_objective(dists: DistributionSet, actions, advs, beta_e: float) -> float:
    """mean(adv * log pi(a)) + beta_e * H(pi) over a non-empty batch."""
    return _objective(dists, *_stack_batch(dists, actions, advs), beta_e)


def surrogate_gradients(dists: DistributionSet, actions, advs, beta_e: float):
    """Value and closed-form gradients wrt head parameters.

    Returns (value, d_alpha, d_beta, d_logits) where d_logits is one array
    per categorical head, already chained through the softmax.
    """
    batch, advs = _stack_batch(dists, actions, advs)
    E = advs.size
    coef = advs / E
    value = _objective(dists, batch, advs, beta_e)

    # Score terms, d log Beta(x; a, b) / da = log x - psi(a) + psi(a + b),
    # plus the entropy bonus's trigamma terms.
    a, b = dists.alphas, dists.betas
    ab = a + b
    tg_a, tg_b, tg_ab = polygamma(1, a), polygamma(1, b), polygamma(1, ab)
    d_alpha = coef @ (batch.log_x - dists.dg_alpha + dists.dg_sum)
    d_alpha += beta_e * (-(a - 1.0) * tg_a + (ab - 2.0) * tg_ab)
    d_beta = coef @ (batch.log_1mx - dists.dg_beta + dists.dg_sum)
    d_beta += beta_e * (-(b - 1.0) * tg_b + (ab - 2.0) * tg_ab)

    # Softmax heads: d log p_i / dz = onehot(i) - p, and dH/dz = p * (-log p - H).
    d_logits = []
    log_p = dists.flat_log_probs  # 0 where p = 0
    for j, (p, off) in enumerate(zip(dists.cat_probs, dists.layout.cat_flat_off)):
        g = -np.outer(coef, p)
        g[np.arange(E), batch.cat_index[:, j]] += coef
        lp = log_p[off : off + p.size]
        h_head = -float(np.sum(p * lp))
        d_logits.append(g.sum(axis=0) + beta_e * p * (-lp - h_head))

    return value, d_alpha, d_beta, d_logits
