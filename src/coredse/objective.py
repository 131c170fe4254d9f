"""Rewards, advantages, and the on-policy surrogate objective.

Reward shaping: a valid design scores the weighted metric sum minus
alpha_c times the summed positive constraint residuals.  A design the
evaluator could not score (anomalous) is priced within its batch by the
trainer: it gets the batch's lowest valid reward, or the floor r_ano when
no design in the batch is valid.

Advantages compare the designs of one batch and nothing else, as the
paper's surrogate does without a value function: each design's advantage
is its reward minus the mean reward of the other designs in its batch
(leave-one-out, as in RLOO).  No baseline is carried between batches.

The surrogate is J = mean(adv * log pi(a)) + beta_e * H(pi): the
score-function (REINFORCE) objective over the batch plus a decaying
entropy bonus.  The trainer takes exactly one step per sampled batch, at
the parameters that drew it, so no importance ratio against a sampling
snapshot is needed: at the snapshot a ratio is exp(0) = 1 with gradient
grad log pi(a), a ratio clamp never binds, and a KL(pi || snapshot) trust
term has zero gradient, so a ratio/KL surrogate's gradient equals this one
exactly.  That is also PPO's clipped objective at its first step.

The log-probabilities of a batch come from one pass (`policy.log_probs`):
the (E, n) raw action matrix is validated once, log x and log(1 - x) are taken
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
    beta_e_start: float = 1.0  # entropy bonus schedule
    beta_e_end: float = 0.02
    r_ano: float = -1e9  # anomalous floor: batches with no valid design; GA/random fitness
    shaping: bool = True
    no_shaping_penalty: float = -1e9

    def __post_init__(self):
        if not self.weights:
            raise ValueError("RewardConfig needs at least one metric weight")


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


def advantages(rewards) -> np.ndarray:
    """Leave-one-out advantages: r_k - mean(r_j, j != k) within one batch.

    That is B / (B - 1) * (r_k - mean(r)). A batch of one design, or one
    whose rewards are all equal, gets zero advantage.
    """
    r = np.asarray(rewards, dtype=float)
    if r.size < 2 or np.all(r == r[0]):
        return np.zeros_like(r)
    return r.size / (r.size - 1) * (r - r.mean())


def raw_objective(outcome: EvalOutcome, weights) -> float:
    """Positive minimization objective: negated weighted metric sum."""
    if outcome.anomalous:
        raise ValueError("raw_objective is only defined for valid outcomes")
    return -_weighted(outcome.metrics, weights)


# ---------------------------------------------------------------------------
# Surrogate objective

def _stack_batch(dists: DistributionSet, raws, advs):
    advs = np.asarray(advs, dtype=float)
    if len(raws) != advs.size:
        raise ValueError(f"{len(raws)} actions vs {advs.size} advantages")
    if len(raws) == 0:
        raise ValueError("surrogate objective needs a non-empty batch")
    return policy.stack_actions(dists.layout, raws), advs


def surrogate_objective(dists: DistributionSet, raws, advs, beta_e: float) -> float:
    """mean(adv * log pi(a)) + beta_e * H(pi) over a non-empty (E, n) raw action matrix."""
    batch, advs = _stack_batch(dists, raws, advs)
    return float(policy.log_probs(dists, batch) @ advs) / advs.size + beta_e * policy.entropy(dists)


def surrogate_gradients(dists: DistributionSet, raws, advs, beta_e: float):
    """Closed-form gradients of `surrogate_objective` wrt head parameters, over
    an (E, n) raw action matrix.

    Returns (d_alpha, d_beta, d_logits) where d_logits is one array per
    categorical head, already chained through the softmax.
    """
    batch, advs = _stack_batch(dists, raws, advs)
    E = advs.size
    coef = advs / E

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

    return d_alpha, d_beta, d_logits
