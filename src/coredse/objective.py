"""Outcomes, rewards, advantages, and the on-policy surrogate objective.

A scored batch is one `OutcomeBatch`: metrics, constraint residuals, an
anomalous mask and notes as arrays, one row a design.  A problem's array
path builds it whole; otherwise the scalar path builds it from the
`EvalOutcome` that a problem's `evaluate` returns for each design
(`OutcomeBatch.of`).  No batch mixes the two.

Reward shaping: a valid design scores the weighted metric sum minus
alpha_c times the summed positive constraint residuals (`scalar_reward`,
one reward a row).  A design the evaluator could not score (anomalous) is
priced within its batch by the trainer: it gets the batch's lowest valid
reward, or the floor r_ano when no design in the batch is valid.  Weighted
sums add one metric at a time from 0.0, and residual sums one constraint
at a time, the same way for one design and for a batch, so a batch's
rewards are bit-equal to its designs' one by one.

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
digammas and the log of its padded categorical probability matrix.  Those
caches are computed when a `DistributionSet` is built and rely on its arrays
never being mutated afterwards; a changed set is a new one, from
`policy.heads_from_raw` or `dataclasses.replace`.

`surrogate_gradients` imports `scipy.special.polygamma` (the trigammas)
where it uses it, as `policy` does its Beta terms, so that the GA and random
search, which import this module for its outcome and reward code, never load
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import policy
from .policy import DistributionSet

__all__ = [
    "Violation",
    "EvalOutcome",
    "OutcomeBatch",
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


@dataclass(frozen=True, eq=False)
class OutcomeBatch:
    """A batch's outcomes as arrays, one row a design, in slot order.

    metrics: (B, m) float64, NaN on anomalous rows
    residuals: (B, c) float64, a row's positive residual for each of
        `names`, 0.0 where that constraint holds
    names: the c constraint names
    anomalous: (B,) bool
    notes: row -> note, for anomalous rows only
    designs: the array path's `DesignBatch`, from which a row's design is
        built only when asked for (`design`), or the scalar path's list of
        designs, one a row
    """

    metrics: np.ndarray
    residuals: np.ndarray
    names: tuple[str, ...]
    anomalous: np.ndarray
    notes: dict[int, str] = field(default_factory=dict)
    designs: Any = None

    def __len__(self) -> int:
        return len(self.anomalous)

    @staticmethod
    def of(pairs) -> "OutcomeBatch":
        """The batch of (design, EvalOutcome) pairs, one a row: the scalar path's form.

        Residual columns keep the order in which each outcome lists its
        violations, so that a row's residuals add up in that order; where
        two outcomes disagree, names go in order of first appearance. A
        row's residuals under one name add up.
        """
        pairs = list(pairs)
        names = _merged_order(dict.fromkeys(tuple(v.name for v in o.violations) for _, o in pairs))
        widths = {len(o.metrics) for _, o in pairs if not o.anomalous}
        if len(widths) > 1:
            raise ValueError(f"outcomes with {sorted(widths)} metrics in one batch")
        metrics = np.full((len(pairs), widths.pop() if widths else 0), np.nan)
        residuals = np.zeros((len(pairs), len(names)))
        anomalous = np.zeros(len(pairs), dtype=bool)
        notes = {}
        column = {name: j for j, name in enumerate(names)}
        for k, (_, o) in enumerate(pairs):
            if o.anomalous:
                anomalous[k] = True
                notes[k] = o.note
            else:
                metrics[k] = o.metrics
            for v in o.violations:
                residuals[k, column[v.name]] += v.residual
        return OutcomeBatch(metrics, residuals, names, anomalous, notes, [design for design, _ in pairs])

    @property
    def feasible(self) -> np.ndarray:
        """(B,) bool: valid, and no constraint residual."""
        return ~self.anomalous & ~(self.residuals > 0.0).any(axis=1)

    def weighted(self, weights) -> np.ndarray:
        """Each row's metrics weighted and summed as `_weighted` sums one
        design's; NaN on anomalous rows."""
        if self.metrics.shape[1] != len(weights):
            if self.anomalous.all():
                return np.full(len(self), np.nan)
            raise ValueError(f"{self.metrics.shape[1]} metrics vs {len(weights)} weights")
        total = np.zeros(len(self))
        for column, w in zip(self.metrics.T, weights):
            total += column * float(w)
        return total

    def violation_sums(self) -> np.ndarray:
        """Each row's residuals summed in `names` order."""
        total = np.zeros(len(self))
        for column in self.residuals.T:
            total += column
        return total

    def design(self, row: int):
        """The design of one row: as the scalar path decoded it, or built from the `DesignBatch`."""
        if isinstance(self.designs, list):
            return self.designs[row]
        return self.designs.take([row]).configs()[0]

    def outcome(self, row: int) -> EvalOutcome:
        """One row as the EvalOutcome the scalar path gives for it."""
        if self.anomalous[row]:
            return EvalOutcome.failed(self.notes.get(row, ""))
        hits = [Violation(n, r) for n, r in zip(self.names, self.residuals[row].tolist()) if r > 0.0]
        return EvalOutcome.ok(self.metrics[row].tolist(), hits)


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
        for name in ("weights", "alpha_c", "beta_e_start", "beta_e_end", "r_ano", "no_shaping_penalty"):
            if not np.isfinite(getattr(self, name)).all():  # or rewards, advantages and steps turn NaN
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def _merged_order(sequences) -> tuple[str, ...]:
    """Every name in the sequences, each after the names listed before it in
    any sequence, or, where that is impossible, in order of first appearance."""
    sequences = list(sequences)
    pending = list(dict.fromkeys(n for seq in sequences for n in seq))
    before = {n: {a for seq in sequences for a, b in zip(seq, seq[1:]) if b == n} for n in pending}
    order: list[str] = []
    while pending:
        name = next((n for n in pending if before[n] <= set(order)), pending[0])
        order.append(name)
        pending.remove(name)
    return tuple(order)


def _weighted(metrics, weights) -> float:
    """sum(m * w), added one metric at a time from 0.0."""
    if len(metrics) != len(weights):
        raise ValueError(f"{len(metrics)} metrics vs {len(weights)} weights")
    total = 0.0
    for m, w in zip(metrics, weights):
        total += float(m) * float(w)
    return total


def scalar_reward(outcomes: OutcomeBatch, cfg: RewardConfig) -> np.ndarray:
    """Per row: weighted metrics minus alpha_c * sum of positive residuals;
    NaN on anomalous rows."""
    return outcomes.weighted(cfg.weights) - cfg.alpha_c * outcomes.violation_sums()


def penalty_reward(outcomes: OutcomeBatch, cfg: RewardConfig) -> np.ndarray:
    """Shaping-disabled scoring per row: any violation collapses to the fixed
    penalty; NaN on anomalous rows."""
    violated = ~outcomes.anomalous & ~outcomes.feasible
    return np.where(violated, cfg.no_shaping_penalty, outcomes.weighted(cfg.weights))


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

    Returns (d_alpha, d_beta, d_logits) where d_logits, shaped as
    `dists.cat_probs`, is already chained through the softmax.
    """
    from scipy.special import polygamma  # here, not at module level: see the module docstring

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
    p, log_p = dists.cat_probs, dists.cat_log_probs  # log_p is 0 where p = 0
    score = -coef[:, None, None] * p
    score[np.arange(E)[:, None], np.arange(len(p)), batch.cat_index] += coef[:, None]
    h_head = -(p * log_p).sum(axis=1, keepdims=True)
    d_logits = score.sum(axis=0) + beta_e * p * (-log_p - h_head)

    return d_alpha, d_beta, d_logits
