"""Reference searchers: a generational GA and pure random search.

Both operate on flat genomes in [0, 1]^n, one gene per declared
parameter, converted to action vectors by bucketing categorical genes
into indices. Scoring matches the policy loop's shaped reward so the
three methods are comparable sample-for-sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import RewardConfig, scalar_reward
from .problems import Problem
from .space import Categorical, ParameterSpace
from .trainer import SearchLog, evaluate_batch

__all__ = [
    "BaselineResult",
    "genome_to_raw",
    "check_ga_args",
    "ga_run",
    "random_search",
]

RANDOM_BATCH = 32  # designs random search scores per batch (one history entry)


@dataclass(kw_only=True)
class BaselineResult(SearchLog):
    method: str
    status: str = "budget_exhausted"


def genome_to_raw(space: ParameterSpace, genome: np.ndarray) -> np.ndarray:
    """Genes are reals in [0, 1]; categorical genes bucket to an index.

    ``genome`` is one genome or a (B, n) matrix of them, one per row. A
    categorical gene g with k choices becomes min(int(k * g), k - 1).
    """
    raw = np.array(genome, dtype=float)
    cols = [i for i, p in enumerate(space.params) if isinstance(p.kind, Categorical)]
    k = np.asarray([space.params[i].kind.k for i in cols], dtype=float)
    # + 0.0 turns trunc's -0.0 into the 0.0 that int() gives.
    raw[..., cols] = np.minimum(np.trunc(k * raw[..., cols]), k - 1) + 0.0
    return raw


def _score_batch(result: BaselineResult, problem: Problem, cfg: RewardConfig, genomes) -> np.ndarray:
    """Score a batch of genomes by the shaped reward and record it as the result's next batch."""
    raws = genome_to_raw(problem.space, genomes)
    results = evaluate_batch(problem, raws)
    fitness = np.array([cfg.r_ano if o.anomalous else scalar_reward(o, cfg) for _, o in results])
    result.record(len(result.history), raws, results, fitness, cfg.weights, np.nan)
    return fitness


def _tournament(rng: np.random.Generator, fitness: np.ndarray, k: int) -> int:
    picks = rng.integers(0, len(fitness), size=k)
    return int(picks[np.argmax(fitness[picks])])


def check_ga_args(pop_size: int, generations: int = 0) -> None:
    """ValueError unless `ga_run` can breed pop_size designs for generations rounds."""
    if pop_size < 2:
        raise ValueError("pop_size must be >= 2")
    if generations < 0:
        raise ValueError("generations must be >= 0")


def ga_run(
    problem: Problem,
    cfg: RewardConfig = RewardConfig(),
    pop_size: int = 32,
    generations: int = 100,
    seed: int = 0,
    tournament_k: int = 3,
    crossover_rate: float = 0.9,
    mutation_rate: float = 0.1,
    mutation_sigma: float = 0.1,
    elitism: int = 1,
) -> BaselineResult:
    """Generational GA; consumes exactly pop_size * (generations + 1) evaluations."""
    check_ga_args(pop_size, generations)
    n = problem.n_raw
    rng = np.random.default_rng([seed])
    result = BaselineResult(method="ga")

    pop = [rng.random(n) for _ in range(pop_size)]
    fitness = _score_batch(result, problem, cfg, pop)

    for _ in range(generations):
        elite_order = np.argsort(fitness)[::-1][:elitism]
        children = [pop[i].copy() for i in elite_order]
        while len(children) < pop_size:
            p1 = pop[_tournament(rng, fitness, tournament_k)]
            p2 = pop[_tournament(rng, fitness, tournament_k)]
            if rng.random() < crossover_rate:
                mask = rng.random(n) < 0.5
                child = np.where(mask, p1, p2)
            else:
                child = p1.copy()
            mut = rng.random(n) < mutation_rate
            noise = rng.normal(0.0, mutation_sigma, size=n)
            child = np.clip(child + np.where(mut, noise, 0.0), 0.0, 1.0)
            children.append(child)
        pop = children
        fitness = _score_batch(result, problem, cfg, pop)
    return result


def random_search(
    problem: Problem,
    cfg: RewardConfig = RewardConfig(),
    budget: int = 1024,
    seed: int = 0,
) -> BaselineResult:
    """Uniform sampling in batches of RANDOM_BATCH from one generator,
    default_rng([seed]), read a genome a row in order, so the first N
    evaluations of a longer run coincide with a budget-N run."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rng = np.random.default_rng([seed])
    result = BaselineResult(method="random")
    for start in range(0, budget, RANDOM_BATCH):
        stop = min(start + RANDOM_BATCH, budget)
        _score_batch(result, problem, cfg, rng.random((stop - start, problem.n_raw)))
    return result
