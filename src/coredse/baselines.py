"""Reference searchers: a generational GA and pure random search.

Both operate on flat genomes in [0, 1]^n, one gene per declared
parameter, converted to action vectors by bucketing categorical genes
into indices. A batch of genomes is one (B, n) matrix, evaluated into one
`OutcomeBatch` and scored as an array: `scalar_reward` for a valid design,
`r_ano` for an anomalous one, so the three methods are comparable
sample-for-sample.

The GA breeds a whole generation at once from one generator,
default_rng([seed]). The initial population is one (pop_size, n) draw.
Each generation keeps its `elitism` fittest genomes verbatim and breeds
the other pop_size - elitism children from whole-array draws, in this
order: tournament picks of shape (2, children, tournament_k), whose
fittest entries are the two parents of each child; a (children,) crossover
decision at `crossover_rate` and a (children, n) uniform gene mask at 1/2;
a (children, n) mutation mask at `mutation_rate`; and (children, n)
normal noise of scale `mutation_sigma`. A child takes each gene from its
first parent, or, where it crosses over and the gene mask is set, from
its second; mutated genes add the noise, and every gene is clipped to
[0, 1].
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
    outcomes = evaluate_batch(problem, raws)
    fitness = np.where(outcomes.anomalous, cfg.r_ano, scalar_reward(outcomes, cfg))
    result.record(len(result.history), raws, outcomes, fitness, cfg.weights, np.nan)
    return fitness


def check_ga_args(
    pop_size: int,
    generations: int = 0,
    tournament_k: int = 1,
    crossover_rate: float = 0.0,
    mutation_rate: float = 0.0,
    mutation_sigma: float = 0.0,
    elitism: int = 0,
) -> None:
    """ValueError unless `ga_run` can breed pop_size designs for generations
    rounds with these arguments; each defaults to its least demanding value."""
    if pop_size < 2:
        raise ValueError("pop_size must be >= 2")
    if generations < 0:
        raise ValueError("generations must be >= 0")
    if tournament_k < 1:
        raise ValueError("tournament_k must be >= 1")
    if not (0.0 <= crossover_rate <= 1.0 and 0.0 <= mutation_rate <= 1.0):
        raise ValueError("crossover_rate and mutation_rate must be in [0, 1]")
    if not mutation_sigma >= 0.0:
        raise ValueError("mutation_sigma must be >= 0")
    if not 0 <= elitism < pop_size:
        raise ValueError(f"elitism must be in 0..pop_size-1 ({pop_size - 1}), got {elitism}")


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
    """Generational GA, a generation at a time (see the module docstring);
    consumes exactly pop_size * (generations + 1) evaluations."""
    check_ga_args(pop_size, generations, tournament_k, crossover_rate, mutation_rate, mutation_sigma, elitism)
    n = problem.n_raw
    rng = np.random.default_rng([seed])
    result = BaselineResult(method="ga")

    pop = rng.random((pop_size, n))
    fitness = _score_batch(result, problem, cfg, pop)

    for _ in range(generations):
        elites = pop[np.argsort(fitness)[::-1][:elitism]]
        size = (pop_size - len(elites), n)
        picks = rng.integers(0, pop_size, size=(2, size[0], tournament_k))
        winners = np.take_along_axis(picks, fitness[picks].argmax(axis=-1)[..., None], axis=-1)[..., 0]
        first, second = pop[winners]
        crossed = (rng.random(size[0]) < crossover_rate)[:, None] & (rng.random(size) < 0.5)
        mutated = rng.random(size) < mutation_rate
        noise = rng.normal(0.0, mutation_sigma, size=size)
        children = np.clip(np.where(crossed, second, first) + np.where(mutated, noise, 0.0), 0.0, 1.0)
        pop = np.concatenate([elites, children])
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
