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
from .trainer import BestDesign, EpisodeReport, _episode_report, _HistoryRows, _update_best, evaluate_batch

__all__ = [
    "BaselineResult",
    "genome_to_raw",
    "ga_run",
    "random_search",
]


@dataclass
class BaselineResult(_HistoryRows):
    method: str
    status: str
    samples_used: int
    best: BestDesign | None
    best_feasible: BestDesign | None
    history: list[EpisodeReport]


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


class _Tracker:
    """Scores genome batches into the search's best-so-far and history."""

    def __init__(self, problem: Problem, cfg: RewardConfig):
        self.problem = problem
        self.cfg = cfg
        self.best: BestDesign | None = None
        self.best_feasible: BestDesign | None = None
        self.history: list[EpisodeReport] = []
        self.samples_used = 0

    def score_batch(self, batch_index: int, genomes: list[np.ndarray]) -> np.ndarray:
        raws = genome_to_raw(self.problem.space, np.stack(genomes))
        results = evaluate_batch(self.problem, raws)
        self.samples_used += len(raws)

        outcomes = [o for _, o in results]
        fitness = np.array(
            [self.cfg.r_ano if o.anomalous else scalar_reward(o, self.cfg) for o in outcomes]
        )
        self.best, self.best_feasible = _update_best(
            self.best, self.best_feasible, batch_index, raws, results, fitness, self.cfg.weights
        )
        nan = float("nan")
        self.history.append(_episode_report(batch_index, raws, outcomes, fitness, self.best, nan, nan))
        return fitness


def _tournament(rng: np.random.Generator, fitness: np.ndarray, k: int) -> int:
    picks = rng.integers(0, len(fitness), size=k)
    return int(picks[np.argmax(fitness[picks])])


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
    if pop_size < 2:
        raise ValueError("pop_size must be >= 2")
    if generations < 0:
        raise ValueError("generations must be >= 0")
    n = problem.n_raw
    rng = np.random.default_rng([seed])
    tracker = _Tracker(problem, cfg)

    pop = [rng.random(n) for _ in range(pop_size)]
    fitness = tracker.score_batch(0, pop)

    for gen in range(1, generations + 1):
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
        fitness = tracker.score_batch(gen, pop)

    return BaselineResult(
        method="ga",
        status="budget_exhausted",
        samples_used=tracker.samples_used,
        best=tracker.best,
        best_feasible=tracker.best_feasible,
        history=tracker.history,
    )


def random_search(
    problem: Problem,
    cfg: RewardConfig = RewardConfig(),
    budget: int = 1024,
    seed: int = 0,
    chunk: int = 32,
) -> BaselineResult:
    """Uniform sampling; sample i draws from default_rng([seed, i]), so the
    first N evaluations of a longer run coincide with a budget-N run."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    n = problem.n_raw
    tracker = _Tracker(problem, cfg)

    done = 0
    batch_index = 0
    while done < budget:
        size = min(chunk, budget - done)
        genomes = [np.random.default_rng([seed, done + j]).random(n) for j in range(size)]
        tracker.score_batch(batch_index, genomes)
        done += size
        batch_index += 1

    return BaselineResult(
        method="random",
        status="budget_exhausted",
        samples_used=tracker.samples_used,
        best=tracker.best,
        best_feasible=tracker.best_feasible,
        history=tracker.history,
    )
