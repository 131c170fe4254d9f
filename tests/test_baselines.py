import numpy as np
import pytest

from coredse.baselines import check_ga_args, ga_run, genome_to_raw, random_search
from coredse.objective import EvalOutcome, RewardConfig
from coredse.problems import Problem, toy_line_problem
from coredse.space import Categorical, ParameterSpace, ParamSpec, Ranged

CFG = RewardConfig(weights=(-1.0,))


def row_signature(result):
    # baseline rows carry nan placeholders, so compare their printed form
    return [tuple(repr(v) for v in row.values()) for row in result.history_rows()]


def cat_space() -> ParameterSpace:
    return ParameterSpace(
        (ParamSpec("v", Ranged(0, 15)), ParamSpec("pick", Categorical(6)))
    )


# ---------------------------------------------------------------------------
# genomes


def test_genome_to_raw_passes_ranged_genes_through():
    space = toy_line_problem().space
    g = np.array([0.4711])
    assert np.array_equal(genome_to_raw(space, g), g)


def test_genome_to_raw_buckets_categorical_genes():
    space = cat_space()
    # 6 buckets of width 1/6; 1.0 clamps into the last index
    for gene, idx in ((0.0, 0), (0.166, 0), (0.167, 1), (0.5, 3), (0.999, 5), (1.0, 5)):
        raw = genome_to_raw(space, np.array([0.5, gene]))
        assert raw[1] == idx
    assert genome_to_raw(space, np.array([0.5, 0.5]))[0] == 0.5


def test_genome_to_raw_of_a_matrix_matches_the_per_genome_loop():
    space = ParameterSpace(
        (
            ParamSpec("v", Ranged(0, 15)),
            ParamSpec("pick", Categorical(6)),
            ParamSpec("two", Categorical(2)),
            ParamSpec("seven", Categorical(7)),
        )
    )

    def reference(genome):
        raw = np.array(genome, dtype=float)
        for i, p in enumerate(space.params):
            if isinstance(p.kind, Categorical):
                raw[i] = min(int(p.kind.k * genome[i]), p.kind.k - 1)
        return raw

    genomes = np.random.default_rng(4).random((200, 4))
    genomes[:5] = [[0.0] * 4, [1.0] * 4, [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [-0.0] * 4]
    genomes[5:, 3] = np.arange(195) / 194  # on and between the 1/7 bucket edges
    got = genome_to_raw(space, genomes)
    want = np.stack([reference(g) for g in genomes])
    assert got.tobytes() == want.tobytes()  # bit for bit, signs of zero included


# ---------------------------------------------------------------------------
# GA


def test_ga_budget_is_pop_times_generations_plus_one():
    res = ga_run(toy_line_problem(), CFG, pop_size=8, generations=5, seed=0)
    assert res.samples_used == 8 * 6
    assert len(res.history) == 6
    assert all(len(rep.rewards) == 8 for rep in res.history)
    assert res.method == "ga" and res.status == "budget_exhausted"


def test_ga_zero_generations_scores_initial_population_only():
    res = ga_run(toy_line_problem(), CFG, pop_size=8, generations=0, seed=3)
    assert res.samples_used == 8
    assert res.best is not None


def test_ga_validates_arguments():
    with pytest.raises(ValueError):
        ga_run(toy_line_problem(), CFG, pop_size=1)
    with pytest.raises(ValueError):
        ga_run(toy_line_problem(), CFG, generations=-1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(elitism=8), "elitism"),
        (dict(elitism=-1), "elitism"),
        (dict(tournament_k=0), "tournament_k"),
        (dict(mutation_sigma=-0.1), "mutation_sigma"),
        (dict(mutation_sigma=float("nan")), "mutation_sigma"),
        (dict(crossover_rate=1.5), "rate"),
        (dict(mutation_rate=-0.1), "rate"),
    ],
)
def test_ga_refuses_arguments_it_cannot_breed_with(bad, message):
    with pytest.raises(ValueError, match=message):
        check_ga_args(8, 2, **bad)
    with pytest.raises(ValueError, match=message):
        ga_run(toy_line_problem(), CFG, pop_size=8, generations=2, **bad)


def test_ga_accepts_the_edges_of_its_argument_ranges():
    edges = dict(tournament_k=1, crossover_rate=1.0, mutation_rate=0.0, mutation_sigma=0.0, elitism=7)
    check_ga_args(8, 0, **edges)
    res = ga_run(toy_line_problem(), CFG, pop_size=8, generations=2, **edges)
    assert res.samples_used == 24
    assert ga_run(toy_line_problem(), CFG, pop_size=8, generations=2, elitism=0).samples_used == 24


def test_ga_is_deterministic_per_seed():
    a = ga_run(toy_line_problem(), CFG, pop_size=8, generations=4, seed=11)
    b = ga_run(toy_line_problem(), CFG, pop_size=8, generations=4, seed=11)
    assert row_signature(a) == row_signature(b)
    c = ga_run(toy_line_problem(), CFG, pop_size=8, generations=4, seed=12)
    assert row_signature(a) != row_signature(c)


def test_ga_zero_rates_keep_population_constant():
    # no crossover, no mutation: children are copies, fitness never changes
    res = ga_run(
        toy_line_problem(),
        CFG,
        pop_size=6,
        generations=4,
        seed=2,
        crossover_rate=0.0,
        mutation_rate=0.0,
    )
    first = set(res.history[0].rewards.tolist())
    for rep in res.history[1:]:
        assert set(rep.rewards.tolist()) <= first
    # elitism keeps the incumbent alive in every generation
    best0 = res.history[0].rewards.max()
    for rep in res.history[1:]:
        assert rep.rewards.max() == best0


def gene_problem(n: int = 5):
    """Ranged genes only, so each raw row is its genome; the metric reads every
    gene. Returns the problem and the genomes it was asked to decode, in order."""
    space = ParameterSpace(tuple(ParamSpec(f"g{i}", Ranged(0, 15)) for i in range(n)))
    seen = []

    def decode(raw):
        seen.append(np.array(raw, dtype=float))
        return seen[-1]

    def evaluate(genes):
        return EvalOutcome.ok((float(genes @ np.arange(1.0, n + 1)),))

    return Problem("genes", space, decode, evaluate), seen


def generations_of(seen, pop_size):
    assert len(seen) % pop_size == 0
    return [np.stack(seen[i : i + pop_size]) for i in range(0, len(seen), pop_size)]


@pytest.mark.parametrize("elitism", [1, 3])
def test_ga_elite_genomes_pass_verbatim(elitism):
    p, seen = gene_problem()
    res = ga_run(p, CFG, pop_size=8, generations=6, seed=7, elitism=elitism)
    gens = generations_of(seen, 8)
    for g, (pop, nxt) in enumerate(zip(gens, gens[1:])):
        fitness = res.history[g].rewards
        top = np.argsort(fitness)[::-1][:elitism]
        assert nxt[:elitism].tobytes() == pop[top].tobytes()
        assert nxt[0].tobytes() == pop[np.argmax(fitness)].tobytes()


def test_ga_genes_stay_in_the_unit_interval():
    p, seen = gene_problem()
    ga_run(p, CFG, pop_size=16, generations=8, seed=3, mutation_rate=1.0, mutation_sigma=5.0)
    genes = np.concatenate(generations_of(seen, 16))
    assert genes.min() >= 0.0 and genes.max() <= 1.0
    assert (genes == 0.0).any() and (genes == 1.0).any()  # the noise was clipped at both ends


def test_ga_without_crossover_or_mutation_copies_parents():
    p, seen = gene_problem()
    ga_run(p, CFG, pop_size=8, generations=6, seed=2, crossover_rate=0.0, mutation_rate=0.0)
    gens = generations_of(seen, 8)
    for pop, nxt in zip(gens, gens[1:]):
        parents = {row.tobytes() for row in pop}
        assert all(child.tobytes() in parents for child in nxt)


def test_ga_evaluates_exactly_its_budget():
    p, seen = gene_problem()
    res = ga_run(p, CFG, pop_size=6, generations=9, seed=1, elitism=2)
    assert len(seen) == res.samples_used == 6 * 10
    assert [len(rep.rewards) for rep in res.history] == [6] * 10


def test_ga_draws_are_a_function_of_the_seed():
    runs = []
    for seed in (5, 5, 6):
        p, seen = gene_problem()
        ga_run(p, CFG, pop_size=8, generations=4, seed=seed)
        runs.append(np.stack(seen).tobytes())
    assert runs[0] == runs[1] != runs[2]


def test_ga_elitism_never_loses_the_best():
    res = ga_run(toy_line_problem(), CFG, pop_size=8, generations=10, seed=5)
    best = -np.inf
    for rep in res.history:
        gen_max = rep.rewards.max()
        best = max(best, gen_max)
        assert gen_max >= best - 1e-12 or gen_max == best


def test_ga_finds_toy_optimum():
    hits = 0
    for seed in range(10):
        res = ga_run(toy_line_problem(), CFG, pop_size=16, generations=10, seed=seed)
        hits += int(res.best_feasible.objective == 0.0)
    assert hits >= 9


def test_ga_anomalous_designs_get_floor_fitness():
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))

    def evaluate(v):
        if v >= 8:
            return EvalOutcome.failed("upper half rejected")
        return EvalOutcome.ok((float(v),))

    p = Problem("half", space, toy_line_problem().decode, evaluate)
    res = ga_run(p, CFG, pop_size=16, generations=2, seed=1)
    rewards = np.concatenate([rep.rewards for rep in res.history])
    assert CFG.r_ano in rewards
    assert res.best_feasible.objective >= 0.0


# ---------------------------------------------------------------------------
# random search


def test_random_search_budget_and_chunking():
    res = random_search(toy_line_problem(), CFG, budget=70, seed=0)
    assert res.samples_used == 70
    assert [len(rep.rewards) for rep in res.history] == [32, 32, 6]
    assert [rep.episode for rep in res.history] == [0, 1, 2]
    assert res.method == "random"


def test_random_search_prefix_property():
    # one generator per search, read a genome a row in order: a short run is a
    # prefix of a long one. Every one of the four genes moves the reward, so a
    # batch read a gene a column would show.
    space = ParameterSpace(tuple(ParamSpec(f"v{i}", Ranged(0, 15)) for i in range(4)))
    p = Problem("four", space, lambda raw: raw, lambda d: EvalOutcome.ok((float(d @ [1.0, 2.0, 4.0, 8.0]),)))
    small = random_search(p, CFG, budget=40, seed=4)
    large = random_search(p, CFG, budget=100, seed=4)
    small_rows = [
        (r["reward"], r["valid"]) for r in small.history_rows()
    ]
    large_rows = [
        (r["reward"], r["valid"]) for r in large.history_rows()
    ]
    assert large_rows[: len(small_rows)] == small_rows


def test_random_search_finds_toy_optimum():
    hits = 0
    for seed in range(10):
        res = random_search(toy_line_problem(), CFG, budget=160, seed=seed)
        hits += int(res.best_feasible.objective == 0.0)
    assert hits >= 9


def test_random_search_validates_arguments():
    with pytest.raises(ValueError):
        random_search(toy_line_problem(), CFG, budget=-1)
    with pytest.raises(TypeError):
        random_search(toy_line_problem(), CFG, chunk=32)


def test_random_search_zero_budget():
    res = random_search(toy_line_problem(), CFG, budget=0)
    assert res.samples_used == 0 and res.history == [] and res.best is None
