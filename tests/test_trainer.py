import re

import numpy as np
import pytest

from coredse import trainer as trainer_module
from coredse.baselines import ga_run
from coredse.objective import EvalOutcome, OutcomeBatch, RewardConfig, Violation
from coredse.costmodel import platform_by_name
from coredse.problems import Problem, accelerator_problem, toy_line_problem
from coredse.space import Categorical, ParameterSpace, ParamSpec, Ranged
from coredse.policy import PolicyParams, init_params, layout_for_space, sample
from coredse.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    PolicyConfig,
    SearchLog,
    TrainConfig,
    config_digest,
    entropy_coefficient,
    evaluate_batch,
    load_checkpoint,
    save_checkpoint,
    train,
    _adam_ascend,
    _fresh_state,
    _LoopState,
    _shaped_reward,
)
from test_acceptance import TOY_OPT, TOY_WL, _toy_cfg

SMALL_POLICY = PolicyConfig(input_width=16, hidden_width=32)

WEIGHTS1 = RewardConfig(weights=(-1.0,))


def line_cfg(**kw) -> TrainConfig:
    base = dict(
        batch_size=8,
        max_episodes=30,
        sample_budget=10_000,
        learning_rate=1e-2,
        seed=0,
        reward=WEIGHTS1,
        policy=SMALL_POLICY,
    )
    base.update(kw)
    return TrainConfig(**base)


def failing_problem() -> Problem:
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))
    return Problem(
        "always-fails",
        space,
        decode=lambda raw: raw,
        evaluate=lambda d: EvalOutcome.failed("no such design"),
    )


def mixed_problem() -> Problem:
    """Ten ranged parameters, a categorical one, then one more ranged: Beta
    heads on both sides of a categorical head."""
    ranged = tuple(ParamSpec(f"v{i}", Ranged(0, 15)) for i in range(10))
    space = ParameterSpace(ranged + (ParamSpec("c", Categorical(3)), ParamSpec("w", Ranged(0, 15))))
    return Problem(
        "mixed", space, decode=lambda raw: raw, evaluate=lambda d: EvalOutcome.ok((float(np.sum(d)),))
    )


# ---------------------------------------------------------------------------
# configs


def test_train_config_validation():
    for kw in (
        dict(batch_size=0),
        dict(max_episodes=-1),
        dict(sample_budget=-1),
        dict(learning_rate=0.0),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(target_objective=float("nan")),
        dict(target_objective=float("-inf")),
    ):
        with pytest.raises(ValueError):
            line_cfg(**kw)
    with pytest.raises(ValueError):
        PolicyConfig(input_width=0)


def test_episode_count_is_min_of_caps():
    assert line_cfg(max_episodes=30, sample_budget=10_000, batch_size=8).episode_count() == 30
    assert line_cfg(max_episodes=30, sample_budget=20, batch_size=8).episode_count() == 2
    assert line_cfg(max_episodes=0).episode_count() == 0


def test_entropy_coefficient_schedule():
    cfg = line_cfg(max_episodes=3)
    assert entropy_coefficient(0, cfg) == 1.0
    assert abs(entropy_coefficient(1, cfg) - 0.51) < 1e-12
    assert abs(entropy_coefficient(2, cfg) - 0.02) < 1e-12
    assert entropy_coefficient(0, line_cfg(max_episodes=1)) == 1.0


def test_entropy_schedule_ends_on_the_last_episode_that_runs():
    # the budget allows 10 episodes of 8 designs out of max_episodes=100
    cfg = line_cfg(max_episodes=100, sample_budget=80)
    assert cfg.episode_count() == 10
    assert entropy_coefficient(0, cfg) == cfg.reward.beta_e_start
    assert abs(entropy_coefficient(9, cfg) - cfg.reward.beta_e_end) < 1e-12
    res = train(toy_line_problem(), cfg)
    assert abs(res.history[-1].beta_e - cfg.reward.beta_e_end) < 1e-12


def test_fresh_weights_do_not_share_episode_zeros_stream():
    # default_rng([seed]) pads to episode 0's default_rng([seed, 0])
    cfg = line_cfg(seed=3)
    p = toy_line_problem()
    got = _fresh_state(p, cfg).params
    same_stream = init_params(
        np.random.default_rng([cfg.seed, 0]),
        SMALL_POLICY.input_width,
        SMALL_POLICY.hidden_width,
        layout_for_space(p.space).out_width,
    )
    assert not any(np.array_equal(a, b) for a, b in zip(got.weights, same_stream.weights))


# ---------------------------------------------------------------------------
# evaluate_batch


def test_evaluate_batch_preserves_slot_order():
    p = toy_line_problem()
    raws = [np.array([x]) for x in (0.01, 0.99, 0.5, 0.25)]
    outcomes = evaluate_batch(p, raws)
    assert [outcomes.design(k) for k in range(4)] == [0, 15, 8, 4]
    assert outcomes.metrics[:, 0].tolist() == [7.0, 8.0, 1.0, 3.0]


def test_evaluate_batch_wraps_decode_errors():
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))

    def decode(raw):
        if raw[0] > 0.5:
            raise ValueError("raw too large")
        return 1

    p = Problem("half-broken", space, decode, lambda d: EvalOutcome.ok((1.0,)))
    outcomes = evaluate_batch(p, [np.array([0.1]), np.array([0.9])])
    assert outcomes.anomalous.tolist() == [False, True]
    assert outcomes.design(1) is None and outcomes.notes[1].startswith("decode:")
    assert list(outcomes.notes) == [1]  # notes for anomalous rows only


def test_evaluate_batch_wraps_evaluator_errors():
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))

    def evaluate(design):
        raise RuntimeError("model blew up")

    p = Problem("hot", space, lambda raw: 3, evaluate)
    outcomes = evaluate_batch(p, [np.array([0.2])])
    assert outcomes.design(0) == 3
    assert outcomes.anomalous.tolist() == [True] and outcomes.notes == {0: "evaluate: model blew up"}


def test_evaluate_batch_calls_the_hooked_name_once_per_batch(monkeypatch):
    # perfbench ends its set-up clock at the first call of this name.
    from coredse import trainer

    calls = []
    original = trainer._decode_and_eval

    def counting(problem, raws):
        calls.append(len(raws))
        return original(problem, raws)

    monkeypatch.setattr(trainer, "_decode_and_eval", counting)
    p = toy_line_problem()
    evaluate_batch(p, [np.array([0.1]), np.array([0.9])])
    evaluate_batch(p, [np.array([0.5])])
    assert calls == [2, 1]


# ---------------------------------------------------------------------------
# train loop bookkeeping


def test_zero_episodes_returns_clean_result():
    res = train(toy_line_problem(), line_cfg(max_episodes=0))
    assert res.status == "max_episodes"
    assert res.episodes_run == 0 and res.samples_used == 0
    assert res.best is None and res.best_feasible is None and res.history == []


def test_budget_caps_episodes():
    res = train(toy_line_problem(), line_cfg(sample_budget=20))
    assert res.status == "budget_exhausted"
    assert res.episodes_run == 2 and res.samples_used == 16
    assert len(res.history) == 2


def test_history_schema():
    res = train(toy_line_problem(), line_cfg(max_episodes=3))
    assert [r.episode for r in res.history] == [0, 1, 2]
    rows = list(res.history_rows())
    assert len(rows) == 24
    assert list(rows[0]) == [
        "episode",
        "sample_index",
        "reward",
        "valid",
        "violation_sum",
        "best_reward",
    ]


def test_history_rows_hold_python_numbers():
    # The run log writes repr() of each float, and repr(np.float64(1.0)) is "np.float64(1.0)".
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))

    def evaluate(v):
        if v >= 8:
            return EvalOutcome.failed("upper half rejected")
        return EvalOutcome.ok((float(v),), [Violation("odd", 0.5)] if v % 2 else [])

    p = Problem("half", space, toy_line_problem().decode, evaluate)
    floats = {"reward", "violation_sum", "best_reward"}
    core = train(p, line_cfg(max_episodes=4))
    ga = ga_run(p, WEIGHTS1, pop_size=8, generations=3, seed=1)
    for result in (core, ga):
        rows = list(result.history_rows())
        assert {row["valid"] for row in rows} == {0, 1}
        for row in rows:
            for key, value in row.items():
                assert type(value) is (float if key in floats else int), (key, type(value))


def recorded_advantages(monkeypatch) -> list[np.ndarray]:
    """The advantages of every update `train` takes from now on."""
    advs = []
    gradients = trainer_module.surrogate_gradients

    def recording(dists, raws, a, beta_e):
        advs.append(np.array(a))
        return gradients(dists, raws, a, beta_e)

    monkeypatch.setattr(trainer_module, "surrogate_gradients", recording)
    return advs


def test_updates_use_leave_one_out_advantages(monkeypatch):
    advs = recorded_advantages(monkeypatch)
    res = train(toy_line_problem(), line_cfg(max_episodes=3))
    assert len(advs) == len(res.history) == 3
    for a, rep in zip(advs, res.history):
        r = rep.rewards
        others = (r.sum() - r) / (r.size - 1)
        assert np.allclose(a, r - others, rtol=0.0, atol=1e-12)


def test_all_anomalous_batch_uses_floor_reward(monkeypatch):
    advs = recorded_advantages(monkeypatch)
    res = train(failing_problem(), line_cfg(max_episodes=2))
    for rep in res.history:
        assert rep.n_valid == 0 and (rep.rewards == -1e9).all()
    # every design scores the floor, so nothing is ranked and nothing moves
    assert [a.tolist() for a in advs] == [[0.0] * 8] * 2
    assert res.best is None and res.best_feasible is None


def test_anomalous_designs_score_the_lowest_valid_reward_of_their_batch():
    rng = np.random.default_rng(12)
    for _ in range(200):
        cfg = RewardConfig(weights=tuple(rng.uniform(-2.0, 0.5, size=2)), alpha_c=rng.uniform(0.0, 10.0))
        outcomes = []
        for _ in range(int(rng.integers(1, 12))):
            if rng.random() < 0.4:
                outcomes.append(EvalOutcome.failed("rejected"))
            else:
                hits = [Violation("area", rng.uniform(0.01, 2.0))] if rng.random() < 0.3 else []
                outcomes.append(EvalOutcome.ok(rng.uniform(-1e3, 1e6, size=2), hits))
        rewards = _shaped_reward(OutcomeBatch.of((None, o) for o in outcomes), cfg)
        anomalous = np.array([o.anomalous for o in outcomes])
        if anomalous.all():
            assert (rewards == cfg.r_ano).all()
        elif anomalous.any():
            assert rewards[anomalous].max() <= rewards[~anomalous].min()
            assert rewards[anomalous].min() == rewards[~anomalous].min()


@pytest.mark.parametrize("seed", range(4))
def test_unscaled_decode_never_ranks_anomalous_above_valid(seed):
    # gate 5's no-scaling ablation, where anomalous designs are common
    problem = accelerator_problem(TOY_WL, platform_by_name("cloud"), TOY_OPT, use_scaling=False)
    res = train(problem, _toy_cfg(seed))
    mixed = [rep for rep in res.history if 0 < rep.n_valid < rep.valid.size]
    assert mixed
    for rep in mixed:
        assert rep.rewards[~rep.valid].max() <= rep.rewards[rep.valid].min(), rep.episode


def test_target_stops_early():
    # half the line sits within distance 3 of the target: the very first
    # batch should hit it
    cfg = line_cfg(max_episodes=50, target_objective=3.0)
    res = train(toy_line_problem(), cfg)
    assert res.status == "target_reached"
    assert res.episodes_run == 1 and len(res.history) == 1
    assert res.best_feasible is not None and res.best_feasible.objective <= 3.0


def test_best_feasible_tracks_minimum_objective():
    res = train(toy_line_problem(), line_cfg(max_episodes=10))
    rewards = np.concatenate([rep.rewards for rep in res.history])
    assert res.best is not None
    assert abs(res.best.reward - max(rewards)) < 1e-12
    # for this problem objective = -reward, so the two trackers agree
    assert abs(res.best_feasible.objective + res.best.reward) < 1e-12
    assert res.best_feasible.design == res.best.design


def test_search_log_records_a_hand_built_batch():
    ok, slow = EvalOutcome.ok((4.0,)), EvalOutcome.ok((1.0,), [Violation("area", 0.5)])
    results = [
        ("a", ok),  # feasible, objective 4
        ("b", slow),  # top valid reward, but infeasible
        ("c", EvalOutcome.failed("no model")),  # top reward, anomalous
        ("d", ok),  # ties "a" on objective
        ("e", slow),  # ties "b" on reward
    ]
    rewards = np.array([-4.0, 2.0, 10.0, -4.0, 2.0])
    raws = np.arange(5.0).reshape(5, 1)
    log = SearchLog()
    log.record(7, raws, OutcomeBatch.of(results), rewards, (-1.0,), 0.5)

    assert (log.best.design, log.best.reward, log.best.objective, log.best.episode) == ("b", 2.0, 1.0, 7)
    assert (log.best_feasible.design, log.best_feasible.objective) == ("a", 4.0)
    assert log.best_feasible.reward == -4.0 and log.best_feasible.episode == 7
    assert log.best.raw.tolist() == [1.0] and not np.shares_memory(log.best.raw, raws)
    assert log.samples_used == 5 and len(list(log.history_rows())) == 5
    (report,) = log.history
    assert report.valid.tolist() == [True, True, False, True, True]
    assert report.violation_sums.tolist() == [0.0, 0.5, 0.0, 0.0, 0.5]
    assert (report.episode, report.beta_e, report.best_reward) == (7, 0.5, 2.0)

    # A later batch that only ties keeps both earlier designs.
    log.record(8, raws[:1], OutcomeBatch.of([("f", ok)]), np.array([2.0]), (-1.0,), 0.5)
    assert log.best.design == "b" and log.best_feasible.design == "a"
    assert log.samples_used == 6 and len(list(log.history_rows())) == 6


def test_rerun_is_byte_identical():
    p = toy_line_problem()
    a = train(p, line_cfg(max_episodes=5))
    b = train(p, line_cfg(max_episodes=5))
    assert list(a.history_rows()) == list(b.history_rows())
    for wa, wb in zip(a.params.arrays(), b.params.arrays()):
        assert np.array_equal(wa, wb)


def test_policy_improves_on_toy_line():
    wins = 0
    for seed in range(10):
        res = train(
            toy_line_problem(), line_cfg(seed=seed, max_episodes=30, learning_rate=3e-2)
        )
        # single-episode means are noisy at batch 8, so compare 5-episode windows
        first = np.mean([r.mean_reward for r in res.history[:5]])
        last = np.mean([r.mean_reward for r in res.history[-5:]])
        wins += int(last > first)
    assert wins >= 9


# ---------------------------------------------------------------------------
# checkpoint / resume


class Interrupted(Exception):
    pass


def interrupted_run(problem, cfg, episodes, monkeypatch) -> _LoopState:
    """The state of a run of `cfg` stopped as episode `episodes` begins to draw.

    The run keeps its config, so its entropy schedule is the full run's; a
    first leg with a smaller budget would decay it over fewer episodes.
    """
    state = _fresh_state(problem, cfg)
    draw = trainer_module.sample

    def draw_until(*args):
        if state.episode == episodes:
            raise Interrupted
        return draw(*args)

    monkeypatch.setattr(trainer_module, "sample", draw_until)
    with pytest.raises(Interrupted):
        train(problem, cfg, state=state)
    monkeypatch.setattr(trainer_module, "sample", draw)
    return state


def test_resume_matches_straight_run(tmp_path, monkeypatch):
    p = toy_line_problem()
    full = line_cfg(max_episodes=10, sample_budget=80)
    straight = train(p, full)

    first_leg = interrupted_run(p, full, 5, monkeypatch)
    assert first_leg.episode == 5 and first_leg.samples_used == 40 and len(first_leg.history) == 5

    path = tmp_path / "ck.npz"
    save_checkpoint(path, first_leg)
    state = load_checkpoint(path, p)
    r2 = train(p, full, state=state, history=first_leg.history)

    assert r2.episodes_run == straight.episodes_run == 10
    assert list(r2.history_rows()) == list(straight.history_rows())
    for wa, wb in zip(r2.params.arrays(), straight.params.arrays()):
        assert np.array_equal(wa, wb)
    assert r2.best.reward == straight.best.reward
    assert r2.best_feasible.objective == straight.best_feasible.objective


def test_episode_draws_from_its_episode_generator(monkeypatch):
    # Episode `ep`'s matrix is the batch drawn from default_rng([seed, ep]) under
    # that episode's policy.
    policies = []
    forward = trainer_module.forward_cached

    def recording_forward(*args):
        dists, cache = forward(*args)
        policies.append(dists)
        return dists, cache

    drawn = []
    draw = trainer_module.sample

    def recording_sample(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(trainer_module, "forward_cached", recording_forward)
    monkeypatch.setattr(trainer_module, "sample", recording_sample)
    cfg = line_cfg(seed=4, max_episodes=6)
    res = train(mixed_problem(), cfg)
    assert len(policies) == len(drawn) == len(res.history) == 6
    for ep, (dists, got) in enumerate(zip(policies, drawn)):
        want = sample(dists, np.random.default_rng([cfg.seed, ep]), cfg.batch_size)
        assert got.tobytes() == want.tobytes()


def test_resumed_run_draws_the_straight_runs_matrices(tmp_path, monkeypatch):
    drawn = []
    draw = trainer_module.sample

    def recording_sample(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(trainer_module, "sample", recording_sample)
    p = mixed_problem()
    full = line_cfg(max_episodes=8, sample_budget=64)
    train(p, full)
    straight = list(drawn)
    drawn.clear()
    first_leg = interrupted_run(p, full, 4, monkeypatch)
    save_checkpoint(tmp_path / "ck.npz", first_leg)
    train(p, full, state=load_checkpoint(tmp_path / "ck.npz", p), history=first_leg.history)
    assert len(drawn) == len(straight) == 8
    assert all(a.shape == (8, 12) and a.tobytes() == b.tobytes() for a, b in zip(drawn, straight))


@pytest.mark.parametrize(
    "policy, problem",
    [
        (PolicyConfig(input_width=16, hidden_width=8), toy_line_problem),
        (PolicyConfig(input_width=8, hidden_width=32), toy_line_problem),
        (SMALL_POLICY, mixed_problem),
    ],
    ids=["hidden-width", "input-width", "head-outputs"],
)
def test_train_refuses_a_state_of_other_shapes(policy, problem):
    first = train(toy_line_problem(), line_cfg(max_episodes=2))
    saved = [(32, 16), (32, 32), (32, 32), (2, 32)]  # SMALL_POLICY on one Beta head
    p = problem()
    h, out = policy.hidden_width, layout_for_space(p.space).out_width
    want = [(h, policy.input_width), (h, h), (h, h), (out, h)]
    state = first.state
    with pytest.raises(ValueError, match=re.escape(str(saved)) + ".*" + re.escape(str(want))):
        train(p, line_cfg(policy=policy, max_episodes=4), state=state)
    assert state.episode == 2 and len(state.history) == 2  # refused before the state was touched


def test_resumed_best_that_meets_the_target_stops_after_one_episode(tmp_path, monkeypatch):
    p = toy_line_problem()
    cfg = line_cfg(max_episodes=10)
    first_leg = interrupted_run(p, cfg, 3, monkeypatch)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, first_leg)
    # Resumed on a line whose designs all lie 85 or more from its target, so
    # only the carried-in best can meet a target set at its objective. The
    # target is no part of the config digest: it only decides where a run stops.
    far = toy_line_problem(target=100)
    state = load_checkpoint(path, far)
    cfg = line_cfg(max_episodes=10, target_objective=state.best_feasible.objective)
    res = train(far, cfg, state=state, history=first_leg.history)
    assert res.status == "target_reached" and res.episodes_run == 4
    assert len(res.history) == 4 and res.samples_used == 32


def test_checkpoint_restores_best_designs(tmp_path):
    p = toy_line_problem()
    res = train(p, line_cfg(max_episodes=4))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, res.state)
    state = load_checkpoint(path, p)
    assert state.episode == 4 and state.samples_used == 32
    assert state.best_feasible.objective == res.best_feasible.objective
    assert state.best_feasible.design == res.best_feasible.design
    assert state.adam_step == res.state.adam_step


def test_checkpoint_refuses_another_space(tmp_path):
    def problem(name, *specs):
        decode, evaluate = lambda raw: int(raw[0]), lambda d: EvalOutcome.ok((float(d),))
        return Problem(name, ParameterSpace(specs), decode, evaluate)

    # Two ranged parameters take 4 head outputs and 2 raw values; the line
    # takes 2 outputs, and one categorical of 4 choices 4 outputs but 1 raw value.
    two = problem("two", ParamSpec("a", Ranged(0, 15)), ParamSpec("b", Ranged(0, 15)))
    pick = problem("pick", ParamSpec("c", Categorical(4)))
    for saved_on, match in ((toy_line_problem(), "head outputs"), (pick, "raw values")):
        res = train(saved_on, line_cfg(max_episodes=2))
        assert res.best is not None
        path = tmp_path / f"{saved_on.name}.npz"
        save_checkpoint(path, res.state)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path, two)
        load_checkpoint(path, saved_on)


def test_checkpoint_handles_missing_best(tmp_path):
    res = train(failing_problem(), line_cfg(max_episodes=1))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, res.state)
    state = load_checkpoint(path, failing_problem())
    assert state.best is None and state.best_feasible is None


def test_checkpoint_refuses_another_scalar_layout(tmp_path):
    # a checkpoint of the old layout: adam step, episode, running reward,
    # previous valid mean, samples used
    res = train(toy_line_problem(), line_cfg(max_episodes=2))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, res.state)
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    payload["scalars"] = np.array([2.0, 2.0, -3.5, -4.0, 16.0])
    old = tmp_path / "old.npz"
    np.savez(old, **payload)
    with pytest.raises(ValueError, match="5 scalars"):
        load_checkpoint(old, toy_line_problem())


def test_resume_under_a_larger_budget_is_refused(tmp_path):
    # a larger budget re-times the entropy schedule: a 5-episode leg ends at
    # beta_e_end, and 10 episodes would put its episode 5 back near the start
    p = toy_line_problem()
    short = line_cfg(max_episodes=10, sample_budget=40)
    first = train(p, short)
    assert first.episodes_run == 5 and first.history[-1].beta_e == pytest.approx(short.reward.beta_e_end)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, first.state)
    longer = line_cfg(max_episodes=10, sample_budget=80)
    assert entropy_coefficient(5, longer) > 0.4
    for state in (first.state, load_checkpoint(path, p)):
        with pytest.raises(ValueError, match="another config|config.*cfg's"):
            train(p, longer, state=state, history=first.history)
    assert first.state.episode == 5 and len(first.state.history) == 5  # refused before the state was touched
    # anything else in the config counts too; the target does not
    for other in (dict(learning_rate=2e-2), dict(seed=1), dict(reward=RewardConfig(weights=(-2.0,)))):
        with pytest.raises(ValueError):
            train(p, line_cfg(max_episodes=10, sample_budget=40, **other), state=load_checkpoint(path, p))
    res = train(p, line_cfg(max_episodes=10, sample_budget=40, target_objective=0.5), state=load_checkpoint(path, p))
    assert res.episodes_run == 5


def test_checkpoint_without_a_config_digest_is_refused(tmp_path):
    res = train(toy_line_problem(), line_cfg(max_episodes=2))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, res.state)
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files if k != "config"}
    old = tmp_path / "old.npz"
    np.savez(old, **payload)
    with pytest.raises(ValueError, match="no config digest"):
        load_checkpoint(old, toy_line_problem())
    assert load_checkpoint(path, toy_line_problem()).config == config_digest(line_cfg(max_episodes=2))


# ---------------------------------------------------------------------------
# the in-place Adam step against the whole-array expression


def reference_adam(params, m, v, t, factors, lr):
    """Adam as one whole-array expression per parameter array, from full gradients."""
    grads = []
    for delta, h in factors:
        grads += [np.outer(delta, h), delta.copy()]
    arrays = params.arrays()
    for i, g in enumerate(grads):
        m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
        v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g * g
        mhat = m[i] / (1 - ADAM_BETA1**t)
        vhat = v[i] / (1 - ADAM_BETA2**t)
        arrays[i] += lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def random_factors(rng, params):
    return [
        (rng.normal(size=w.shape[0]) * (rng.random(w.shape[0]) < 0.7), rng.normal(size=w.shape[1]))
        for w in params.weights
    ]


def test_adam_step_matches_whole_array_reference(tmp_path):
    # (3, 40000): rows wider than a block; (100, 700): 100 rows are not a
    # multiple of a block's 46; the Fortran-ordered (700, 3) array is not row-contiguous.
    rng = np.random.default_rng(11)
    sizes = [40000, 3, 700, 100]
    rows_per_block = ADAM_BLOCK // sizes[2]
    assert sizes[0] > ADAM_BLOCK and rows_per_block < sizes[3] and sizes[3] % rows_per_block
    weights = [rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    weights[1] = np.asfortranarray(weights[1])
    params = PolicyParams(weights, [rng.normal(size=o) for o in sizes[1:]])
    state = _LoopState(
        params=params,
        adam_m=[np.zeros_like(a) for a in params.arrays()],
        adam_v=[np.zeros_like(a) for a in params.arrays()],
        config=config_digest(line_cfg()),
        adam_step=0,
        episode=0,
        samples_used=0,
        best=None,
        best_feasible=None,
    )
    ref = params.copy()
    ref_m = [a.copy() for a in state.adam_m]
    ref_v = [a.copy() for a in state.adam_v]

    def check_steps(state, n, lr):
        held = state.params.arrays() + state.adam_m + state.adam_v
        for _ in range(n):
            factors = random_factors(rng, state.params)
            _adam_ascend(state, factors, lr)
            reference_adam(ref, ref_m, ref_v, state.adam_step, factors, lr)
            got = state.params.arrays() + state.adam_m + state.adam_v
            assert all(a is b for a, b in zip(got, held))  # updated in place
            for a, b in zip(got, ref.arrays() + ref_m + ref_v):
                assert np.array_equal(a, b)

    check_steps(state, 3, 1e-3)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, state)
    # 50 ranged parameters: two Beta head outputs each, the last layer's 100.
    wide = ParameterSpace(tuple(ParamSpec(f"v{i}", Ranged(0, 1)) for i in range(sizes[-1] // 2)))
    restored = load_checkpoint(path, Problem("wide", wide, lambda raw: 0, lambda d: EvalOutcome.ok((0.0,))))
    assert restored.adam_step == 3
    check_steps(restored, 3, 3e-2)
