import dataclasses

import numpy as np
import pytest

from coredse.baselines import ga_run
from coredse.objective import EvalOutcome, RewardConfig, Violation
from coredse.problems import Problem, toy_line_problem
from coredse.space import Categorical, ParameterSpace, ParamSpec, Ranged
from coredse.policy import PolicyParams
from coredse.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    PolicyConfig,
    SearchLog,
    TrainConfig,
    entropy_coefficient,
    evaluate_batch,
    load_checkpoint,
    save_checkpoint,
    train,
    _adam_ascend,
    _LoopState,
)

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


# ---------------------------------------------------------------------------
# configs


def test_train_config_validation():
    for kw in (
        dict(batch_size=0),
        dict(max_episodes=-1),
        dict(sample_budget=-1),
        dict(learning_rate=0.0),
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


# ---------------------------------------------------------------------------
# evaluate_batch


def test_evaluate_batch_preserves_slot_order():
    p = toy_line_problem()
    raws = [np.array([x]) for x in (0.01, 0.99, 0.5, 0.25)]
    assert [d for d, _ in evaluate_batch(p, raws)] == [0, 15, 8, 4]


def test_evaluate_batch_wraps_decode_errors():
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))

    def decode(raw):
        if raw[0] > 0.5:
            raise ValueError("raw too large")
        return 1

    p = Problem("half-broken", space, decode, lambda d: EvalOutcome.ok((1.0,)))
    (d0, o0), (d1, o1) = evaluate_batch(p, [np.array([0.1]), np.array([0.9])])
    assert not o0.anomalous
    assert d1 is None and o1.anomalous and o1.note.startswith("decode:")


def test_evaluate_batch_wraps_evaluator_errors():
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))

    def evaluate(design):
        raise RuntimeError("model blew up")

    p = Problem("hot", space, lambda raw: 3, evaluate)
    ((design, outcome),) = evaluate_batch(p, [np.array([0.2])])
    assert design == 3
    assert outcome.anomalous and outcome.note == "evaluate: model blew up"


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


def test_history_schema_and_hashes():
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
        "running_reward",
        "best_reward",
    ]
    hashes = {h for rep in res.history for h in rep.action_hashes}
    assert all(len(h) == 16 for h in hashes)
    assert len(hashes) > 1  # distinct actions hash apart


def test_history_rows_hold_python_numbers():
    # The run log writes repr() of each float, and repr(np.float64(1.0)) is "np.float64(1.0)".
    space = ParameterSpace((ParamSpec("v", Ranged(0, 15)),))

    def evaluate(v):
        if v >= 8:
            return EvalOutcome.failed("upper half rejected")
        return EvalOutcome.ok((float(v),), [Violation("odd", 0.5)] if v % 2 else [])

    p = Problem("half", space, toy_line_problem().decode, evaluate)
    floats = {"reward", "violation_sum", "running_reward", "best_reward"}
    core = train(p, line_cfg(max_episodes=4))
    ga = ga_run(p, WEIGHTS1, pop_size=8, generations=3, seed=1)
    for result in (core, ga):
        rows = list(result.history_rows())
        assert {row["valid"] for row in rows} == {0, 1}
        for row in rows:
            for key, value in row.items():
                assert type(value) is (float if key in floats else int), (key, type(value))


def test_first_episode_running_reward_ema():
    # running starts at 0; after one batch it is alpha_r * mean(shaped)
    res = train(toy_line_problem(), line_cfg(max_episodes=1))
    rep = res.history[0]
    assert abs(rep.running_reward - 0.2 * rep.mean_reward) < 1e-12


def test_all_anomalous_batch_uses_floor_reward():
    res = train(failing_problem(), line_cfg(max_episodes=2))
    first = res.history[0]
    assert first.n_valid == 0
    assert (first.rewards == -1e9).all()
    assert abs(first.running_reward - 0.2 * -1e9) < 1e-3
    # later all-anomalous batches have no valid means to lean on: still the floor
    assert (res.history[1].rewards == -1e9).all()
    assert res.best is None and res.best_feasible is None


def test_target_stops_early_and_freezes_running():
    # half the line sits within distance 3 of the target: the very first
    # batch should hit it
    cfg = line_cfg(max_episodes=50, target_objective=3.0)
    res = train(toy_line_problem(), cfg)
    assert res.status == "target_reached"
    assert res.episodes_run == 1 and len(res.history) == 1
    assert res.best_feasible is not None and res.best_feasible.objective <= 3.0
    # the stop happens before the EMA update, so the logged value is untouched
    assert res.history[0].running_reward == 0.0


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
    log.record(7, raws, results, rewards, (-1.0,), 0.5, -1.5)

    assert (log.best.design, log.best.reward, log.best.objective, log.best.episode) == ("b", 2.0, 1.0, 7)
    assert (log.best_feasible.design, log.best_feasible.objective) == ("a", 4.0)
    assert log.best_feasible.reward == -4.0 and log.best_feasible.episode == 7
    assert log.best.raw.tolist() == [1.0] and not np.shares_memory(log.best.raw, raws)
    assert log.samples_used == 5 and len(list(log.history_rows())) == 5
    (report,) = log.history
    assert report.valid.tolist() == [True, True, False, True, True]
    assert report.violation_sums.tolist() == [0.0, 0.5, 0.0, 0.0, 0.5]
    assert (report.episode, report.beta_e, report.running_reward, report.best_reward) == (7, 0.5, -1.5, 2.0)

    # A later batch that only ties keeps both earlier designs.
    log.record(8, raws[:1], [("f", ok)], np.array([2.0]), (-1.0,), 0.5, -1.5)
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


def test_resume_matches_straight_run(tmp_path):
    p = toy_line_problem()
    full = line_cfg(max_episodes=10, sample_budget=80)
    straight = train(p, full)

    first_leg = dataclasses.replace(full, sample_budget=40)
    r1 = train(p, first_leg)
    assert r1.episodes_run == 5 and r1.status == "budget_exhausted"

    path = tmp_path / "ck.npz"
    save_checkpoint(path, r1.state)
    state = load_checkpoint(path, p)
    r2 = train(p, full, state=state, history=r1.history)

    assert r2.episodes_run == straight.episodes_run == 10
    assert list(r2.history_rows()) == list(straight.history_rows())
    for wa, wb in zip(r2.params.arrays(), straight.params.arrays()):
        assert np.array_equal(wa, wb)
    assert r2.best.reward == straight.best.reward
    assert r2.best_feasible.objective == straight.best_feasible.objective


def test_resumed_best_that_meets_the_target_stops_after_one_episode(tmp_path):
    p = toy_line_problem()
    r1 = train(p, line_cfg(max_episodes=3))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, r1.state)
    # Resumed on a line whose designs all lie 85 or more from its target, so
    # only the carried-in best can meet a target set at its objective.
    far = toy_line_problem(target=100)
    state = load_checkpoint(path, far)
    running = state.running
    cfg = line_cfg(max_episodes=10, target_objective=state.best_feasible.objective)
    res = train(far, cfg, state=state, history=r1.history)
    assert res.status == "target_reached" and res.episodes_run == 4
    assert len(res.history) == 4 and res.samples_used == 32
    assert res.history[-1].running_reward == running == res.state.running


def test_checkpoint_restores_best_designs(tmp_path):
    p = toy_line_problem()
    res = train(p, line_cfg(max_episodes=4))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, res.state)
    state = load_checkpoint(path, p)
    assert state.episode == 4 and state.samples_used == 32
    assert state.best_feasible.objective == res.best_feasible.objective
    assert state.best_feasible.design == res.best_feasible.design
    assert state.running == res.state.running
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
    assert state.prev_valid_mean is None


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
        adam_step=0,
        episode=0,
        running=0.0,
        prev_valid_mean=None,
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
