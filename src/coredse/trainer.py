"""One-step policy-gradient search loop.

Every episode draws a fresh batch of raw actions from the policy
conditioned on a fixed context, evaluates the decoded designs, shapes
rewards, and takes exactly one Adam ascent step on the on-policy
surrogate mean(adv * log pi(a)) + beta_e * H(pi) (see `objective`).
Rewards and advantages are batch-relative: an anomalous design scores the
lowest valid reward of its batch, and each design's advantage is its
reward minus the mean of the rest of its batch, so no reward statistic
carries from one episode to the next.
A batch is one (B, n) raw matrix, one action a row, from the draw to the
history: the same matrix is evaluated, scored by the surrogate and
recorded, and an `EpisodeReport` holds the batch's per-design arrays.
Determinism contract: results are byte-identical across reruns, because
each episode's batch comes from a generator seeded by (seed, episode)
rather than from shared stream state. An episode builds that generator and
makes one `sample` call, so its batch depends only on the seed, the episode
number, the batch size and the episode's policy, and a resumed run draws
what a straight run draws. `sample` must stay a name in this module's
globals: perfbench wraps `trainer.sample` for its sampling span.

A batch is decoded and evaluated by `evaluate_batch` into one
`OutcomeBatch` (metrics, residuals, anomalous mask and notes as arrays):
the problem's array path builds it whole, or, where the problem has none
or its array path declines the batch, the scalar path builds it one design
at a time. Shaping and `SearchLog.record` read those arrays; `record`
builds a design object only for a row that becomes a best design, and the
target check reads the recorded best. Its body is `_decode_and_eval`, and
that name must stay: perfbench ends its set-up clock at the first call of
it, looked up in this module's globals, and a baselines run that never
calls it fails. So must `scalar_reward` and `_shaped_reward`, which
perfbench times as reward shaping.
A checkpoint records `config_digest` of the config its run started under,
and `train` resumes a state only under a config of the same digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .objective import (
    EvalOutcome,
    OutcomeBatch,
    RewardConfig,
    advantages,
    penalty_reward,
    scalar_reward,
    surrogate_gradients,
)
from .policy import (
    PolicyParams,
    context_vector,
    forward_cached,
    head_backward,
    init_params,
    layout_for_space,
    mlp_backward,
    sample,
)
from .problems import Problem

__all__ = [
    "PolicyConfig",
    "TrainConfig",
    "EpisodeReport",
    "BestDesign",
    "SearchLog",
    "TrainResult",
    "config_digest",
    "entropy_coefficient",
    "evaluate_batch",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 15  # elements per block of the in-place Adam step


@dataclass(frozen=True)
class PolicyConfig:
    input_width: int = 512
    hidden_width: int = 4096

    def __post_init__(self):
        if self.input_width < 1 or self.hidden_width < 1:
            raise ValueError("policy widths must be positive")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_episodes: int = 2000
    sample_budget: int = 40000
    target_objective: float | None = None
    learning_rate: float = 1e-5
    seed: int = 0
    reward: RewardConfig = field(default_factory=RewardConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_episodes < 0:
            raise ValueError("max_episodes must be >= 0")
        if self.sample_budget < 0:
            raise ValueError("sample_budget must be >= 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.target_objective is not None and not np.isfinite(self.target_objective):
            raise ValueError(f"target_objective must be finite, got {self.target_objective}")

    def episode_count(self) -> int:
        return min(self.max_episodes, self.sample_budget // self.batch_size)


@dataclass(frozen=True)
class EpisodeReport:
    """One batch's history entry: batch statistics and one entry per design, in slot order."""

    episode: int
    beta_e: float
    best_reward: float
    rewards: np.ndarray  # (B,) float64
    valid: np.ndarray  # (B,) bool, False where the outcome was anomalous
    violation_sums: np.ndarray  # (B,) float64

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean())

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())


@dataclass
class BestDesign:
    reward: float
    objective: float
    design: Any
    raw: np.ndarray
    episode: int


@dataclass
class SearchLog:
    """A search's budget accounting: designs scored, best designs and history.

    Every search (the trainer, the GA and random search) records each scored
    batch through `record`, so all three count samples and keep their best
    designs the same way.
    """

    samples_used: int = 0
    best: BestDesign | None = None
    best_feasible: BestDesign | None = None
    history: list[EpisodeReport] = field(default_factory=list)

    def record(self, episode: int, raws, outcomes: OutcomeBatch, rewards, weights, beta_e: float) -> None:
        """Count one scored batch, fold it into the best designs and log it.

        `best` is the top reward, `best_feasible` the lowest objective among
        feasible designs. Anomalous designs never count; ties keep the
        earlier design. Only a row that becomes a best design has its design
        built.
        """
        self.samples_used += len(raws)
        rewards = np.asarray(rewards, dtype=float)
        valid = ~outcomes.anomalous
        if valid.any():
            objective = -outcomes.weighted(weights)

            def best_design(candidates: np.ndarray, score: np.ndarray) -> BestDesign:
                k = int(np.flatnonzero(candidates)[np.argmax(score[candidates])])
                design = outcomes.design(k)
                return BestDesign(float(rewards[k]), float(objective[k]), design, raws[k].copy(), episode)

            if self.best is None or rewards[valid].max() > self.best.reward:
                self.best = best_design(valid, rewards)
            feasible = outcomes.feasible
            if feasible.any() and (
                self.best_feasible is None or objective[feasible].min() < self.best_feasible.objective
            ):
                self.best_feasible = best_design(feasible, -objective)
        self.history.append(
            EpisodeReport(
                episode=episode,
                beta_e=beta_e,
                best_reward=self.best.reward if self.best is not None else float("nan"),
                rewards=rewards,
                valid=valid,
                violation_sums=outcomes.violation_sums(),
            )
        )

    def history_rows(self):
        """Flat per-sample rows matching the run log schema."""
        for report in self.history:
            columns = zip(report.rewards.tolist(), report.valid.tolist(), report.violation_sums.tolist())
            for k, (reward, valid, violation_sum) in enumerate(columns):
                yield {
                    "episode": report.episode,
                    "sample_index": k,
                    "reward": reward,
                    "valid": int(valid),
                    "violation_sum": violation_sum,
                    "best_reward": report.best_reward,
                }


@dataclass(kw_only=True)
class TrainResult(SearchLog):
    status: str
    episodes_run: int
    params: PolicyParams
    state: Any = field(default=None, repr=False)


def entropy_coefficient(episode: int, cfg: TrainConfig) -> float:
    """Linear decay across the episodes that run, `cfg.episode_count()`;
    episode is 0-based."""
    r = cfg.reward
    episodes = cfg.episode_count()
    if episodes <= 1:
        return r.beta_e_start
    frac = episode / (episodes - 1)
    return r.beta_e_start + (r.beta_e_end - r.beta_e_start) * frac


def _decode_and_eval_one(problem: Problem, raw) -> tuple[Any, EvalOutcome]:
    """The scalar path for one row: decode, then evaluate, errors caught into an anomalous outcome."""
    try:
        design = problem.decode(raw)
    except Exception as exc:
        return None, EvalOutcome.failed(f"decode: {exc}")
    try:
        return design, problem.evaluate(design)
    except Exception as exc:
        return design, EvalOutcome.failed(f"evaluate: {exc}")


def _decode_and_eval(problem: Problem, raws) -> OutcomeBatch:
    """The body of `evaluate_batch`, under the name perfbench hooks (see above)."""
    evaluate_raws = problem.evaluate_raws
    if evaluate_raws is not None and len(raws):
        try:
            matrix = np.asarray(raws)
        except ValueError:  # ragged rows: the scalar path reports each
            matrix = None
        # Only numbers take the array path; anything else gets the scalar path's note.
        if matrix is not None and matrix.dtype.kind in "fiu" and matrix.shape == (len(raws), problem.n_raw):
            outcomes = evaluate_raws(matrix.astype(float, copy=False))
            if outcomes is not None:
                return outcomes
    return OutcomeBatch.of(_decode_and_eval_one(problem, raw) for raw in raws)


def evaluate_batch(problem: Problem, raws) -> OutcomeBatch:
    """Decode and evaluate a batch, in slot order, into one `OutcomeBatch`.

    The problem's array path (`Problem.evaluate_raws`) takes the batch where
    it has one and does not decline it. Otherwise every row is decoded and
    evaluated on its own, with errors caught into an anomalous outcome.
    """
    return _decode_and_eval(problem, raws)


def config_digest(cfg: TrainConfig) -> str:
    """A digest of everything in cfg that shapes a run's episodes: all of it
    but the target, which only decides where a run stops."""
    shaping = dataclasses.replace(cfg, target_objective=None)
    return hashlib.blake2b(repr(shaping).encode(), digest_size=16).hexdigest()


@dataclass(kw_only=True)
class _LoopState(SearchLog):
    params: PolicyParams
    adam_m: list[np.ndarray]
    adam_v: list[np.ndarray]
    config: str  # config_digest of the TrainConfig the state was created under
    adam_step: int = 0
    episode: int = 0


def _fresh_state(problem: Problem, cfg: TrainConfig) -> _LoopState:
    layout = layout_for_space(problem.space)
    # Not [seed]: seed words are zero-padded, so [seed] would be episode 0's [seed, 0].
    rng = np.random.default_rng([cfg.seed, 0, 1])
    params = init_params(
        rng, cfg.policy.input_width, cfg.policy.hidden_width, layout.out_width
    )
    return _LoopState(
        params=params,
        adam_m=[np.zeros_like(a) for a in params.arrays()],
        adam_v=[np.zeros_like(a) for a in params.arrays()],
        config=config_digest(cfg),
    )


def _row_blocks(n_rows: int, n_cols: int):
    """(rows, cols) slices that cover an n_rows x n_cols array in blocks.

    A block holds at most ADAM_BLOCK elements: whole rows where a row fits,
    otherwise one row split into column ranges. Basic slices always give
    views, whatever the array's strides, so updates through them land.
    """
    if n_cols <= ADAM_BLOCK:
        step = ADAM_BLOCK // n_cols
        for r0 in range(0, n_rows, step):
            yield slice(r0, min(r0 + step, n_rows)), slice(None)
    else:
        for r in range(n_rows):
            for c0 in range(0, n_cols, ADAM_BLOCK):
                yield slice(r, r + 1), slice(c0, min(c0 + ADAM_BLOCK, n_cols))


def _adam_block(p, m, v, g, s1, s2, lr: float, c1: float, c2: float) -> None:
    """Adam on one block, in place in p, m and v; s1 and s2 are scratch of g's shape."""
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(g, 1 - ADAM_BETA1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, 1 - ADAM_BETA2, out=s1)
    np.multiply(s1, g, out=s1)
    np.add(v, s1, out=v)
    np.divide(v, c2, out=s1)
    np.sqrt(s1, out=s1)
    np.add(s1, ADAM_EPS, out=s1)
    np.divide(m, c1, out=s2)
    np.multiply(s2, lr, out=s2)
    np.divide(s2, s1, out=s2)
    np.add(p, s2, out=p)


def _adam_ascend(state: _LoopState, factors: list[tuple[np.ndarray, np.ndarray]], lr: float) -> None:
    """One Adam ascent step, in place, from each layer's gradient factors.

    Layer l's weight gradient is outer(delta_l, h_l) and its bias gradient
    is delta_l (see `mlp_backward`). Weights, biases and both moments are
    updated block by block through views, and each weight-gradient block is
    formed in reused scratch, so the step allocates nothing of the arrays'
    size. Each element gets the IEEE operations, in the same order, of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; p += lr*(m/c1) / (sqrt(v/c2) + eps)``.
    """
    state.adam_step += 1
    t = state.adam_step
    c1 = 1 - ADAM_BETA1**t
    c2 = 1 - ADAM_BETA2**t
    scratch = [np.empty(ADAM_BLOCK) for _ in range(3)]
    params, m, v = state.params, state.adam_m, state.adam_v
    for layer, (delta, h) in enumerate(factors):
        w, b = params.weights[layer], params.biases[layer]
        iw, ib = 2 * layer, 2 * layer + 1
        for rows, cols in _row_blocks(*w.shape):
            d, x = delta[rows], h[cols]
            g, s1, s2 = (buf[: d.size * x.size].reshape(d.size, x.size) for buf in scratch)
            np.outer(d, x, out=g)
            _adam_block(w[rows, cols], m[iw][rows, cols], v[iw][rows, cols], g, s1, s2, lr, c1, c2)
        for rows, _ in _row_blocks(b.size, 1):
            d = delta[rows]
            s1, s2 = (buf[: d.size] for buf in scratch[1:])
            _adam_block(b[rows], m[ib][rows], v[ib][rows], d, s1, s2, lr, c1, c2)


def _shaped_reward(outcomes: OutcomeBatch, cfg: RewardConfig) -> np.ndarray:
    """One batch's rewards, in slot order.

    With shaping, a valid design scores `scalar_reward` and an anomalous one
    the lowest valid reward of its batch, or `cfg.r_ano` when none is valid,
    so no anomalous design outranks a valid one. Without shaping, every
    anomalous or violating design scores `cfg.no_shaping_penalty`.
    """
    valid = ~outcomes.anomalous
    if cfg.shaping:
        scored = scalar_reward(outcomes, cfg)
        floor = scored[valid].min() if valid.any() else cfg.r_ano
    else:
        scored = penalty_reward(outcomes, cfg)
        floor = cfg.no_shaping_penalty
    return np.where(valid, scored, floor)


def _check_policy_shapes(params: PolicyParams, policy: PolicyConfig, out_width: int) -> None:
    """ValueError unless the weights are (input, hidden, hidden, hidden, out_width) wide."""
    h = policy.hidden_width
    widths = (policy.input_width, h, h, h, out_width)
    want = [(fan_out, fan_in) for fan_in, fan_out in zip(widths[:-1], widths[1:])]
    got = [tuple(w.shape) for w in params.weights]
    if got != want:
        raise ValueError(
            f"state's policy weights have shapes {got}, but cfg.policy and the problem need {want}"
        )


def train(
    problem: Problem,
    cfg: TrainConfig = TrainConfig(),
    state: _LoopState | None = None,
    history: list[EpisodeReport] | None = None,
) -> TrainResult:
    """Run the search loop to completion; pass a restored state, and the
    history it was saved with, to resume.

    ValueError if the state was created under a config other than cfg
    (`config_digest`): a resumed run must keep the schedule, reward and
    step size it started with.
    """
    layout = layout_for_space(problem.space)
    if state is None:
        state = _fresh_state(problem, cfg)
    else:
        _check_policy_shapes(state.params, cfg.policy, layout.out_width)
        if state.config != config_digest(cfg):
            raise ValueError(
                f"state was created under config {state.config}, but cfg's is {config_digest(cfg)}; "
                "resume under the config the run started with"
            )
    state.history = list(history) if history else []
    context = context_vector(cfg.policy.input_width)
    episodes = cfg.episode_count()
    rcfg = cfg.reward
    status = "max_episodes" if episodes >= cfg.max_episodes else "budget_exhausted"

    while state.episode < episodes:
        ep = state.episode
        beta_e = entropy_coefficient(ep, cfg)

        dists, cache = forward_cached(state.params, context, layout)
        raws = sample(dists, np.random.default_rng([cfg.seed, ep]), cfg.batch_size)

        outcomes = evaluate_batch(problem, raws)
        shaped = _shaped_reward(outcomes, rcfg)
        state.record(ep, raws, outcomes, shaped, rcfg.weights, beta_e)

        best = state.best_feasible
        if cfg.target_objective is not None and best is not None and best.objective <= cfg.target_objective:
            state.episode += 1
            status = "target_reached"
            break

        advs = advantages(shaped)
        d_alpha, d_beta, d_logits = surrogate_gradients(dists, raws, advs, beta_e)
        g_out = head_backward(dists, d_alpha, d_beta, d_logits)
        factors = mlp_backward(state.params, cache, g_out)
        _adam_ascend(state, factors, cfg.learning_rate)
        state.episode += 1

    return TrainResult(
        status=status,
        episodes_run=state.episode,
        samples_used=state.samples_used,
        best=state.best,
        best_feasible=state.best_feasible,
        history=state.history,
        params=state.params,
        state=state,
    )


def save_checkpoint(path, state: _LoopState) -> None:
    """Everything needed to resume mid-run; sample RNG is derived, not saved."""
    payload: dict[str, np.ndarray] = {}
    for i, w in enumerate(state.params.weights):
        payload[f"w{i}"] = w
    for i, b in enumerate(state.params.biases):
        payload[f"b{i}"] = b
    for i, a in enumerate(state.adam_m):
        payload[f"m{i}"] = a
    for i, a in enumerate(state.adam_v):
        payload[f"v{i}"] = a
    payload["scalars"] = np.array([state.adam_step, state.episode, state.samples_used], dtype=float)
    payload["config"] = np.array(state.config)
    for label, best in (("best", state.best), ("feas", state.best_feasible)):
        if best is not None:
            payload[f"{label}_raw"] = best.raw
            payload[f"{label}_meta"] = np.array([best.reward, best.objective, float(best.episode)])
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path, problem: Problem) -> _LoopState:
    """Restore a saved state; ValueError if it was saved on another space or
    in another layout, or without the digest of its config."""
    with np.load(path) as data:
        s = data["scalars"]
        if s.shape != (3,):
            raise ValueError(
                f"checkpoint has {s.size} scalars, expected 3 (adam step, episode, samples used)"
            )
        if "config" not in data.files:
            raise ValueError("checkpoint has no config digest, so nothing says which config it resumes under")
        n_layers = sum(1 for k in data.files if k.startswith("w"))
        params = PolicyParams(
            weights=[data[f"w{i}"] for i in range(n_layers)],
            biases=[data[f"b{i}"] for i in range(n_layers)],
        )
        out_width = layout_for_space(problem.space).out_width
        if params.weights[-1].shape[0] != out_width:
            raise ValueError(
                f"checkpoint policy has {params.weights[-1].shape[0]} head outputs, "
                f"problem {problem.name!r} needs {out_width}"
            )
        adam_m = [data[f"m{i}"] for i in range(2 * n_layers)]
        adam_v = [data[f"v{i}"] for i in range(2 * n_layers)]

        def read_best(label: str) -> BestDesign | None:
            if f"{label}_raw" not in data.files:
                return None
            raw = data[f"{label}_raw"]
            if raw.shape != (problem.n_raw,):
                raise ValueError(
                    f"checkpoint {label} design has {raw.size} raw values, "
                    f"problem {problem.name!r} has {problem.n_raw}"
                )
            meta = data[f"{label}_meta"]
            return BestDesign(
                reward=float(meta[0]),
                objective=float(meta[1]),
                design=problem.decode(raw),
                raw=raw,
                episode=int(meta[2]),
            )

        return _LoopState(
            params=params,
            adam_m=adam_m,
            adam_v=adam_v,
            config=str(data["config"]),
            adam_step=int(s[0]),
            episode=int(s[1]),
            samples_used=int(s[2]),
            best=read_best("best"),
            best_feasible=read_best("feas"),
        )
