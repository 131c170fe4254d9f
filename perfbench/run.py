"""The repository's benchmark: three search workloads, each in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs whole rounds, each the
searches of one seed, until S seconds have passed since set-up ended
(at least four rounds on the ResNet-like workloads), checks every search's
answers (``checks``, ``refmodel``) and prints one JSON object as the last
line of standard output: ``correct``, ``attempted`` and ``failed`` (designs
evaluated, and those whose outcome was anomalous) and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run records a span around each layer call and reports per-layer times.
The seed picks the search seeds; the program only sees the configs built
from them. Throughput is reported in designs per reference second: each
search's wall-clock time is divided by the host's slowness, which
``hostspeed`` reads from a fixed kernel after every search.
README.md describes the workloads and what each metric shows.
"""

import os
import time


def _process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


# Taken before any other import, so that set-up time includes imports.
PROCESS_START = time.perf_counter() - _process_age_s()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import checks  # noqa: E402
import refmodel  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = Path(__file__).resolve().parent / "runs"

# Gate 4's three-layer ResNet-like space on the edge platform (69 parameters).
RESNET = refmodel.Space(
    layers=((64, 64, 56, 56, 3, 3), (128, 128, 28, 28, 3, 3), (256, 256, 14, 14, 3, 3)),
    platform="edge",
    max_pe=128,
)
RESNET_OPTIONS = dict(
    n_pe=(2, 128, 2), l1_bytes=(256, 1024, 256), l2_bytes=(16384, 131072, 16384), vary_level1=False
)
RESNET_WEIGHTS = (-1e-6, 0.0)
SEEDS_FOR_BEST = 4  # rounds whose seeds give best_latency_cycles
BUDGET = 2048  # designs per search: 128 CORE episodes of 16, 64 GA generations of 32

# Gate 3's enumerable single-layer toy space on the cloud platform.
TOY = refmodel.Space(layers=((25, 13, 11, 11, 3, 3),), platform="cloud", max_pe=64)
TOY_SPACE = {
    "n_pe": 64,
    "l1_bytes": 4096,
    "l2_bytes": 8192,
    "tile_dims": ["K", "C"],
    "tile_step": 4,
    "vary_level1": False,
    "include_order": False,
    "vary_parallel_dim": False,
}
TOY_REWARD = {"weights": [-1.0, 0.0], "alpha_c": 50000.0}
CLI_BUDGET = 128  # designs per `core-dse run`: 4 episodes at the default batch of 32

WORKLOADS = ("core-resnet", "baselines-resnet", "cli-default-width")

END_TO_END_UNITS = {
    "designs_per_ref_s": "designs/ref-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_latency_cycles": "cycles",
}

# Per-layer time: (unit, span name, scale, denominator). The value is the
# span's summed self time, scaled, over the count the denominator names:
# designs attempted, episodes (policy forward passes), the span's own calls,
# or `core-dse run` invocations. A layer that never ran reads 0.
PER_LAYER_TIMES = {
    "policy.sample_us": ("us", "policy.sample", 1e6, "design"),
    "policy.forward_ms": ("ms", "policy.forward", 1e3, "episode"),
    "policy.mlp_backward_ms": ("ms", "policy.mlp_backward", 1e3, "episode"),
    "objective.surrogate_ms": ("ms", "objective.surrogate", 1e3, "episode"),
    "objective.shaping_us": ("us", "objective.shaping", 1e6, "design"),
    "trainer.adam_ms": ("ms", "trainer.adam", 1e3, "call"),
    "trainer.init_s": ("s", "trainer.init", 1.0, "call"),
    "trainer.loop_us": ("us", "trainer.loop", 1e6, "design"),
    "design.decode_us": ("us", "design.decode", 1e6, "design"),
    "costmodel.evaluate_us": ("us", "costmodel.evaluate", 1e6, "design"),
    "baselines.loop_us": ("us", "baselines.loop", 1e6, "design"),
    "cli.write_s": ("s", "cli.write", 1.0, "cli_run"),
}
PER_LAYER_UNITS = {
    **{name: spec[0] for name, spec in PER_LAYER_TIMES.items()},
    "search.feasible_share": "ratio",
    "search.repeat_share": "ratio",
}

# Span name -> the functions it wraps, as (module, attribute) at the name
# the caller looks up.
SPANS = {
    "policy.sample": (("trainer", "sample"),),
    "policy.forward": (("trainer", "forward_cached"),),
    "policy.mlp_backward": (("trainer", "mlp_backward"),),
    "objective.surrogate": (("trainer", "surrogate_gradients"), ("trainer", "head_backward")),
    "objective.shaping": (
        ("trainer", "_shaped_reward"),
        ("trainer", "scalar_reward"),
        ("baselines", "scalar_reward"),
    ),
    "trainer.adam": (("trainer", "_adam_ascend"),),
    "trainer.init": (("trainer", "_fresh_state"),),
    "trainer.loop": (("trainer", "train"), ("cli", "train")),
    "baselines.loop": (("baselines", "ga_run"), ("baselines", "random_search")),
    "cli.write": (("cli", "_write_history"), ("cli", "_write_json"), ("cli", "save_params")),
}


def import_program() -> SimpleNamespace:
    """Import ``coredse`` from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coredse
        from coredse import baselines, cli, costmodel, design, objective, problems, trainer
    except ImportError as exc:
        raise SystemExit(f"error: cannot import coredse from {src}: {exc}")
    if Path(coredse.__file__).resolve().parent != src / "coredse":
        raise SystemExit(f"error: coredse was imported from {coredse.__file__}, not from {src}")
    return SimpleNamespace(
        baselines=baselines,
        cli=cli,
        costmodel=costmodel,
        design=design,
        objective=objective,
        problems=problems,
        trainer=trainer,
    )


def search_seed(seed: int, round_index: int) -> int:
    """The search seed of one round, derived from the benchmark seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def resnet_problem(p: SimpleNamespace):
    """The program's problem and reward for the ResNet-like space."""
    d = p.design
    workload = d.Workload(
        "resnetish", tuple(d.Layer(K=k, C=c, X=x, Y=y, R=r, S=s) for k, c, x, y, r, s in RESNET.layers)
    )
    problem = p.problems.accelerator_problem(
        workload, p.costmodel.platform_by_name(RESNET.platform), d.SpaceOptions(**RESNET_OPTIONS)
    )
    return problem, p.objective.RewardConfig(weights=RESNET_WEIGHTS, alpha_c=3.0)


def _history_rows(lines) -> list[dict]:
    return [
        {
            "episode": int(r["episode"]),
            "reward": float(r["reward"]),
            "valid": bool(int(r["valid"])),
            "violation_sum": float(r["violation_sum"]),
            "best_reward": float(r["best_reward"]),
        }
        for r in lines
    ]


class Bench:
    def __init__(self, program: SimpleNamespace, workload: str, seed: int, trace: bool):
        self.p = program
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer() if trace else None
        self.run_dir = RUNS / workload
        self.setup_end: float | None = None
        self.attempted = 0
        self.failed = 0
        self.feasible = 0
        self.repeats = 0
        self.cli_runs = 0
        self.evaluated: list = []  # designs of the current search, traced runs only
        self.best: list[float] = []  # best latency of each of the first rounds' seeds
        self.faults: list[str] = []
        # Host-speed bookkeeping of the round in progress (see ``lap``).
        self.host = HostSpeed()
        self.lap_start: float | None = None
        self.last_factor: float | None = None
        self.round_wall = self.round_ref = 0.0

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> None:
        if self.tracer:
            for name, targets in SPANS.items():
                for module, attr in targets:
                    self.tracer.patch(getattr(self.p, module), attr, name)
        self._arm_setup_clock(("forward_cached", "_decode_and_eval"))
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if self.workload == "cli-default-width":
            self._write_cli_config()
            if self.tracer:
                build = self.p.cli.accelerator_problem
                self.p.cli.accelerator_problem = lambda *a, **k: self._traced_problem(build(*a, **k))
        else:
            problem, self.reward = resnet_problem(self.p)
            self.problem = self._traced_problem(problem) if self.tracer else problem

    def _arm_setup_clock(self, attrs) -> None:
        """Set-up ends at the first policy forward pass or the first
        decode-and-evaluate; the hooks remove themselves on that call."""
        trainer = self.p.trainer
        originals = {a: getattr(trainer, a) for a in attrs}

        def hook(fn):
            def first_call(*args, **kwargs):
                self.setup_end = time.perf_counter()
                for a, f in originals.items():
                    setattr(trainer, a, f)
                return fn(*args, **kwargs)

            return first_call

        for a, f in originals.items():
            setattr(trainer, a, hook(f))

    def _traced_problem(self, problem):
        evaluate = self.tracer.wrap("costmodel.evaluate", problem.evaluate)
        seen = self.evaluated

        def noting_evaluate(design):
            seen.append(design)
            return evaluate(design)

        return dataclasses.replace(
            problem, decode=self.tracer.wrap("design.decode", problem.decode), evaluate=noting_evaluate
        )

    def _write_cli_config(self) -> None:
        """`core-dse defaults`, on gate 3's toy space and reward, with a short budget."""
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            self.p.cli.main(["defaults"])
        config = json.loads(printed.getvalue())
        config.update(workload="toy.txt", platform=TOY.platform, space=TOY_SPACE, reward=TOY_REWARD)
        config["train"]["sample_budget"] = CLI_BUDGET
        (self.run_dir / "toy.txt").write_text("".join(" ".join(map(str, l)) + "\n" for l in TOY.layers))
        (self.run_dir / "config.json").write_text(json.dumps(config, indent=2))

    # -- searches ----------------------------------------------------------

    def record(self, label, rows, design, best_objective, budget, weights, space) -> float:
        latency, faults = checks.check_search(rows, design, best_objective, budget, weights, space)
        self.faults += [f"{label}: {f}" for f in faults]
        self.attempted += budget
        self.failed += checks.failed_count(rows)
        self.feasible += sum(map(checks.is_feasible, rows))
        if self.tracer:
            self.repeats += len(self.evaluated) - len(set(self.evaluated))
            self.evaluated.clear()
        return latency

    def record_result(self, label, result) -> float:
        if result.samples_used != BUDGET:
            self.faults.append(f"{label}: used {result.samples_used} of {BUDGET} designs")
        rows = [dict(r, valid=bool(r["valid"])) for r in result.history_rows()]
        best = result.best_feasible
        design = self.problem.describe(best.design) if best else None
        objective = best.objective if best else None
        return self.record(label, rows, design, objective, BUDGET, RESNET_WEIGHTS, RESNET)

    def core_round(self, seed: int) -> float:
        t = self.p.trainer
        cfg = t.TrainConfig(
            batch_size=16,
            max_episodes=BUDGET // 16,
            sample_budget=BUDGET,
            learning_rate=3e-3,
            seed=seed,
            reward=self.reward,
            policy=t.PolicyConfig(input_width=64, hidden_width=256),
        )
        return self.record_result(f"core seed {seed}", t.train(self.problem, cfg))

    def baselines_round(self, seed: int) -> float:
        b = self.p.baselines
        ga = b.ga_run(self.problem, self.reward, pop_size=32, generations=BUDGET // 32 - 1, seed=seed)
        self.lap()
        rnd = b.random_search(self.problem, self.reward, budget=BUDGET, seed=seed)
        return min(self.record_result(f"ga seed {seed}", ga), self.record_result(f"random seed {seed}", rnd))

    def cli_round(self, seed: int) -> float:
        out = self.run_dir / "run"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = self.p.cli.main(
                ["run", "--config", str(self.run_dir / "config.json"), "--seed", str(seed), "--out", str(out)]
            )
        self.cli_runs += 1
        label = f"core-dse run seed {seed}"
        if rc != 0:
            self.faults.append(f"{label}: exit code {rc}")
            return math.nan
        with open(out / "history.csv", newline="") as fh:
            rows = _history_rows(csv.DictReader(fh))
        summary = json.loads((out / "summary.json").read_text())
        # Deleted before the kernel reads the host's speed, so that its
        # 287 MB leave the page cache instead of being written back to disk
        # later, where that would compete with the next readings and runs.
        (out / "policy.bin").unlink(missing_ok=True)
        if summary["samples_used"] != CLI_BUDGET:
            self.faults.append(f"{label}: used {summary['samples_used']} of {CLI_BUDGET} designs")
        return self.record(
            label, rows, summary["best_design"], summary["best_objective"], CLI_BUDGET, TOY_REWARD["weights"], TOY
        )

    # -- the run -----------------------------------------------------------

    def lap(self) -> None:
        """End a timed stretch of the round: one search, or the rest of it.

        The stretch's wall-clock time is divided by the host's slowness over
        it, the mean of the reference kernel's readings just before and just
        after it, to give its time in reference seconds. The first stretch
        starts when set-up ends and has only the reading after it, since the
        kernel must not count in set-up. The kernel's own time is in neither.
        """
        end = time.perf_counter()
        if self.setup_end is None:
            raise RuntimeError("the workload never reached a forward pass or an evaluation")
        wall = end - (self.setup_end if self.lap_start is None else self.lap_start)
        factor = self.host.factor()
        slowness = factor if self.last_factor is None else (self.last_factor + factor) / 2
        self.last_factor = factor
        self.round_wall += wall
        self.round_ref += wall / slowness
        self.lap_start = time.perf_counter()

    def run(self, seconds: float) -> dict:
        """Whole rounds, one search seed each, until ``seconds`` have passed
        since set-up ended and the seeds behind ``best_latency_cycles`` ran."""
        self.set_up()
        round_fn = {
            "core-resnet": self.core_round,
            "baselines-resnet": self.baselines_round,
            "cli-default-width": self.cli_round,
        }[self.workload]
        min_rounds = 1 if self.workload == "cli-default-width" else SEEDS_FOR_BEST
        rates, ref_rates, walls = [], [], []
        while True:
            before = self.attempted
            self.round_wall = self.round_ref = 0.0
            latency = round_fn(search_seed(self.seed, len(rates)))
            if len(rates) < min_rounds:
                self.best.append(latency)
            self.lap()
            designs = self.attempted - before
            walls.append(self.round_wall)
            rates.append(designs / self.round_wall)
            ref_rates.append(designs / self.round_ref)
            if len(rates) >= min_rounds and self.lap_start - self.setup_end >= seconds:
                break
        self.rates, self.ref_rates, self.walls = rates, ref_rates, walls
        if self.tracer:
            metrics = self.per_layer()
            self.tracer.write(self.run_dir / f"trace-seed{self.seed}.csv")
        else:
            metrics = {
                "designs_per_ref_s": statistics.median(ref_rates),
                "setup_s": self.setup_end - PROCESS_START,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "best_latency_cycles": statistics.median(self.best),
            }
        for name, value in metrics.items():
            if not math.isfinite(value):
                self.faults.append(f"metric {name} is {value}")
                metrics[name] = 0.0
        units = PER_LAYER_UNITS if self.tracer else END_TO_END_UNITS
        return {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}

    def per_layer(self) -> dict[str, float]:
        self_times = self.tracer.self_times()
        metrics = {}
        for name, (_, span, scale, per) in PER_LAYER_TIMES.items():
            total, calls = self_times.get(span, (0.0, 0))
            count = {
                "design": self.attempted,
                "episode": self_times.get("policy.forward", (0.0, 0))[1],
                "call": calls,
                "cli_run": self.cli_runs,
            }[per]
            metrics[name] = total * scale / count if count else 0.0
        metrics["search.feasible_share"] = self.feasible / self.attempted
        metrics["search.repeat_share"] = self.repeats / self.attempted
        return metrics


def _thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench = Bench(import_program(), args.workload, args.seed, bool(args.trace))
    metrics = bench.run(args.seconds)

    measured = sum(bench.walls)
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(bench.rates)} rounds, "
        f"{bench.attempted} designs attempted, {bench.failed} failed, {measured:.3f} s of rounds; "
        f"wall-clock designs/s {bench.attempted / measured:.2f} overall, by round median "
        f"{statistics.median(bench.rates):.2f}; {_thread_count()} threads in the process"
    )
    print("  round designs/s:     " + " ".join(f"{r:.2f}" for r in bench.rates))
    print("  host slowness:       " + " ".join(f"{r / q:.3f}" for r, q in zip(bench.ref_rates, bench.rates)))
    print("  round designs/ref-s: " + " ".join(f"{r:.2f}" for r in bench.ref_rates))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for fault in bench.faults:
        print(f"FAULT {fault}", file=sys.stderr)
    result = {
        "correct": not bench.faults,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
