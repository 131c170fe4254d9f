"""Command line front end.

Verbs:
    run       search a workload's co-design space with one method
    oracle    exhaustively score a small space and dump the full table
    report    summarize finished run directories side by side
    defaults  print a complete default config as JSON

All knobs live in a JSON config file (see ``defaults``); the only
command line override is --seed. Outputs are plain CSV/JSON with no
timestamps, so rerunning a command reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

from .baselines import check_ga_args, ga_run, random_search
from .costmodel import CostConstants, platform_by_name
from .design import SpaceOptions, parse_workload
from .objective import RewardConfig, raw_objective
from .policy import save_params
from .problems import accelerator_problem, enumerate_designs
from .trainer import PolicyConfig, TrainConfig, train

METHODS = ("core", "core-no-shaping", "core-no-scaling", "ga", "random")

HISTORY_COLUMNS = (
    "episode",
    "sample_index",
    "reward",
    "valid",
    "violation_sum",
    "best_reward",
)

# Config section -> the class it builds: the section's keys are the class's
# fields, and its defaults are those of cls().
SECTIONS = {"space": SpaceOptions, "cost": CostConstants, "reward": RewardConfig, "policy": PolicyConfig}
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name not in SECTIONS)
# ga_run's keyword arguments, less those cmd_run takes from the problem, the
# reward section and the train section.
GA_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(ga_run).parameters.items()
    if name not in ("problem", "cfg", "generations", "seed")
}


class CliError(Exception):
    pass


def default_config() -> dict:
    t = TrainConfig()
    return {
        "workload": "workload.txt",
        "platform": "edge",
        "method": "core",
        **{name: asdict(cls()) for name, cls in SECTIONS.items()},
        "train": {k: getattr(t, k) for k in _TRAIN_KEYS},
        "ga": dict(GA_DEFAULTS),
    }


def _section(name: str, part, build, keys):
    """``build(**part)``, after refusing a non-object ``part`` and keys outside
    ``keys``. JSON lists become tuples, and a ValueError or TypeError from
    ``build`` becomes a CliError that names the section."""
    if not isinstance(part, dict):
        raise CliError(f"config section {name!r} must be an object")
    unknown = sorted(set(part) - set(keys))
    if unknown:
        raise CliError(f"config section {name!r}: unknown key(s) {', '.join(unknown)}")
    try:
        return build(**{k: tuple(v) if isinstance(v, list) else v for k, v in part.items()})
    except (ValueError, TypeError) as exc:
        raise CliError(f"config section {name!r}: {exc}") from None


def _ga_kwargs(**values) -> dict:
    """GA_DEFAULTS overridden by ``values``, each cast to its default's type,
    after `ga_run`'s own argument check."""
    kwargs = {k: type(d)(values.get(k, d)) for k, d in GA_DEFAULTS.items()}
    check_ga_args(**kwargs)
    return kwargs


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError("config root must be a JSON object")
    return _section("top level", data, dict, default_config())


class Setup:
    """Config resolved into constructed objects, ready for dispatch."""

    def __init__(self, config: dict, config_dir: Path, seed: int | None):
        self.method = config.get("method", "core")
        if self.method not in METHODS:
            raise CliError(f"unknown method {self.method!r}; expected one of {', '.join(METHODS)}")

        wl = config.get("workload")
        if not wl:
            raise CliError("config is missing 'workload' (path to a layer table)")
        wl_path = Path(wl)
        if not wl_path.is_absolute():
            wl_path = config_dir / wl_path
        if not wl_path.exists():
            raise CliError(f"workload file not found: {wl_path}")
        self.workload = parse_workload(wl_path)

        self.platform = platform_by_name(config.get("platform", "edge"))
        built = {
            name: _section(name, config.get(name, {}), cls, [f.name for f in fields(cls)])
            for name, cls in SECTIONS.items()
        }
        self.options, self.consts, self.policy = built["space"], built["cost"], built["policy"]
        self.reward = built["reward"]
        if self.method == "core-no-shaping":
            self.reward = replace(self.reward, shaping=False)

        train = partial(TrainConfig, reward=self.reward, policy=self.policy)
        self.train_cfg = _section("train", config.get("train", {}), train, _TRAIN_KEYS)
        if seed is not None:
            self.train_cfg = replace(self.train_cfg, seed=seed)
        self.ga = _section("ga", config.get("ga", {}), _ga_kwargs, GA_DEFAULTS)

    def problem(self):
        return accelerator_problem(
            self.workload,
            self.platform,
            self.options,
            self.consts,
            use_scaling=self.method != "core-no-scaling",
        )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_history(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in HISTORY_COLUMNS])


def _objective_log10(obj: float | None):
    if obj is None or obj <= 0:
        return None
    return math.log10(obj)


def _best_payload(result) -> dict:
    best_obj = result.best_feasible.objective if result.best_feasible else None
    return {
        "best_reward": result.best.reward if result.best else None,
        "best_objective": best_obj,
        "best_objective_log10": _objective_log10(best_obj),
        "best_episode": result.best_feasible.episode if result.best_feasible else None,
    }


def cmd_run(args) -> int:
    config = load_config(args.config)
    setup = Setup(config, Path(args.config).resolve().parent, args.seed)
    problem = setup.problem()
    tcfg = setup.train_cfg
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if setup.method.startswith("core"):
        result = train(problem, tcfg)
        save_params(result.params, out / "policy.bin")
    elif setup.method == "ga":
        pop = setup.ga["pop_size"]
        generations = tcfg.sample_budget // pop - 1
        if generations < 0:
            raise CliError(f"sample_budget {tcfg.sample_budget} below one population of {pop}")
        result = ga_run(problem, setup.reward, generations=generations, seed=tcfg.seed, **setup.ga)
    else:
        result = random_search(problem, setup.reward, budget=tcfg.sample_budget, seed=tcfg.seed)

    _write_history(out / "history.csv", result.history_rows())
    summary = {
        "method": setup.method,
        "status": result.status,
        "samples_used": result.samples_used,
        "seed": tcfg.seed,
        **_best_payload(result),
        "best_design": problem.describe(result.best_feasible.design) if result.best_feasible else None,
    }
    _write_json(out / "summary.json", summary)
    obj = summary["best_objective"]
    print(
        f"{setup.method}: {result.status}, {result.samples_used} samples, "
        f"best objective {obj if obj is not None else 'none (no feasible design)'}"
    )
    return 0


def cmd_oracle(args) -> int:
    config = load_config(args.config)
    setup = Setup(config, Path(args.config).resolve().parent, args.seed)
    problem = setup.problem()

    count = problem.cardinality(limit=args.limit)
    if count is None:
        raise CliError(
            f"design space exceeds the enumeration limit of {args.limit}; "
            "shrink the space or raise --limit"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    best_obj = None
    best_design = None
    with open(out / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "latency", "area_um2", "feasible", "violation_sum", "objective", "config"])
        for i, (design, outcome) in enumerate(enumerate_designs(problem)):
            if outcome.anomalous:
                writer.writerow([i, "", "", 0, "", "", json.dumps(problem.describe(design), sort_keys=True)])
                continue
            obj = raw_objective(outcome, setup.reward.weights)
            if outcome.feasible and (best_obj is None or obj < best_obj):
                best_obj = obj
                best_design = design
            writer.writerow(
                [
                    i,
                    _fmt(outcome.metrics[0]),
                    _fmt(outcome.metrics[1]),
                    int(outcome.feasible),
                    _fmt(outcome.violation_sum()),
                    _fmt(obj),
                    json.dumps(problem.describe(design), sort_keys=True),
                ]
            )

    summary = {
        "method": "oracle",
        "count": count,
        "best_objective": best_obj,
        "best_objective_log10": _objective_log10(best_obj),
        "best_design": problem.describe(best_design) if best_design is not None else None,
    }
    _write_json(out / "summary.json", summary)
    print(f"oracle: {count} designs, best objective {best_obj if best_obj is not None else 'none'}")
    return 0


def _best_curve(history_path: Path):
    """(samples, best objective so far) from feasible rows; reward negates to objective."""
    curve = []
    best = None
    with open(history_path, newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            if int(row["valid"]) and float(row["violation_sum"]) == 0.0:
                obj = -float(row["reward"])
                if best is None or obj < best:
                    best = obj
                    curve.append((i + 1, best))
    return curve


def cmd_report(args) -> int:
    rows = []
    curves = {}
    for d in args.runs:
        run = Path(d)
        summary_path = run / "summary.json"
        if not summary_path.exists():
            raise CliError(f"no summary.json in {run}")
        with open(summary_path) as fh:
            s = json.load(fh)
        rows.append(
            (
                run.name,
                s.get("method", "?"),
                s.get("status", s.get("count", "?")),
                s.get("samples_used", ""),
                s.get("best_objective"),
                s.get("best_objective_log10"),
            )
        )
        history = run / "history.csv"
        if history.exists():
            curves[run.name] = _best_curve(history)

    header = ("run", "method", "status", "samples", "best_objective", "log10")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["run", "samples", "best_objective"])
            for name, curve in sorted(curves.items()):
                for samples, best in curve:
                    writer.writerow([name, samples, _fmt(best)])
        print(f"curves written to {out}")
    return 0


def cmd_defaults(args) -> int:
    print(json.dumps(default_config(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="core-dse", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="search a co-design space with one method")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default="out", help="output directory")
    run.set_defaults(fn=cmd_run)

    oracle = sub.add_parser("oracle", help="exhaustively score a small space")
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--seed", type=int, default=None)
    oracle.add_argument("--out", default="out")
    oracle.add_argument("--limit", type=int, default=100000, help="refuse spaces larger than this")
    oracle.set_defaults(fn=cmd_oracle)

    report = sub.add_parser("report", help="summarize finished run directories")
    report.add_argument("runs", nargs="+", help="run directories with summary.json")
    report.add_argument("--out", default=None, help="write best-so-far curves to this CSV")
    report.set_defaults(fn=cmd_report)

    defaults = sub.add_parser("defaults", help="print the default config")
    defaults.set_defaults(fn=cmd_defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
