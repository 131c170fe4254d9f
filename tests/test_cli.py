import csv
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from coredse.baselines import ga_run
from coredse.cli import Setup, load_config, main
from coredse.costmodel import CLOUD, CostConstants, simulate
from coredse.design import SpaceOptions
from coredse.policy import CHECKPOINT_MAGIC, load_params
from coredse.problems import enumerate_designs
from coredse.objective import RewardConfig, raw_objective
from coredse.trainer import PolicyConfig, TrainConfig


def write_setup(tmp_path, method="random", space=None, train=None, reward=None, extra=None):
    (tmp_path / "wl.txt").write_text("8 8 8 8 3 3\n")
    config = {
        "workload": "wl.txt",
        "platform": "cloud",
        "method": method,
        "space": space
        or {
            "n_pe": [2, 16, 2],
            "l1_bytes": [4096, 4096, 1],
            "l2_bytes": [8192, 8192, 1],
            "tile_dims": ["K"],
            "vary_level1": False,
            "include_order": False,
            "vary_parallel_dim": False,
        },
        "reward": reward or {"weights": [-1.0, -1.0], "alpha_c": 100.0},
        "policy": {"input_width": 8, "hidden_width": 16},
        "train": train
        or {"batch_size": 8, "max_episodes": 4, "sample_budget": 32, "learning_rate": 0.01, "seed": 0},
        **(extra or {}),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_history(out_dir):
    with open(out_dir / "history.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# ---------------------------------------------------------------------------
# defaults / config validation


def test_defaults_prints_complete_config(capsys):
    assert main(["defaults"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["method"] == "core"
    assert set(config) == {
        "workload",
        "platform",
        "method",
        "space",
        "cost",
        "reward",
        "policy",
        "train",
        "ga",
    }
    assert config["train"]["batch_size"] == 32
    assert config["reward"]["alpha_c"] == 1.0 and config["reward"]["r_ano"] == -1e9
    assert not {"alpha_r", "alpha_p"} & set(config["reward"])


def test_defaults_roundtrip_is_runnable(tmp_path, capsys):
    # the printed defaults, plus a real workload and a small budget, must load
    assert main(["defaults"]) == 0
    config = json.loads(capsys.readouterr().out)
    config["method"] = "random"
    config["train"].update({"sample_budget": 8, "batch_size": 4})
    (tmp_path / "workload.txt").write_text("4 4 4 4 1 1\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_workload_file(tmp_path, capsys):
    path = write_setup(tmp_path)
    (tmp_path / "wl.txt").unlink()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "workload file not found" in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path, capsys):
    path = write_setup(tmp_path, extra={"trainn": {}})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown key(s) trainn" in err


def test_unknown_section_key_names_the_section(tmp_path, capsys):
    for section, key, kw in (
        ("'reward'", "alpha_q", dict(reward={"weights": [-1.0, 0.0], "alpha_q": 1.0})),
        ("'space'", "bogus", dict(space={"n_pe": 8, "bogus": 1})),
        ("'ga'", "pop", dict(method="ga", extra={"ga": {"pop_size": 8, "pop": 8}})),
    ):
        path = write_setup(tmp_path, **kw)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and section in err and key in err


def test_a_value_its_class_refuses_names_the_section(tmp_path, capsys):
    for section, message, kw in (
        ("'train'", "batch_size must be >= 1", dict(train={"batch_size": 0})),
        ("'policy'", "policy widths must be positive", dict(extra={"policy": {"input_width": 0}})),
        ("'ga'", "invalid literal for int()", dict(method="ga", extra={"ga": {"pop_size": "many"}})),
    ):
        path = write_setup(tmp_path, **kw)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and section in err and message in err


def test_defaults_build_the_library_defaults(tmp_path, capsys):
    # Every section of the printed defaults, read back through JSON, builds
    # the object its class or ga_run would use without a config.
    assert main(["defaults"]) == 0
    (tmp_path / "workload.txt").write_text("4 4 4 4 1 1\n")
    path = tmp_path / "config.json"
    path.write_text(capsys.readouterr().out)
    setup = Setup(load_config(str(path)), tmp_path, None)
    assert setup.options == SpaceOptions()
    assert setup.consts == CostConstants()
    assert setup.reward == RewardConfig()
    assert setup.policy == PolicyConfig()
    assert setup.train_cfg == TrainConfig()
    ga_defaults = dict(
        pop_size=32, tournament_k=3, crossover_rate=0.9, mutation_rate=0.1, mutation_sigma=0.1, elitism=1
    )
    assert setup.ga == ga_defaults
    params = inspect.signature(ga_run).parameters
    assert all(params[k].default == v for k, v in ga_defaults.items())


def test_space_lists_become_tuples(tmp_path):
    path = write_setup(tmp_path, space={"n_pe": [2, 8, 2], "tile_dims": ["K", "C"], "vary_level1": False})
    setup = Setup(load_config(str(path)), tmp_path, None)
    assert setup.options == SpaceOptions(n_pe=(2, 8, 2), tile_dims=("K", "C"), vary_level1=False)


def test_ga_values_are_cast_to_the_defaults_types(tmp_path):
    typed = {"pop_size": 8, "tournament_k": 2, "mutation_rate": 0.25, "elitism": 2}
    loose = {"pop_size": "8", "tournament_k": 2.0, "mutation_rate": "0.25", "elitism": 2.0}
    # Integral values of int fields in other sections become ints too.
    typed_train = {"batch_size": 8, "max_episodes": 4, "sample_budget": 32, "learning_rate": 0.01, "seed": 0}
    loose_train = {"batch_size": 8.0, "max_episodes": "4", "sample_budget": 32, "learning_rate": 0.01, "seed": 0.0}
    runs = []
    for name, ga, train in (("typed", typed, typed_train), ("loose", loose, loose_train)):
        path = write_setup(tmp_path, method="ga", train=train, extra={"ga": ga})
        setup = Setup(load_config(str(path)), tmp_path, None)
        assert {k: (v, type(v)) for k, v in setup.ga.items() if k in typed} == {
            k: (v, type(v)) for k, v in typed.items()
        }
        assert {k: (v, type(v)) for k, v in vars(setup.train_cfg).items() if k in typed_train} == {
            k: (v, type(v)) for k, v in typed_train.items()
        }
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        runs.append((tmp_path / name / "history.csv").read_bytes())
    assert runs[0] == runs[1]


def test_removed_knobs_are_unknown_keys(tmp_path, capsys):
    train = {"batch_size": 8, "max_episodes": 4, "sample_budget": 32, "learning_rate": 0.01, "workers": 2}
    for section, key, kw in (
        ("'reward'", "beta_r", dict(reward={"weights": [-1.0, 0.0], "beta_r": 1.0})),
        ("'train'", "workers", dict(train=train)),
        ("'top level'", "random", dict(extra={"random": {"chunk": 32}})),
    ):
        path = write_setup(tmp_path, method="core", **kw)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert section in err and key in err
    with pytest.raises(SystemExit):
        main(["run", "--config", str(path), "--workers", "2"])


def test_a_fixed_parallel_dim_that_is_no_dim_is_a_config_error(tmp_path, capsys):
    space = {"n_pe": [2, 16, 2], "tile_dims": ["K"], "vary_parallel_dim": False, "fixed_parallel_dim": "k"}
    path = write_setup(tmp_path, space=space)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fixed_parallel_dim 'k'" in err


def test_fixed_parallelism_out_of_range_is_a_config_error(tmp_path, capsys):
    space = {"n_pe": [2, 16, 2], "tile_dims": ["K"], "include_parallel": False, "fixed_parallelism": 0}
    path = write_setup(tmp_path, space=space)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fixed_parallelism 0" in err


@pytest.mark.parametrize(
    "section, message, kw",
    [
        ("'space'", "tile_step must be >= 1, got 0", dict(space={"n_pe": [2, 16, 2], "tile_step": 0})),
        ("'space'", "n_pe: step must be >= 1, got 0", dict(space={"n_pe": [2, 8, 0]})),
        ("'cost'", "area constants must be finite", dict(extra={"cost": {"area_per_pe_mm2": float("nan")}})),
        ("'reward'", "weights must be finite, got (nan, 0.0)", dict(reward={"weights": [float("nan"), 0.0]})),
        ("'reward'", "alpha_c must be finite, got nan", dict(reward={"weights": [-1.0, 0.0], "alpha_c": float("nan")})),
        (
            "'reward'",
            "beta_e_start must be finite, got nan",
            dict(reward={"weights": [-1.0, 0.0], "beta_e_start": float("nan")}),
        ),
        ("'reward'", "r_ano must be finite, got -inf", dict(reward={"weights": [-1.0, 0.0], "r_ano": float("-inf")})),
        ("'train'", "learning_rate must be positive and finite, got nan", dict(train={"learning_rate": float("nan")})),
        ("'train'", "target_objective must be finite, got inf", dict(train={"target_objective": float("inf")})),
    ],
)
def test_zero_steps_and_non_finite_numbers_are_config_errors(tmp_path, capsys, section, message, kw):
    # json reads NaN and Infinity; before they were refused, these runs crashed or ended in NaN.
    for method in ("core", "random"):
        path = write_setup(tmp_path, method=method, **kw)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: config section {section}: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, message, kw",
    [
        ("'train'", "batch_size must be an integer, got 2.5", dict(train={"batch_size": 2.5})),
        ("'train'", "sample_budget must be an integer, got 64.5", dict(train={"sample_budget": 64.5})),
        ("'train'", "max_episodes must be an integer, got 3.5", dict(train={"max_episodes": 3.5})),
        ("'train'", "seed must be a number, got True", dict(train={"seed": True})),
        ("'policy'", "input_width must be an integer, got 8.5", dict(extra={"policy": {"input_width": 8.5}})),
        ("'ga'", "pop_size must be an integer, got 8.7", dict(extra={"ga": {"pop_size": 8.7}})),
        ("'reward'", "shaping must be true or false, got 'no'", dict(reward={"weights": [-1.0, 0.0], "shaping": "no"})),
        ("'space'", "vary_level1 must be true or false, got 'false'", dict(space={"n_pe": 8, "vary_level1": "false"})),
    ],
)
def test_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, section, message, kw):
    # Before, some of these ran (a float budget, a string as a true bool, 8.7 as 8 GA members)
    # and others ended in an error that named no section, depending on the method.
    for method in ("core", "ga", "random"):
        path = write_setup(tmp_path, method=method, **kw)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: config section {section}: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "space, message",
    [
        ({"n_pe": [2, 16.5, 2]}, "n_pe must be an integer or [low, up, step] of integers, got (2, 16.5, 2)"),
        ({"n_pe": True}, "n_pe must be an integer or [low, up, step] of integers, got True"),
        ({"n_pe": 1}, "n_pe pinned at 1, outside even 2..1024, so no design is valid"),
        ({"l1_bytes": 0}, "l1_bytes pinned at 0, outside 1..4294967296, so no design is valid"),
        ({"l2_bytes": [0, 0, 1]}, "l2_bytes pinned at 0, outside 1..4294967296, so no design is valid"),
    ],
)
def test_space_grids_the_type_check_cannot_see_are_config_errors(tmp_path, capsys, space, message):
    # The grids' defaults are tuples, so `_typed` passes them through. Before,
    # [2, 16.5, 2] ran as (2, 16, 2), and true, 1 or 0 pinned a value that made
    # every design invalid, with exit 0.
    for method in ("core", "random"):
        path = write_setup(tmp_path, method=method, space={"tile_dims": ["K"], **space})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: config section 'space': {message}\n"
        assert not (tmp_path / "out").exists()


def test_space_grids_cast_integral_floats(tmp_path):
    space = {"n_pe": [2.0, 16, 2.0], "l1_bytes": 4096.0, "l2_bytes": [8192, 8192.0, 1], "tile_dims": ["K"]}
    path = write_setup(tmp_path, space={**space, "vary_level1": False, "include_order": False})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert read_summary(tmp_path / "out")["best_design"]["l1_bytes"] == 4096


def test_unknown_method(tmp_path, capsys):
    path = write_setup(tmp_path, method="anneal")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "anneal" in err and "core" in err


# ---------------------------------------------------------------------------
# run


def test_random_run_outputs(tmp_path, capsys):
    path = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("random: budget_exhausted, 32 samples")

    rows = read_history(out)
    assert len(rows) == 32
    assert list(rows[0]) == [
        "episode",
        "sample_index",
        "reward",
        "valid",
        "violation_sum",
        "best_reward",
    ]
    summary = read_summary(out)
    assert summary["method"] == "random"
    assert summary["samples_used"] == 32 and summary["seed"] == 0
    assert summary["best_design"]["n_pe"] >= 2


def test_summary_is_recomputable_from_history(tmp_path):
    path = write_setup(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out)])
    rows = read_history(out)
    feasible = [
        -float(r["reward"])
        for r in rows
        if r["valid"] == "1" and float(r["violation_sum"]) == 0.0
    ]
    summary = read_summary(out)
    assert summary["best_objective"] == min(feasible)


def test_rerun_is_byte_identical(tmp_path):
    path = write_setup(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(path), "--out", str(out1)])
    main(["run", "--config", str(path), "--out", str(out2)])
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    path = write_setup(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out), "--seed", "5"])
    summary = read_summary(out)
    assert summary["seed"] == 5


def test_core_run_writes_policy_checkpoint(tmp_path):
    path = write_setup(tmp_path, method="core")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    blob = (out / "policy.bin").read_bytes()
    assert blob.startswith(CHECKPOINT_MAGIC)
    params = load_params(out / "policy.bin")
    assert params.weights[0].shape[1] == 8  # input width from the config
    assert len(read_history(out)) == 32


def test_ablation_methods_set_up_their_ablations(tmp_path):
    # core-no-shaping: every valid design that breaks a constraint scores the flat penalty.
    path = write_setup(tmp_path, method="core-no-shaping", space={"n_pe": [2, 64, 2], "l1_bytes": 64, "l2_bytes": 512})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert read_summary(tmp_path / "out")["method"] == "core-no-shaping"
    violating = [r for r in read_history(tmp_path / "out") if r["valid"] == "1" and float(r["violation_sum"]) > 0]
    assert violating and {float(r["reward"]) for r in violating} == {RewardConfig().no_shaping_penalty}
    # core-no-scaling: the problem decodes on the declared bounds.
    problem = Setup(load_config(str(write_setup(tmp_path, method="core-no-scaling"))), tmp_path, None).problem()
    raws = np.random.default_rng([0]).random((64, problem.n_raw))
    designs = [problem.decode(r) for r in raws]
    assert designs == [problem.codesign.decode(r, use_scaling=False) for r in raws]
    assert designs != [problem.codesign.decode(r) for r in raws]


def test_ga_run_derives_generations_from_budget(tmp_path):
    path = write_setup(tmp_path, method="ga", extra={"ga": {"pop_size": 8}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    rows = read_history(out)
    # budget 32 at pop 8: initial scoring + 3 generations
    assert len(rows) == 32
    assert {r["episode"] for r in rows} == {"0", "1", "2", "3"}


def test_ga_run_rejects_budget_below_one_population(tmp_path, capsys):
    path = write_setup(
        tmp_path,
        method="ga",
        train={"batch_size": 4, "sample_budget": 8, "max_episodes": 4},
        extra={"ga": {"pop_size": 16}},
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "below one population" in capsys.readouterr().err


@pytest.mark.parametrize("pop_size", [0, -5])
def test_ga_pop_size_below_two_is_a_config_error(tmp_path, capsys, pop_size):
    path = write_setup(tmp_path, method="ga", extra={"ga": {"pop_size": pop_size}})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: config section 'ga': pop_size must be >= 2\n"


@pytest.mark.parametrize(
    "ga, message",
    [
        ({"elitism": 40}, "elitism must be in 0..pop_size-1 (31), got 40"),
        ({"pop_size": 8, "elitism": 8}, "elitism must be in 0..pop_size-1 (7), got 8"),
        ({"tournament_k": 0}, "tournament_k must be >= 1"),
        ({"mutation_sigma": -0.5}, "mutation_sigma must be >= 0"),
    ],
)
def test_ga_arguments_it_cannot_breed_with_are_config_errors(tmp_path, capsys, ga, message):
    train = {"batch_size": 8, "max_episodes": 4, "sample_budget": 1024}
    path = write_setup(tmp_path, method="ga", train=train, extra={"ga": ga})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: config section 'ga': {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_hand_analyzed_two_designs(tmp_path, capsys):
    # everything pinned except n_pe in {2, 4}; latency is 36864 MACs at
    # speedup 1 for both, so the smaller array wins on area:
    #   n_pe=2: area 0.017184 mm^2 -> objective 36864 + 17184 = 54048
    #   n_pe=4: area 0.026176 mm^2 -> objective 36864 + 26176 = 63040
    path = write_setup(
        tmp_path,
        space={
            "n_pe": [2, 4, 2],
            "l1_bytes": [4096, 4096, 1],
            "l2_bytes": [8192, 8192, 1],
            "tile_dims": [],
            "include_order": False,
            "include_parallel": False,
        },
    )
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
    assert "oracle: 2 designs" in capsys.readouterr().out

    summary = read_summary(out)
    assert summary["count"] == 2
    assert summary["best_objective"] == 54048.0
    assert summary["best_design"]["n_pe"] == 2

    with open(out / "oracle.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert sorted(float(r["objective"]) for r in rows) == [54048.0, 63040.0]
    assert all(r["feasible"] == "1" for r in rows)


def test_oracle_agrees_with_library_enumeration(tmp_path):
    path = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
    summary = read_summary(out)

    setup = Setup(load_config(str(path)), tmp_path, None)
    problem = setup.problem()
    best = None
    count = 0
    for design, outcome in enumerate_designs(problem):
        count += 1
        if outcome.feasible:
            obj = raw_objective(outcome, setup.reward.weights)
            best = obj if best is None else min(best, obj)
    assert summary["count"] == count == problem.cardinality()
    assert summary["best_objective"] == best

    with open(out / "oracle.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == count


def test_oracle_refuses_oversized_space(tmp_path, capsys):
    path = write_setup(tmp_path)
    assert main(["oracle", "--config", str(path), "--out", str(tmp_path / "out"), "--limit", "3"]) == 2
    assert "enumeration limit of 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report


def test_report_table_and_curves(tmp_path, capsys):
    path = write_setup(tmp_path)
    main(["run", "--config", str(path), "--out", str(tmp_path / "rand")])
    capsys.readouterr()

    curves = tmp_path / "curves.csv"
    assert main(["report", str(tmp_path / "rand"), "--out", str(curves)]) == 0
    out = capsys.readouterr().out
    assert "rand" in out and "random" in out and "best_objective" in out

    with open(curves, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "samples", "best_objective"]
    bests = [float(r[2]) for r in rows[1:]]
    assert bests == sorted(bests, reverse=True)  # best-so-far only improves
    summary = read_summary(tmp_path / "rand")
    assert bests[-1] == summary["best_objective"]


def test_report_missing_summary(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["report", str(tmp_path / "empty")]) == 2
    assert "no summary.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console entry point


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coredse.cli", "defaults"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["method"] == "core"
