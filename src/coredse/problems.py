"""Problem bundles: a parameter space plus decode and evaluate callables.

The trainer and the baseline searchers only ever see this interface, so
swapping the accelerator model for a toy function needs no changes on
their side. A problem may also carry an array path that decodes and
evaluates a whole raw matrix at once; `decode` and `evaluate` stay its
reference, and the path for every row it refuses. The array path is tied
to the `decode` and `evaluate` it reproduces: a copy of the problem with
either replaced (a wrapper, a cache, another model) has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .costmodel import CostConstants, Platform, make_batch_evaluator, make_evaluator
from .design import CoDesignSpace, DesignConfig, SpaceOptions, Workload
from .objective import EvalOutcome
from .space import ConfigurationError, ParameterSpace, decode_values, space_cardinality


@dataclass(frozen=True)
class ArrayPath:
    """A whole-batch decode-then-evaluate and the two callables it reproduces.

    run: (B, n) raw matrix -> per row (design, outcome) equal to
        evaluate(decode(raw))'s, or None for a row it refuses
    """

    decode: Callable[[Sequence[float]], Any]
    evaluate: Callable[[Any], EvalOutcome]
    run: Callable[[np.ndarray], list[tuple[Any, EvalOutcome] | None]]


@dataclass(frozen=True)
class Problem:
    """A searchable design problem.

    decode: raw vector in [0,1)^n -> design object
    evaluate: design object -> EvalOutcome
    array_path: optional batch form of decode-then-evaluate (see `evaluate_raws`)
    """

    name: str
    space: ParameterSpace
    decode: Callable[[Sequence[float]], Any]
    evaluate: Callable[[Any], EvalOutcome]
    describe: Callable[[Any], dict] = field(default=lambda d: {"design": repr(d)})
    codesign: CoDesignSpace | None = None
    array_path: ArrayPath | None = None

    @property
    def n_raw(self) -> int:
        return len(self.space.params)

    @property
    def evaluate_raws(self) -> Callable[[np.ndarray], list[tuple[Any, EvalOutcome] | None]] | None:
        """The array path's run, while decode and evaluate are the callables it reproduces."""
        path = self.array_path
        if path is None or path.decode is not self.decode or path.evaluate is not self.evaluate:
            return None
        return path.run

    def cardinality(self, limit: int | None = None) -> int | None:
        return space_cardinality(self.space, limit=limit)


def accelerator_problem(
    workload: Workload,
    platform: Platform,
    options: SpaceOptions = SpaceOptions(),
    consts: CostConstants = CostConstants(),
    use_scaling: bool = True,
    name: str = "accelerator",
) -> Problem:
    """Hardware/mapping co-design over a fixed workload.

    With use_scaling=False raw values decode against declared bounds only,
    so cross-parameter consistency is left to the evaluator's validator.
    """
    codesign = CoDesignSpace(workload, options)
    evaluate = make_evaluator(workload, platform, consts)

    def decode(raw: Sequence[float]) -> DesignConfig:
        return codesign.decode(raw, use_scaling=use_scaling)

    def describe(config: DesignConfig) -> dict:
        return config.to_dict()

    run = _raws_evaluator(codesign, use_scaling, make_batch_evaluator(workload, platform, consts), evaluate)
    path = None if run is None else ArrayPath(decode, evaluate, run)
    return Problem(name, codesign.space, decode, evaluate, describe, codesign=codesign, array_path=path)


def evaluate_caught(evaluate: Callable[[Any], EvalOutcome], design) -> EvalOutcome:
    """evaluate(design), with an error caught into an anomalous outcome."""
    try:
        return evaluate(design)
    except Exception as exc:
        return EvalOutcome.failed(f"evaluate: {exc}")


def _raws_evaluator(codesign: CoDesignSpace, use_scaling: bool, price, evaluate):
    """accelerator_problem's array path, or None where it could not match decode-then-evaluate.

    A row is refused where decode raises; the scalar path then gives its
    exact note. A decoded design that breaks a structural rule goes to the
    scalar evaluate, which names the rule.
    """
    if price is None:
        return None
    try:
        decode_batch = codesign.batch_decoder(use_scaling)
    except ConfigurationError:  # a bound beyond the exact int64 range
        return None

    def evaluate_raws(raws: np.ndarray) -> list[tuple[DesignConfig, EvalOutcome] | None]:
        batch, decoded = decode_batch(raws)
        outcomes = price(batch, decoded)
        rows = np.flatnonzero(decoded)
        results: list[tuple[DesignConfig, EvalOutcome] | None] = [None] * len(raws)
        for i, design in zip(rows.tolist(), batch.take(rows).configs()):
            outcome = outcomes[i]
            results[i] = (design, outcome if outcome is not None else evaluate_caught(evaluate, design))
        return results

    return evaluate_raws


def enumerate_designs(problem: Problem) -> Iterator[tuple[Any, EvalOutcome]]:
    """Walk every design in a finite space. Caller should gate on cardinality()."""
    if problem.codesign is None:
        raise ValueError(f"problem {problem.name!r} does not support enumeration")
    for config in problem.codesign.enumerate_configs():
        yield config, problem.evaluate(config)


def toy_line_problem(target: int = 7, low: int = 0, up: int = 15) -> Problem:
    """One integer on a line; metric is distance to ``target``.

    Smallest end-to-end training testbed: a single Beta head must learn
    to place its mass on one bucket of the decoded range.
    """
    from .space import ParamSpec, Ranged

    space = ParameterSpace((ParamSpec("v", Ranged(low, up)),))

    def decode(raw: Sequence[float]) -> int:
        return decode_values(space, np.asarray(raw, dtype=float))["v"]

    def evaluate(v: int) -> EvalOutcome:
        return EvalOutcome.ok((float(abs(v - target)),), [])

    return Problem("toy-line", space, decode, evaluate, lambda v: {"v": v})
