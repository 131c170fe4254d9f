"""Problem bundles: a parameter space plus decode and evaluate callables.

The trainer and the baseline searchers only ever see this interface, so
swapping the accelerator model for a toy function needs no changes on
their side. A problem may also carry an array path that decodes and
evaluates a whole raw matrix at once (`CoDesignSpace.batch_decoder` and
`make_batch_evaluator`, the batch twins of the space's generic graph
decode and of the cost model) into an `OutcomeBatch`: metrics and
constraint residuals as arrays, with the designs kept as a `DesignBatch`
and a `DesignConfig` built only for a row that is asked for (a best design,
say). The array path prices a whole batch or declines it: where any row
fails to decode or breaks a structural rule, it gives None and the whole
batch goes through `decode` and `evaluate` one design at a time, which
stay its reference and name what is wrong. On the shipped spaces the
scaling decode never gives such a row, so there only the unscaled
ablation declines batches. The array path is tied to the `decode` and
`evaluate` it reproduces: a copy of the problem with either replaced (a
wrapper, a cache, another model) has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .costmodel import CostConstants, Platform, make_batch_evaluator, make_evaluator
from .design import CoDesignSpace, DesignConfig, SpaceOptions, Workload, valid_rows
from .objective import EvalOutcome, OutcomeBatch
from .space import ConfigurationError, ParameterSpace, decode_values, space_cardinality

RawsRun = Callable[[np.ndarray], "OutcomeBatch | None"]


@dataclass(frozen=True)
class ArrayPath:
    """A whole-batch decode-then-evaluate and the two callables it reproduces.

    run: (B, n) raw matrix -> the batch's outcomes, row for row what
        evaluate(decode(raw)) gives, or None where the scalar path must
        take the batch.
    """

    decode: Callable[[Sequence[float]], Any]
    evaluate: Callable[[Any], EvalOutcome]
    run: RawsRun


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
    def evaluate_raws(self) -> RawsRun | None:
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

    run = _raws_evaluator(codesign, use_scaling, make_batch_evaluator(workload, platform, consts))
    path = None if run is None else ArrayPath(decode, evaluate, run)
    return Problem(name, codesign.space, decode, evaluate, describe, codesign=codesign, array_path=path)


def _raws_evaluator(codesign: CoDesignSpace, use_scaling: bool, price) -> RawsRun | None:
    """accelerator_problem's array path, or None where it could not match decode-then-evaluate.

    It declines a batch (gives None) where a row fails to decode or fails
    `valid_rows`; the scalar path then gives each row's exact note.
    """
    if price is None:
        return None
    try:
        decode_batch = codesign.batch_decoder(use_scaling)
    except ConfigurationError:  # a bound beyond the exact int64 range
        return None

    def evaluate_raws(raws: np.ndarray) -> OutcomeBatch | None:
        batch, decoded = decode_batch(raws)
        if not decoded.all() or not valid_rows(batch, codesign.workload).all():
            return None
        return price(batch)

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
