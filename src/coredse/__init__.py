"""Constraint-aware one-step policy search for accelerator co-design."""

from .baselines import BaselineResult, ga_run, genome_to_raw, random_search
from .costmodel import (
    CLOUD,
    EDGE,
    CostConstants,
    Platform,
    area_mm2,
    layer_latency,
    make_evaluator,
    platform_by_name,
    simulate,
    tensor_volume,
    traffic_bytes,
)
from .design import (
    DIMS,
    CoDesignSpace,
    DesignConfig,
    Layer,
    LevelMapping,
    SpaceOptions,
    Workload,
    parse_workload,
    validate_config,
)
from .objective import (
    EvalOutcome,
    RewardConfig,
    Violation,
    advantages,
    penalty_reward,
    raw_objective,
    scalar_reward,
    surrogate_objective,
)
from .policy import (
    DistributionSet,
    PolicyParams,
    context_vector,
    entropy,
    forward_cached,
    init_params,
    kl,
    layout_for_space,
    load_params,
    sample,
    save_params,
)
from .problems import Problem, accelerator_problem, enumerate_designs, toy_line_problem
from .space import (
    Categorical,
    ParameterSpace,
    ParamSpec,
    Ranged,
    Select,
    SortKey,
    decode_order,
    decode_range,
    decode_scaled,
    decode_values,
    enumerate_values,
    space_cardinality,
)
from .trainer import (
    PolicyConfig,
    SearchLog,
    TrainConfig,
    TrainResult,
    entropy_coefficient,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
