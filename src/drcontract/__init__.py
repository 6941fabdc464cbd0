"""Distributionally robust contract menus for edge offloading under quality
uncertainty: utility models, ambiguity machinery, the block-coordinate
solver, baselines, and the benchmark harness."""

from .ambiguity import (
    AmbiguityConfig,
    EmpiricalDistribution,
    QualitySampleSet,
    SupportInterval,
    empirical_distribution,
    inject_extreme_points,
    radius,
    read_samples_csv,
    shift_samples,
    wasserstein_1d,
    write_samples_csv,
)
from .baselines import BaselineKind, solve_ro, solve_sp
from .bcd import (
    BcdConfig,
    BcdState,
    SolveReport,
    bcd_step,
    grad_L,
    grad_lambda,
    iron_monotone,
    objective,
    solve,
    write_trace_csv,
)
from .config import (
    RunConfig,
    generate_alphas,
    generate_quality_samples,
    load_config,
)
from .contracts import (
    AspTypeProfile,
    ContractMenu,
    FeasibilityReport,
    UtilityParams,
    asp_utility,
    check_feasibility,
    expected_teleop_utility,
    read_menu_csv,
    read_profile_csv,
    rewards_from_latencies,
    teleop_utility,
    write_menu_csv,
    write_profile_csv,
)
from .errors import (
    ContractSolverError,
    CountExceedsN,
    DataError,
    EmptySampleSet,
    GridTooLarge,
    InvalidConfidence,
    NonMonotoneLatencies,
    NonPositiveDenominator,
    NonPositiveLogArgument,
    NumericError,
    ParseError,
    SizeMismatch,
    ValidationError,
)
from .evaluation import (
    EvaluationScenario,
    MetricsTable,
    eval_asp_utilities,
    eval_teleop_utility,
    oracle_menu_search,
    run_benchmark,
    train_method,
    write_asp_csv,
    write_metrics_csv,
)
from .inner import (
    InnerSolution,
    f_n,
    g_of_L,
    inner_minima,
    s_value,
    solve_inner,
    weighted_log,
)
from .seeding import rng_for

__version__ = "0.1.0"
