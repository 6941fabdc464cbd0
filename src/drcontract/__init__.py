"""Distributionally robust contract menus for edge offloading under quality
uncertainty: utility models, ambiguity machinery, the block-coordinate
solver (robust, sample-average and worst-case), and the benchmark harness."""

from .ambiguity import (
    AmbiguityConfig,
    QualitySampleSet,
    SupportInterval,
    inject_extreme_points,
    radius,
    read_samples_csv,
    shift_samples,
    wasserstein_1d,
    write_samples_csv,
)
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
    solve_pinned,
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
    check_feasibility,
    read_menu_csv,
    read_profile_csv,
    rewards_from_latencies,
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
    candidate_points,
    g_of_L,
    inner_minima,
    weighted_log,
)
from .seeding import rng_for

__version__ = "0.1.0"
