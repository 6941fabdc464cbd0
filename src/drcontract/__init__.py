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
    SolveReport,
    grad_lambda,
    iron_monotone,
    objectives,
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
    UtilityParams,
    check_feasibility,
    eval_asp_utilities,
    expected_reward,
    read_menu_csv,
    read_profile_csv,
    rewards_from_latencies,
    write_menu_csv,
    write_profile_csv,
)
from .errors import (
    ContractSolverError,
    DataError,
    NonPositiveLogArgument,
    NumericError,
    ParseError,
    ValidationError,
)
from .evaluation import (
    eval_teleop_utility,
    oracle_menu_search,
    run_benchmark,
    train_method,
    write_asp_csv,
    write_metrics_csv,
)
from .inner import (
    InnerCandidates,
    inner_candidates,
    inner_minima,
    weighted_log,
)
from .seeding import rng_for

__version__ = "0.1.0"
