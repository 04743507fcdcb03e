"""Online parameter estimators for linear regression equations.

Estimate a constant parameter vector theta from the measurable pair
(w(t), g(t)) with g = w(t)^T theta: classical gradient descent, a
modified-gain variant that steers the error onto a linear manifold, their
memory-extended (filtered) counterparts, and a determinant-mixing baseline,
plus excitation diagnostics and a scenario benchmark harness.
"""
from .catalog import BUILTIN_NAMES, builtin, builtin_problem, describe
from .errors import (
    ConfigurationError,
    DivergenceError,
    ParamestError,
    ScenarioNotFoundError,
    SignalEvalError,
    SignalParseError,
    UnsupportedDimensionError,
)
from .estimators import (
    drem_rhs,
    ge_closed_form_scalar,
    ge_rhs,
    manifold_residual,
    mge_gain,
    mge_mre_rhs,
    mge_rhs,
    mre_rhs,
    storage,
)
from .filters import FilterState, filter_rhs
from .harness import (
    EstimatorRun,
    OutputPaths,
    ScenarioConfig,
    ScenarioResult,
    export_csv,
    load_scenario,
    read_trajectory_csv,
    run_scenario,
    scenario_from_name,
)
from .signals import (
    ExcitationReport,
    RegressorSpec,
    SignalExpr,
    excitation_report,
    excitation_sweep,
    parse_expr,
    regressor_from_strings,
)
from .sim import SimSettings, convergence_time, rk4_step, simulate, simulate_all
from .svgplot import emit_plot
from .types import (
    EstimationProblem,
    EstimatorConfig,
    EstimatorState,
    Trajectory,
    Variant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
