"""Controlled random walk with a stand-still option and a target at the origin.

Simulator, strategy library, exact finite-horizon solver, and verification
suites for steering a lattice walk (d = 1, 2) to end at the origin when the
only control is standing still for at most m - 1 consecutive steps.
"""

from .errors import AdmissibilityError, BudgetError, ScheduleError, SignatureError
from .walk import Decision, Problem, Trajectory, run_trajectory, validate_trajectory
from .schedule import (Schedule, ScheduleParams1D, ScheduleParams2D,
                       build_schedule_1d, build_schedule_2d, choose_theta_kappa,
                       stage_count, validate_regime)
from .strategies import (Strategy, always_step, delayed_wrapper, lazy_max,
                         lazy_then_sprint, strategy_from_spec, windowed_1d,
                         windowed_2d)
from .exact import (ValueTable, brute_force_value, evaluate_strategy_exact,
                    expected_local_time, optimal_value, return_probabilities_2d,
                    ssrw_return_probability)
from .mc import (EstimateReport, McConfig, estimate_success, sweep,
                 wilson_interval, window_conditionals)
from .analysis import (check_hoeffding, check_local_time_ratio,
                       check_normal_approx, check_reflection, fit_scaling)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "BudgetError", "ScheduleError", "SignatureError",
    "Decision", "Problem", "Trajectory", "run_trajectory", "validate_trajectory",
    "Schedule", "ScheduleParams1D", "ScheduleParams2D", "build_schedule_1d",
    "build_schedule_2d", "choose_theta_kappa", "stage_count", "validate_regime",
    "Strategy", "always_step", "delayed_wrapper", "lazy_max", "lazy_then_sprint",
    "strategy_from_spec", "windowed_1d", "windowed_2d",
    "ValueTable", "brute_force_value", "evaluate_strategy_exact",
    "expected_local_time", "optimal_value", "return_probabilities_2d",
    "ssrw_return_probability",
    "EstimateReport", "McConfig", "estimate_success", "sweep",
    "wilson_interval", "window_conditionals",
    "check_hoeffding", "check_local_time_ratio", "check_normal_approx",
    "check_reflection", "fit_scaling",
    "__version__",
]
