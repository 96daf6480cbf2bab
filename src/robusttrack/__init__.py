"""Robust one-period index tracking under beta/KL divergence ambiguity balls."""

__version__ = "0.1.0"

from .divergence import (DivergenceBall, MCEstimate, divergence_gaussian,
                         divergence_gaussian_equal_cov, divergence_mc,
                         eta_from_ratio_mc, k_from_eta, scalar_G)
from .evaluate import (BacktestConfig, BacktestResult, ComparisonReport,
                       RowConfig, TableRow, backtest_sliding, compare,
                       run_table, tracking_error)
from .loss import LossSpec, loss_deriv1, loss_deriv2, loss_value, payoff_H, raw_loss_value
from .model import (DataError, IndexComposition, LoadedPrices, NominalModel,
                    ScenarioSet, load_prices_csv, sample_model, scenarios_from,
                    synthesize_index)
from .solver import (DegenerateScenariosError, NonConvergenceError,
                     RobustSolution, SingularSystemError, SolverConfig,
                     SolverError, hessian_diagnostic, solve_nonrobust,
                     solve_robust, system_jacobian, system_residual)

__all__ = [
    "__version__",
    "DivergenceBall", "MCEstimate", "divergence_gaussian",
    "divergence_gaussian_equal_cov", "divergence_mc", "eta_from_ratio_mc",
    "k_from_eta", "scalar_G",
    "BacktestConfig", "BacktestResult", "ComparisonReport", "RowConfig",
    "TableRow", "backtest_sliding", "compare", "run_table",
    "tracking_error",
    "LossSpec", "loss_deriv1", "loss_deriv2", "loss_value", "payoff_H",
    "raw_loss_value",
    "DataError", "IndexComposition", "LoadedPrices", "NominalModel",
    "ScenarioSet", "load_prices_csv", "sample_model", "scenarios_from",
    "synthesize_index",
    "DegenerateScenariosError", "NonConvergenceError",
    "RobustSolution", "SingularSystemError", "SolverConfig", "SolverError",
    "hessian_diagnostic", "solve_nonrobust", "solve_robust",
    "system_jacobian", "system_residual",
]
