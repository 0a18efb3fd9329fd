"""Monotone finite-difference and semigroup schemes for parabolic
Bellman equations on the torus, with rate-verification tooling."""

from .errors import (CFLError, ConfigError, HJBError, NumericalError,
                     ProbeFailure, SchemeError)
from .grid import GridFunction, SpaceTimeGrid, sup_norm, write_csv
from .problem import (CoefficientField, HJBProblem, ManufacturedProblem, SmoothFunction,
                      decaying_wave, make_problem, manufacture)
from .stencil import (BZDecomposition, bz_decompose, bz_stencil, check_diag_dominant,
                      consistency_residual, kushner_stencil)
from .scheme import CFLReport, ProbeResult, StepReport, ThetaScheme
from .switching import (SwitchingProblem, SwitchingSolution, k_rate_experiment,
                        switching_solve, switching_step)
from .semigroup import (PCControlProblem, SemigroupFlow, SemigroupProblem, SplitCheck,
                        SplitProblem, calibrate_inner_steps, pcc_rate_experiment,
                        semigroup_rate_experiment, splitting_rate_experiment,
                        splitting_solve, splitting_vs_inner_check)
from .harness import (FitResult, RateReport, Verdict, compare_bounds, fit_order,
                      rate_report, run_refinement, signed_errors, write_plot_script,
                      write_rate_csv)

__version__ = "0.1.0"

__all__ = [
    "CFLError", "ConfigError", "HJBError", "NumericalError", "ProbeFailure",
    "SchemeError",
    "GridFunction", "SpaceTimeGrid", "sup_norm", "write_csv",
    "CoefficientField", "HJBProblem", "ManufacturedProblem", "SmoothFunction",
    "decaying_wave", "make_problem", "manufacture",
    "BZDecomposition", "bz_decompose", "bz_stencil", "check_diag_dominant",
    "consistency_residual", "kushner_stencil",
    "CFLReport", "ProbeResult", "StepReport", "ThetaScheme",
    "SwitchingProblem", "SwitchingSolution", "k_rate_experiment", "switching_solve",
    "switching_step",
    "PCControlProblem", "SemigroupFlow", "SemigroupProblem", "SplitCheck", "SplitProblem",
    "calibrate_inner_steps", "pcc_rate_experiment", "semigroup_rate_experiment",
    "splitting_rate_experiment", "splitting_solve", "splitting_vs_inner_check",
    "FitResult", "RateReport", "Verdict", "compare_bounds",
    "fit_order", "rate_report", "run_refinement", "signed_errors", "write_plot_script",
    "write_rate_csv",
    "__version__",
]
