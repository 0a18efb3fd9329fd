"""Monotone finite-difference and semigroup schemes for parabolic
Bellman equations on the torus, with rate-verification tooling."""

from .errors import (CFLError, ConfigError, HJBError, NumericalError,
                     ProbeFailure, SchemeError)
from .grid import GridFunction, SpaceTimeGrid, lipschitz_seminorm, sup_norm, write_csv
from .problem import (A1Report, CoefficientField, ControlSet, HJBProblem,
                      ManufacturedProblem, SmoothFunction, decaying_wave,
                      evaluate_F, evaluate_L, make_problem, manufacture, verify_A1)
from .stencil import (BZDecomposition, SpatialStencil, bz_decompose, bz_stencil,
                      check_diag_dominant, consistency_residual, kushner_stencil)
from .scheme import (CFLReport, ComparisonConstants, ProbeResult, SolveResult,
                     StepReport, ThetaScheme)
from .switching import (SwitchingProblem, SwitchingSolution, k_rate_experiment,
                        switching_solve, switching_step)
from .semigroup import (PCControlProblem, SemigroupFlow, SplitCheck, SplitProblem,
                        calibrate_inner_steps, pc_step, pcc_rate_experiment, pcc_solve,
                        semigroup_monotonicity_probe, semigroup_nonexpansive_probe,
                        semigroup_rate_experiment, sigma_from_diffusion,
                        splitting_rate_experiment, splitting_solve, splitting_step,
                        splitting_vs_inner_check)
from .harness import (FitResult, RateReport, ReferenceSolution, Verdict,
                      compare_bounds, fit_order, rate_report, run_refinement,
                      signed_errors, write_plot_script, write_rate_csv)

__version__ = "0.1.0"

__all__ = [
    "CFLError", "ConfigError", "HJBError", "NumericalError", "ProbeFailure",
    "SchemeError",
    "GridFunction", "SpaceTimeGrid", "lipschitz_seminorm", "sup_norm", "write_csv",
    "A1Report", "CoefficientField", "ControlSet", "HJBProblem", "ManufacturedProblem",
    "SmoothFunction", "decaying_wave", "evaluate_F", "evaluate_L", "make_problem",
    "manufacture", "verify_A1",
    "BZDecomposition", "SpatialStencil", "bz_decompose", "bz_stencil",
    "check_diag_dominant", "consistency_residual", "kushner_stencil",
    "CFLReport", "ComparisonConstants", "ProbeResult", "SolveResult", "StepReport",
    "ThetaScheme",
    "SwitchingProblem", "SwitchingSolution", "k_rate_experiment", "switching_solve",
    "switching_step",
    "PCControlProblem", "SemigroupFlow", "SplitCheck", "SplitProblem",
    "calibrate_inner_steps", "pc_step", "pcc_rate_experiment",
    "pcc_solve", "semigroup_monotonicity_probe", "semigroup_nonexpansive_probe",
    "semigroup_rate_experiment",
    "sigma_from_diffusion", "splitting_rate_experiment",
    "splitting_solve", "splitting_step", "splitting_vs_inner_check",
    "FitResult", "RateReport", "ReferenceSolution", "Verdict", "compare_bounds",
    "fit_order", "rate_report", "run_refinement", "signed_errors", "write_plot_script",
    "write_rate_csv",
    "__version__",
]
