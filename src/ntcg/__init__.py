"""Second-order optimization for nonconvex finite-sum problems.

Matrix-free damped Newton steps from a capped conjugate-gradient kernel
that detects negative curvature, a randomized Lanczos minimum-eigenvalue
oracle for approximate second-order certificates, line-search and
fixed-step drivers, subsampled gradient/Hessian oracles with exact
call accounting, and a benchmark CLI.
"""

from .capped_cg import NC, SOL, CappedCGParams, CappedCGResult, capped_cg, j_cap
from .estimator import SquaredLossClassifier, WelschRegressor
from .exceptions import ContractViolation, LibSVMFormatError
from .libsvm import dump_libsvm, load_libsvm
from .meo import CERTIFICATE, NEGATIVE_CURVATURE, MEOResult, meo_lanczos
from .oracle import CallableOracle, HessianOperator, ObjectiveOracle, OracleLedger
from .problems import (
    NLSProblem,
    ProblemConstants,
    QuadraticProblem,
    SaddleProblem,
    constants_for,
    synthetic_nls,
    synthetic_saddle,
)
from .sampling import (
    AccuracyTargets,
    SamplingPolicy,
    adapt_grad_batch,
    floor_targets,
    sample_indices,
    verify_condition,
)
from .solver import (
    FIXED_STEP,
    LINE_SEARCH,
    IterationRecord,
    RunReport,
    SolverConfig,
    fixed_step_nc,
    fixed_step_sol,
    iteration_bound,
    line_search_nc,
    line_search_sol,
    run,
    scale_meo_direction,
    scale_nc_direction,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyTargets",
    "CallableOracle",
    "CappedCGParams",
    "CappedCGResult",
    "CERTIFICATE",
    "ContractViolation",
    "FIXED_STEP",
    "HessianOperator",
    "IterationRecord",
    "LibSVMFormatError",
    "LINE_SEARCH",
    "MEOResult",
    "NC",
    "NEGATIVE_CURVATURE",
    "NLSProblem",
    "ObjectiveOracle",
    "OracleLedger",
    "ProblemConstants",
    "QuadraticProblem",
    "RunReport",
    "SaddleProblem",
    "SamplingPolicy",
    "SquaredLossClassifier",
    "SolverConfig",
    "SOL",
    "WelschRegressor",
    "adapt_grad_batch",
    "capped_cg",
    "constants_for",
    "dump_libsvm",
    "fixed_step_nc",
    "fixed_step_sol",
    "floor_targets",
    "iteration_bound",
    "j_cap",
    "line_search_nc",
    "line_search_sol",
    "load_libsvm",
    "meo_lanczos",
    "run",
    "sample_indices",
    "scale_meo_direction",
    "scale_nc_direction",
    "synthetic_nls",
    "synthetic_saddle",
    "verify_condition",
]
