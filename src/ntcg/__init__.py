"""Second-order optimization for nonconvex finite-sum problems.

Matrix-free damped Newton steps from a capped conjugate-gradient kernel
that detects negative curvature, a randomized Lanczos minimum-eigenvalue
oracle for approximate second-order certificates, line-search and
fixed-step drivers, subsampled gradient/Hessian oracles with exact
call accounting, and a benchmark CLI.

The root exports what a caller needs to set up and run a solve, define a
problem, read data and catch errors.  The kernels, their result types and
the paper's step and bound formulas stay in their modules
(``ntcg.capped_cg``, ``ntcg.meo``, ``ntcg.audit``, ``ntcg.sampling``,
``ntcg.solver``), so each module name at the root is the module.
"""

from .estimator import SquaredLossClassifier, WelschRegressor
from .exceptions import ContractViolation, LibSVMFormatError
from .libsvm import dump_libsvm, load_libsvm
from .oracle import ObjectiveOracle, OracleLedger
from .problems import (
    NLSProblem,
    ProblemConstants,
    QuadraticProblem,
    SaddleProblem,
    constants_for,
    synthetic_nls,
)
from .sampling import SamplingPolicy
from .solver import (
    FIXED_STEP,
    LINE_SEARCH,
    IterationRecord,
    RunReport,
    SolverConfig,
    preset,
    run,
)

__version__ = "0.1.0"

__all__ = [
    # setting up and running a solve
    "preset", "run", "SolverConfig", "SamplingPolicy", "LINE_SEARCH", "FIXED_STEP",
    "RunReport", "IterationRecord", "ObjectiveOracle", "OracleLedger",
    "ProblemConstants",
    # problems, data and errors
    "NLSProblem", "QuadraticProblem", "SaddleProblem", "synthetic_nls",
    "constants_for", "load_libsvm", "dump_libsvm", "ContractViolation",
    "LibSVMFormatError",
    # estimators
    "SquaredLossClassifier", "WelschRegressor",
]
