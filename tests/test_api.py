"""The package root exports the API its callers use; the kernels, their
result types and the paper's formulas import from their modules, and each
module name at the root is the module."""

import importlib
from pathlib import Path

import pytest

import ntcg

SRC = Path(__file__).resolve().parent.parent / "src" / "ntcg"

ROOT_NAMES = [
    "ContractViolation", "FIXED_STEP", "IterationRecord", "LINE_SEARCH",
    "LibSVMFormatError", "NLSProblem", "ObjectiveOracle", "OracleLedger",
    "ProblemConstants", "QuadraticProblem", "RunReport", "SaddleProblem",
    "SamplingPolicy", "SolverConfig", "SquaredLossClassifier", "WelschRegressor",
    "constants_for", "dump_libsvm", "load_libsvm", "preset", "run", "synthetic_nls",
]

# Names the root does not export, by the module that defines them.
MODULE_NAMES = {
    "capped_cg": ["capped_cg", "CappedCGResult", "NC", "SOL", "j_cap"],
    "meo": ["meo_lanczos", "MEOResult", "CERTIFICATE", "NEGATIVE_CURVATURE"],
    "audit": ["verify_condition", "iteration_bound"],
    "sampling": ["sample_indices", "adapt_grad_batch", "floor_targets"],
    "solver": ["line_search_sol", "line_search_nc", "fixed_step_sol",
               "fixed_step_nc", "scale_nc_direction", "scale_meo_direction"],
}


def test_root_exports_the_caller_api():
    assert sorted(ntcg.__all__) == ROOT_NAMES
    namespace = {}
    exec("from ntcg import *", namespace)
    assert set(ROOT_NAMES) <= namespace.keys()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in MODULE_NAMES.items() for name in names])
def test_module_names_import_from_their_module(module, name):
    assert hasattr(importlib.import_module("ntcg." + module), name)
    assert name not in ntcg.__all__


@pytest.mark.parametrize("stem", sorted(
    p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_root_attribute_is_the_module(stem):
    module = importlib.import_module("ntcg." + stem)
    assert getattr(ntcg, stem) is module
