"""The benchmark's span tracer still hooks every layer it reports on.

``bench/tracing.py`` patches module globals and oracle methods by name; a
refactor that renames or inlines one of them silently drops its spans.  A
small solve under the tracer catches that here, in well under a second.
"""

import sys
from pathlib import Path

import numpy as np

import ntcg.cli
import ntcg.solver
from ntcg import SolverConfig, constants_for, dump_libsvm, synthetic_nls
from ntcg.problems import TANH
from ntcg.reporting import read_run_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from helpers import preset_policy  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def test_traced_solve_hooks_every_layer():
    # tanh with the small-step block on ends through the eigenvalue oracle.
    problem = synthetic_nls(300, 10, link=TANH, seed=0)
    config = SolverConfig(eps_g=1e-3, eps_H=5e-3, seed=0, max_outer_iters=200,
                          skip_small_step_block=False)
    tracer = Tracer()
    with instrument(tracer):
        report = ntcg.solver.run(problem, config,
                                 policy=preset_policy("subh", problem.n),
                                 constants=constants_for(problem),
                                 x0=np.zeros(problem.dim))
    assert report.termination == ntcg.solver.TERM_FIRST_ORDER_AND_CERTIFIED
    assert tracer.counted_props() == report.ledger["props"]
    names = {span[0] for span in tracer.spans}
    assert {"solver.run", "capped_cg", "meo", "solver.ls", "oracle.f",
            "oracle.grad", "oracle.hvp", "sampling.draw"} <= names


def test_traced_cli_solve_hooks_loader_constants_and_writers(tmp_path):
    # The tracer replaces load_libsvm, constants_for and the report writers
    # in ntcg.cli, so the CLI must keep calling them by those names.
    problem = synthetic_nls(200, 6, seed=1)
    data = tmp_path / "data.libsvm"
    dump_libsvm(data, problem.A, problem.b)
    tracer = Tracer()
    with instrument(tracer):
        code = ntcg.cli.main(["solve", "--problem", "nls-sigmoid", "--data", str(data),
                              "--variant", "subh", "--max-iters", "30",
                              "--out", str(tmp_path / "out")])
    assert code == ntcg.cli.EXIT_OK
    names = {span[0] for span in tracer.spans}
    assert {"libsvm.load", "problems.constants", "reporting.write",
            "solver.run"} <= names
    rows = read_run_csv(tmp_path / "out" / "run_seed0.csv")
    assert tracer.counted_props() == rows[-1]["props"]


def test_traced_adaptive_solve_hooks_draws_and_adaptation():
    # run keeps the adaptive gradient batch itself and must call
    # sample_indices and adapt_grad_batch through ntcg.sampling, where the
    # tracer replaces them.
    problem = synthetic_nls(300, 10, seed=0)
    config = SolverConfig(eps_g=1e-3, seed=0, max_outer_iters=20,
                          skip_small_step_block=True)
    tracer = Tracer()
    with instrument(tracer):
        report = ntcg.solver.run(problem, config,
                                 policy=preset_policy("inexact-full-eval", problem.n),
                                 constants=constants_for(problem),
                                 x0=np.zeros(problem.dim))
    assert report.termination == ntcg.solver.TERM_MAX_ITERS
    names = [span[0] for span in tracer.spans]
    # A gradient and a Hessian batch per iteration; an adaptation after
    # every iteration but the first.
    assert names.count("sampling.draw") == 2 * report.iterations
    assert names.count("sampling.adapt") == report.iterations - 1
