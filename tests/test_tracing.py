"""The benchmark's span tracer still hooks every layer it reports on.

``bench/tracing.py`` patches module globals and oracle methods by name; a
refactor that renames or inlines one of them silently drops its spans.  A
small solve under the tracer catches that here, in well under a second.
"""

import sys
from pathlib import Path

import numpy as np

import ntcg.solver
from ntcg import SolverConfig, constants_for, synthetic_nls
from ntcg.problems import TANH
from ntcg.sampling import preset_policy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
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
