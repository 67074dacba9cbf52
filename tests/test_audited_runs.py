"""Audited runs over random small instances hold every guarantee check.

Forty seeded instances, ten of each kind: sigmoid, tanh and Welsch NLS
problems with n in 50-400 and dim in 2-11, and strict saddles with dim in
2-7, mu in [0.05, 3], gamma in [0.2, 3] and ||x0|| <= 1.  Each instance
draws eps_g log-uniform in [1e-4, 1e-2] and whether to skip the small-step
block, and runs under the `full` and `subh` policies with LineSearch and
with FixedStep's derived steps.  No audited run may raise
ContractViolation.  FixedStep with the block skipped is refused before any
oracle call, since its derived Newton step can then exceed 1 and raise f.
"""

import itertools

import numpy as np
import pytest

from ntcg import FIXED_STEP, LINE_SEARCH, SaddleProblem, SolverConfig, preset, run
from ntcg.problems import SIGMOID, TANH, WELSCH, synthetic_nls

KINDS = (SIGMOID, TANH, WELSCH, "saddle")
INSTANCES = 40


def instance(i):
    """(problem, x0, config) of instance i."""
    rng = np.random.default_rng([0, i])
    kind = KINDS[i % len(KINDS)]
    if kind == "saddle":
        dim = int(rng.integers(2, 8))
        problem = SaddleProblem(dim, mu=rng.uniform(0.05, 3.0),
                                gamma=rng.uniform(0.2, 3.0))
        x0 = rng.standard_normal(dim)
        x0 *= rng.uniform(0.0, 1.0) / np.linalg.norm(x0)
    else:
        problem = synthetic_nls(int(rng.integers(50, 401)), int(rng.integers(2, 12)),
                                link=kind, seed=int(rng.integers(2**31)))
        x0 = np.zeros(problem.dim)
    config = SolverConfig(eps_g=10.0 ** rng.uniform(-4.0, -2.0), seed=i,
                          skip_small_step_block=bool(rng.integers(2)),
                          max_outer_iters=1000)
    return problem, x0, config


@pytest.mark.parametrize("i", range(INSTANCES))
def test_audited_runs_hold_their_guarantees(i):
    problem, x0, config = instance(i)
    for name, variant in itertools.product(("full", "subh"), (LINE_SEARCH, FIXED_STEP)):
        policy = preset(name, problem.n)[0]
        if variant == FIXED_STEP and config.skip_small_step_block:
            props = problem.ledger.props
            with pytest.raises(ValueError, match="skip_small_step_block"):
                run(problem, config, policy=policy, variant=variant, x0=x0, audit=True)
            assert problem.ledger.props == props
            continue
        # A failed check raises ContractViolation under audit.
        report = run(problem, config, policy=policy, variant=variant, x0=x0, audit=True)
        assert not report.audit["violations"]
