"""Each counted oracle value is paid for once.

The driver reuses what it already holds: f(x_k) on the full set from the
accepted trial of the previous line search, d^T H d of a capped-CG
curvature direction from the product CG formed, and in an audit the
f(x_{k+1}) that checked the step.  These tests wrap the
counted entry points of one problem instance and key every charged call by
the bytes of its arguments, so a value bought twice shows up as a repeated
key.
"""

import collections

import numpy as np
import pytest
from helpers import preset_policy

from ntcg import (
    FIXED_STEP,
    LINE_SEARCH,
    SaddleProblem,
    SolverConfig,
    preset,
    run,
    synthetic_nls,
)
from ntcg.problems import TANH, constants_for
from ntcg.solver import TERM_CERTIFIED_AT_CURRENT, TERM_MAX_ITERS


def _key(*arrays):
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays)


def count_calls(problem, audit=False):
    """Wrap eval_f and eval_hvp of `problem`; returns a Counter of call keys.

    Audit-channel calls (f through a ledger other than the problem's own)
    are not charged, so they are not keyed, unless `audit` is set: then
    audit_f and audit_grad are keyed by their point as well.
    """
    calls = collections.Counter()
    eval_f, eval_hvp = problem.eval_f, problem.eval_hvp

    def keyed(name):
        method = getattr(problem, name)

        def audited(x):
            calls[name, _key(x)] += 1
            return method(x)

        return audited

    if audit:
        problem.audit_f, problem.audit_grad = keyed("audit_f"), keyed("audit_grad")

    def counted_f(x, index_set, ledger=None):
        if ledger is None:
            calls["f", _key(x, np.asarray(index_set, dtype=np.int64))] += 1
        return eval_f(x, index_set, ledger=ledger)

    def counted_hvp(x, v, index_set):
        calls["hvp", _key(x, np.asarray(index_set, dtype=np.int64), v)] += 1
        return eval_hvp(x, v, index_set)

    problem.eval_f, problem.eval_hvp = counted_f, counted_hvp
    return calls


def assert_paid_once(calls):
    repeated = collections.Counter(kind for (kind, _), n in calls.items() if n > 1)
    assert not repeated, "values evaluated more than once: %s" % dict(repeated)


def test_full_run_pays_for_each_f_once():
    problem = synthetic_nls(2000, 10, seed=4)
    calls = count_calls(problem)
    report = run(problem, SolverConfig(eps_g=1e-3, skip_small_step_block=True,
                                       max_outer_iters=40),
                 policy=preset_policy("full", problem.n), x0=np.zeros(10))
    assert report.iterations > 5
    assert sum(n for (kind, _), n in calls.items() if kind == "f") > report.iterations
    assert_paid_once(calls)


def test_subh_tanh_run_with_curvature_steps_pays_once():
    # The small eps_H makes capped CG return curvature directions.
    problem = synthetic_nls(3000, 15, link=TANH, seed=1)
    calls = count_calls(problem)
    report = run(problem, SolverConfig(eps_g=1e-3, eps_H=5e-3, max_outer_iters=60),
                 policy=preset_policy("subh", problem.n),
                 constants=constants_for(problem), x0=np.zeros(15))
    assert any(r.nc_origin == "cg" for r in report.records)
    assert_paid_once(calls)


@pytest.mark.parametrize("variant", (LINE_SEARCH, FIXED_STEP))
def test_saddle_run_off_the_origin_pays_once(variant):
    # Off the origin along the negative-curvature axis capped CG returns
    # the curvature direction itself.
    problem = SaddleProblem(3, mu=1.0, gamma=1.0)
    consts = problem.constants()
    calls = count_calls(problem)
    x0 = np.array([0.05, 0.0, 0.0])
    report = run(problem, SolverConfig(eps_g=1e-3, U_H=consts.U_H, L_H=consts.L_H,
                                       seed=21, max_outer_iters=5000),
                 variant=variant, constants=consts, x0=x0)
    assert any(r.nc_origin == "cg" for r in report.records)
    assert_paid_once(calls)


def test_audited_saddle_run_from_the_origin_reuses_the_last_record():
    # Certified at its last iterate, the run reads f and the exact gradient
    # norm there from the last record instead of asking the audit again.
    problem = SaddleProblem(4, mu=1.0, gamma=1.0)
    consts = problem.constants()
    calls = count_calls(problem, audit=True)
    report = run(problem, SolverConfig(eps_g=1e-3, U_H=consts.U_H, L_H=consts.L_H,
                                       seed=5, max_outer_iters=5000),
                 constants=consts, x0=np.zeros(4), audit=True)
    assert report.termination == TERM_CERTIFIED_AT_CURRENT
    assert report.final_f == report.records[-1].f_value
    assert report.final_true_grad_norm == report.records[-1].grad_true_norm
    assert any(kind == "audit_grad" for kind, _ in calls)
    assert_paid_once(calls)


@pytest.mark.parametrize("name", ["inexact-sub-eval", "inexact-fixed", "full"])
def test_audited_run_values_each_point_once(name):
    # The audit values f(x_{k+1}) to check each step; the next record and
    # the final f of a run that hits the cap reuse it.  `full` takes f(x_0)
    # from its first line search, so its audit values one point fewer.
    problem = synthetic_nls(2000, 10, seed=0)
    policy, variant, settings = preset(name, problem.n)
    calls = count_calls(problem, audit=True)
    report = run(problem, SolverConfig(eps_g=1e-3, seed=0, max_outer_iters=30,
                                       **settings),
                 policy=policy, variant=variant, audit=True)
    assert report.termination == TERM_MAX_ITERS
    points = sum(1 for kind, _ in calls if kind == "audit_f")
    assert points == (30 if name == "full" else 31)
    assert report.audit_ledger["f_calls"] == points * problem.n
    assert_paid_once(calls)


def test_capped_cg_pays_no_product_after_a_sol_exit():
    # A SOL exit at iteration j takes the initial product and one for each
    # of the j - 1 iterations before it, each over all n rows under `full`.
    problem = synthetic_nls(5000, 20, seed=0)
    policy, variant, settings = preset("full", problem.n)
    report = run(problem, SolverConfig(eps_g=1e-3, **settings),
                 policy=policy, variant=variant)
    sol = 0
    for before, record in zip([0] + [r.hv_calls for r in report.records],
                              report.records):
        if record.d_type == "SOL":
            sol += 1
            assert record.hv_calls - before == record.cg_iters * problem.n
    assert sol > 400
