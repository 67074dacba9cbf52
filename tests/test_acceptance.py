"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen; each criterion also asserts, so a plain pytest run fails
loudly if any contract is broken.
"""

import math
import time

import numpy as np
import pytest
from helpers import (
    MatrixOperator,
    central_diff_grad,
    central_diff_hvp,
    rel_err,
    symmetric_with_spectrum,
)

import ntcg.solver as solver
from ntcg import (
    CERTIFICATE,
    SaddleProblem,
    SolverConfig,
    capped_cg,
    constants_for,
    dump_libsvm,
    floor_targets,
    j_cap,
    meo_lanczos,
    sample_indices,
    synthetic_nls,
)
from ntcg.cli import ExperimentSpec, run_experiment
from ntcg.meo import meo_iteration_cap
from ntcg.problems import SIGMOID, TANH, WELSCH, NLSProblem
from ntcg.reporting import read_run_csv
from ntcg.solver import FIXED_STEP, run


def verdict(number, label, ok, detail=""):
    line = "%s criterion %2d (%s)%s" % (
        "PASS" if ok else "FAIL", number, label, (": " + detail) if detail else ""
    )
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def binary_10k(tmp_path_factory):
    problem = synthetic_nls(10_000, 20, seed=2024)
    path = tmp_path_factory.mktemp("bench") / "bin10k.libsvm"
    dump_libsvm(path, problem.A, problem.b)
    return str(path)


def test_criterion_01_capped_cg_sol_contract():
    start = time.monotonic()
    violations = []
    for seed in range(500):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 51))
        eps = float(rng.uniform(0.01, 0.5))
        zeta = float(rng.uniform(0.1, 0.9))
        spread = float(rng.uniform(0.5, 6.0))
        H = symmetric_with_spectrum(rng, rng.uniform(eps, eps + spread, size=dim))
        g = rng.standard_normal(dim)
        res = capped_cg(MatrixOperator(H), g, epsilon=eps, zeta=zeta)
        if res.d_type != "SOL":
            violations.append((seed, "returned NC on a PD spectrum"))
            continue
        d = res.d
        Hbar = H + 2 * eps * np.eye(dim)
        residual = Hbar @ d + g  # dense recomputation, not the recurrence
        norm_d = np.linalg.norm(d)
        if np.linalg.norm(residual) > 0.5 * eps * zeta * norm_d * (1 + 1e-10):
            violations.append((seed, "residual bound"))
        if d @ (H @ d) < -eps * norm_d**2 * (1 + 1e-10):
            violations.append((seed, "curvature bound"))
        if norm_d > 1.1 / eps * np.linalg.norm(g) * (1 + 1e-10):
            violations.append((seed, "norm bound"))
        d_star = np.linalg.solve(Hbar, -g)
        gap = np.linalg.norm(d - d_star)
        gap_bound = np.linalg.norm(residual) / np.linalg.eigvalsh(Hbar)[0]
        # absolute floor: a residual at machine noise bounds nothing
        if gap > gap_bound * (1 + 1e-8) + 1e-12 * max(np.linalg.norm(d_star), 1.0):
            violations.append((seed, "dense factorization cross-check"))
    elapsed = time.monotonic() - start
    verdict(
        1, "capped-CG SOL contract",
        not violations and elapsed < 10.0,
        "500 PD systems, %d violations, %.1fs" % (len(violations), elapsed),
    )


def test_criterion_02_capped_cg_nc_contract():
    violations = []
    nc_count = 0
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        dim = int(rng.integers(3, 51))
        eps = float(rng.uniform(0.01, 0.5))
        vals = rng.uniform(eps / 10, 5.0, size=dim)
        vals[0] = -2.0 * eps - float(rng.uniform(0.0, 3.0))  # lambda_min <= -2 eps
        H = symmetric_with_spectrum(rng, vals)
        g = rng.standard_normal(dim)
        res = capped_cg(MatrixOperator(H), g, epsilon=eps, zeta=0.5)
        if res.iterations > min(dim, j_cap(res.M_final, eps, 0.5)):
            violations.append((seed, "iteration cap"))
        if res.d_type == "NC":
            nc_count += 1
            d = res.d
            if not d @ (H @ d) < -eps * (d @ d):
                violations.append((seed, "curvature quadratic form"))
    verdict(
        2, "capped-CG NC contract",
        not violations and nc_count > 400,
        "500 indefinite systems, %d NC returns, %d violations"
        % (nc_count, len(violations)),
    )


def test_criterion_03_meo_statistical_contract():
    rng = np.random.default_rng(31337)
    dim = 50
    vals = np.concatenate([[-3.0], rng.uniform(-1.0, 2.0, size=dim - 1)])
    H_mat = symmetric_with_spectrum(rng, vals)
    H = MatrixOperator(H_mat)
    M = float(np.linalg.norm(H_mat, 2))
    eps, delta = 1.0, 0.05
    cap = meo_iteration_cap(dim, M, eps, delta)
    incorrect = 0
    problems = []
    for trial in range(200):
        res = meo_lanczos(H, H.dim, M=M, epsilon=eps, delta=delta, rng=trial)
        if res.iterations > cap:
            problems.append((trial, "iteration cap"))
        if res.outcome == CERTIFICATE:
            incorrect += 1  # lambda_min = -3 < -eps: any certificate is wrong
        else:
            if not res.lam <= -eps / 2.0:
                problems.append((trial, "weak curvature"))
            rayleigh = res.v @ (H_mat @ res.v)
            if abs(rayleigh - res.lam) > 1e-10 * M:
                problems.append((trial, "rayleigh mismatch"))
    rate = incorrect / 200.0
    limit = delta + 2.0 * math.sqrt(delta * (1 - delta) / 200.0)
    verdict(
        3, "MEO statistical contract",
        rate <= limit and not problems,
        "incorrect-certificate rate %.3f <= %.3f, %d anomalies"
        % (rate, limit, len(problems)),
    )


def test_criterion_04_derivative_correctness():
    links = [SIGMOID, TANH, WELSCH]
    worst_g, worst_h = 0.0, 0.0
    for case in range(100):
        rng = np.random.default_rng(40_000 + case)
        link = links[case % 3]
        n, d = int(rng.integers(5, 25)), int(rng.integers(2, 8))
        A = rng.standard_normal((n, d))
        A /= np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1.0)
        if link == SIGMOID:
            b = rng.integers(0, 2, size=n).astype(float)
        elif link == TANH:
            b = rng.choice([-1.0, 1.0], size=n)
        else:
            b = rng.standard_normal(n)
        problem = NLSProblem(A, b, link=link, alpha=float(rng.uniform(0.5, 2.0)))
        x = rng.standard_normal(d)
        v = rng.standard_normal(d)
        idx = problem.full_index_set()
        g_err = rel_err(
            problem._grad(x, idx),
            central_diff_grad(lambda y: problem._value(y, idx), x),
        )
        h_err = rel_err(
            problem._hvp(x, v, idx),
            central_diff_hvp(lambda y: problem._grad(y, idx), x, v),
        )
        worst_g, worst_h = max(worst_g, g_err), max(worst_h, h_err)
    verdict(
        4, "NLS derivative correctness",
        worst_g < 1e-6 and worst_h < 1e-5,
        "100 instances, worst grad rel err %.2e, worst hvp rel err %.2e"
        % (worst_g, worst_h),
    )


def _audited_run(problem, constants, x0, variant, eps):
    cfg = SolverConfig(
        eps_g=eps, U_H=constants.U_H, L_H=constants.L_H,
        max_outer_iters=20_000, seed=17,
    )
    return run(
        problem, cfg, variant=variant, x0=x0, constants=constants, audit=True
    )


def test_criterion_05_line_search_monotonicity_and_floors():
    start = time.monotonic()
    eps = 1e-3
    issues = []

    saddle = SaddleProblem(6, mu=1.0, gamma=1.0)
    s_consts = saddle.constants()
    x0 = np.zeros(6)
    x0[0] = 0.05
    rep_s = _audited_run(saddle, s_consts, x0, solver.LINE_SEARCH, eps)
    nls = synthetic_nls(1000, 20, seed=101)
    rep_n = _audited_run(nls, constants_for(nls), np.zeros(20),
                         solver.LINE_SEARCH, eps)

    for name, rep in (("saddle", rep_s), ("nls", rep_n)):
        fs = [r.f_value for r in rep.records]
        if not all(a > b for a, b in zip(fs, fs[1:])):
            issues.append(name + ": non-monotone")
        if rep.audit["violations"]:
            issues.append(name + ": floor violations %r" % rep.audit["violations"])
        if rep.iterations > rep.audit["iteration_bound"]:
            issues.append(name + ": iteration bound")
        if rep.final_true_grad_norm > 4.5 * eps:
            issues.append(name + ": final gradient %.2e" % rep.final_true_grad_norm)
        if rep.termination not in (
            solver.TERM_CERTIFIED_AT_CURRENT, solver.TERM_FIRST_ORDER_AND_CERTIFIED
        ):
            issues.append(name + ": termination " + rep.termination)
    if not any(r.d_type == "NC" for r in rep_s.records):
        issues.append("saddle: no NC step exercised the floors")
    elapsed = time.monotonic() - start
    verdict(
        5, "line-search driver monotonicity and decrease floors",
        not issues and elapsed < 60.0,
        "saddle %d iters + nls %d iters, %.1fs%s"
        % (rep_s.iterations, rep_n.iterations, elapsed,
           ("; " + "; ".join(issues)) if issues else ""),
    )


def test_criterion_06_fixed_step_variant():
    eps = 1e-3
    issues = []
    saddle = SaddleProblem(6, mu=1.0, gamma=1.0)
    s_consts = saddle.constants()
    x0 = np.zeros(6)
    x0[0] = 0.05
    rep_s = _audited_run(saddle, s_consts, x0, FIXED_STEP, eps)
    nls = synthetic_nls(1000, 20, seed=101)
    rep_n = _audited_run(nls, constants_for(nls), np.zeros(20), FIXED_STEP, eps)
    for name, rep in (("saddle", rep_s), ("nls", rep_n)):
        fs = [r.f_value for r in rep.records]
        if not all(a > b for a, b in zip(fs, fs[1:])):
            issues.append(name + ": non-monotone")
        if rep.audit["violations"]:
            issues.append(name + ": floor violations")
        if rep.iterations > rep.audit["iteration_bound"]:
            issues.append(name + ": iteration bound")
    if not any(r.d_type == "NC" for r in rep_s.records):
        issues.append("saddle: no NC step exercised the floors")
    verdict(
        6, "fixed-step driver floors and iteration bound",
        not issues,
        "saddle %d iters + nls %d iters%s"
        % (rep_s.iterations, rep_n.iterations,
           ("; " + "; ".join(issues)) if issues else ""),
    )


def test_criterion_07_sampling_concentration():
    problem = synthetic_nls(5000, 20, seed=77)
    consts = constants_for(problem)
    zeta, eta = 0.5, 0.1
    # The paper's concentration sizes (Xu, Roosta & Mahoney 2020) at failure
    # probability delta_bar = 0.1: ceil(16 U_g^2 / delta_g^2 * ln(1/delta_bar))
    # gradient rows and ceil(16 U_H^2 / delta_H^2 * ln(2 d / delta_bar))
    # Hessian rows.  They scale as eps^-2 and eps^-1 while the accuracy
    # statement is eps-free, so eps = 50 lands both strictly inside (0, n).
    eps = 50.0
    delta_g, delta_H = floor_targets(eps, consts.L_H, zeta, eta)
    g_size, h_size = 1807, 111

    rng = np.random.default_rng(7700)
    x = rng.standard_normal(20) * 0.5
    exact_g = problem._grad(x, problem.full_index_set())
    exact_H = problem.dense_hessian(x)
    hits_g = hits_h = 0
    trials = 200
    for _ in range(trials):
        gi = sample_indices(problem.n, g_size, rng)
        hi = sample_indices(problem.n, h_size, rng)
        est_g = problem._grad(x, gi)
        est_H = problem.dense_hessian(x, hi)
        hits_g += float(np.linalg.norm(est_g - exact_g) <= delta_g)
        hits_h += float(np.linalg.norm(est_H - exact_H, 2) <= delta_H)
    rate_g, rate_h = hits_g / trials, hits_h / trials
    verdict(
        7, "sampling concentration at prescribed sizes",
        rate_g >= 0.85 and rate_h >= 0.85,
        "gradient %.1f%% (batch %d), hessian %.1f%% (batch %d) over %d resamples"
        % (100 * rate_g, g_size, 100 * rate_h, h_size, trials),
    )


def test_criterion_08_accounting_identity(tmp_path):
    # Scripted call sequence with known batch sizes.
    problem = synthetic_nls(200, 6, seed=55)
    x = np.zeros(6)
    v = np.ones(6)
    problem.eval_f(x, np.arange(7))
    problem.eval_grad(x, np.arange(3))
    for _ in range(2):
        problem.eval_hvp(x, v, np.arange(11))
    expected = 7 + 2 * 3 + 4 * (2 * 11)
    scripted_ok = (
        problem.ledger.props == expected
        and problem.ledger.snapshot()["props"]
        == problem.ledger.f_calls + 2 * problem.ledger.grad_calls
        + 4 * problem.ledger.hv_calls
    )

    # Independent recount from a CSV produced by a real run.
    data = tmp_path / "acc.libsvm"
    dump_libsvm(data, problem.A, problem.b)
    spec = ExperimentSpec(
        problem="nls-sigmoid", variant="subh", data=str(data),
        out=str(tmp_path / "out"), seed=9,
        config={"eps_g": 1e-2, "max_outer_iters": 40},
    )
    reports, code = run_experiment(spec)
    rows = read_run_csv(tmp_path / "out" / "run_seed9.csv")
    csv_ok = code == 0 and all(
        r["props"] == r["f_calls"] + 2 * r["grad_calls"] + 4 * r["hv_calls"]
        for r in rows
    )
    final_ok = rows[-1]["props"] == reports[0].ledger["props"]
    verdict(
        8, "oracle-call accounting identity",
        scripted_ok and csv_ok and final_ok,
        "scripted total %d, %d CSV rows recounted" % (expected, len(rows)),
    )


def test_criterion_09_inexact_presets_beat_full_on_props(binary_10k, tmp_path):
    curves = {}
    for variant in ("full", "inexact-full-eval", "inexact-sub-eval"):
        spec = ExperimentSpec(
            problem="nls-sigmoid", variant=variant, data=binary_10k,
            out=str(tmp_path / variant), seed=7, repeats=1,
            config={"eps_g": 1e-3, "max_outer_iters": 300},
        )
        reports, code = run_experiment(spec)
        assert code == 0
        rep = reports[0]
        curves[variant] = (
            [r.f_value for r in rep.records], [r.props for r in rep.records]
        )

    f_full = curves["full"][0]
    threshold = f_full[0] - 0.8 * (f_full[0] - min(f_full))

    def props_to_reach(variant):
        fs, ps = curves[variant]
        return next((p for f, p in zip(fs, ps) if f <= threshold), math.inf)

    cost = {v: props_to_reach(v) for v in curves}
    ok = (
        cost["inexact-sub-eval"] < cost["full"]
        and cost["inexact-full-eval"] < cost["full"]
        and all(math.isfinite(c) for c in cost.values())
    )
    verdict(
        9, "inexact presets reach the loss threshold with fewer props",
        ok,
        "threshold %.4f: full %.3g, full-eval %.3g, sub-eval %.3g"
        % (threshold, cost["full"], cost["inexact-full-eval"],
           cost["inexact-sub-eval"]),
    )


def test_criterion_10_determinism(binary_10k, tmp_path):
    outs = []
    for tag in ("first", "second"):
        spec = ExperimentSpec(
            problem="nls-sigmoid", variant="inexact-sub-eval", data=binary_10k,
            out=str(tmp_path / tag), seed=123, repeats=2,
            config={"eps_g": 1e-2, "max_outer_iters": 40},
        )
        run_experiment(spec)
        outs.append(tmp_path / tag)
    identical = True
    for name in ("run_seed123.csv", "run_seed124.csv", "aggregate.json"):
        with open(outs[0] / name, "rb") as a, open(outs[1] / name, "rb") as b:
            identical = identical and a.read() == b.read()
    verdict(10, "byte-identical outputs under a fixed seed", identical)
