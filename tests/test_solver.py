import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import MatrixOperator, preset_policy

import ntcg.capped_cg
import ntcg.solver as solver
from ntcg import (
    ContractViolation,
    NLSProblem,
    QuadraticProblem,
    SaddleProblem,
    SamplingPolicy,
    SolverConfig,
    preset,
    synthetic_nls,
)
from ntcg.audit import c_nc_constant, c_sol_constant, iteration_bound
from ntcg.oracle import ObjectiveOracle
from ntcg.problems import TANH
from ntcg.reporting import write_run_csv
from ntcg.sampling import EXACT, SUB_BOTH, SUB_HESSIAN_ONLY, adapt_grad_batch
from ntcg.solver import (
    FIXED_STEP,
    LINE_SEARCH,
    fixed_step_nc,
    fixed_step_sol,
    line_search_nc,
    line_search_sol,
    run,
    scale_meo_direction,
    scale_nc_direction,
)


class TestScaleOps:
    def test_nc_scaling_direct_substitution(self):
        # ||d|| = 2, d^T H d = -8, d^T g > 0: result is exactly -d.
        d = np.array([2.0, 0.0])
        H = MatrixOperator(np.diag([-2.0, 1.0]))
        g = np.array([2.5, 0.0])
        out = scale_nc_direction(d, H, g)
        np.testing.assert_allclose(out, -d)
        assert out @ (np.diag([-2.0, 1.0]) @ out) / (out @ out) == pytest.approx(
            -np.linalg.norm(out)
        )

    def test_nc_scaling_sign_tie_break(self):
        # sgn(0) := +1, so the direction flips to -d side.
        d = np.array([1.0, 0.0])
        H = MatrixOperator(np.diag([-3.0, 1.0]))
        g = np.array([0.0, 5.0])  # d^T g = 0
        out = scale_nc_direction(d, H, g)
        np.testing.assert_allclose(out, [-3.0, 0.0])

    def test_nc_scaling_eigenvector_case(self):
        H_mat = np.diag([-3.0, 1.0])
        out = scale_nc_direction(
            np.array([1.0, 0.0]), MatrixOperator(H_mat),
            np.array([1.0, 1.0]),
        )
        np.testing.assert_allclose(out, [-3.0, 0.0])
        curv = out @ (H_mat @ out) / (out @ out)
        assert curv == pytest.approx(-np.linalg.norm(out))

    def test_nc_scaling_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            A = rng.standard_normal((dim, dim))
            H_mat = (A + A.T) / 2 - 2.0 * np.eye(dim)
            d_raw = rng.standard_normal(dim)
            g = rng.standard_normal(dim)
            out = scale_nc_direction(d_raw, MatrixOperator(H_mat), g)
            assert out @ g <= 1e-12
            curv_ratio = out @ (H_mat @ out) / (out @ out)
            assert curv_ratio == pytest.approx(-np.linalg.norm(out), rel=1e-10)

    def test_meo_scaling_formula(self):
        out = scale_meo_direction(np.array([1.0, 0.0]), np.array([1.0, 0.0]), -2.0)
        np.testing.assert_allclose(out, [-2.0, 0.0])
        assert np.linalg.norm(out) == 2.0

    def test_meo_scaling_tie_break_and_curvature_reuse(self):
        # v^T g = 0 points the step along -v; the length is the MEO's
        # curvature, taken as given.
        out = scale_meo_direction(np.array([1.0, 0.0]), np.array([0.0, 3.0]),
                                  curvature=-2.0)
        np.testing.assert_allclose(out, [-2.0, 0.0])

    def test_meo_scaling_rejects_non_unit(self):
        with pytest.raises(ValueError):
            scale_meo_direction(np.array([2.0, 0.0]), np.ones(2), 1.0)

    def test_nc_scaling_rejects_zero(self):
        H = MatrixOperator(np.eye(2))
        with pytest.raises(ValueError):
            scale_nc_direction(np.zeros(2), H, np.ones(2))


class TestLineSearches:
    def test_sol_accepts_unit_step_on_damped_newton(self):
        # f = ||x||^2 / 2 at x = (10, 0) with the damped direction -x/1.2.
        f = lambda y: 0.5 * float(y @ y)
        x = np.array([10.0, 0.0])
        d = -x / 1.2
        alpha, trials, f_new = line_search_sol(f, x, d, eta=0.1, theta=0.5)
        assert alpha == 1.0 and trials == 1
        assert f_new == f(x + alpha * d)

    def test_sol_matches_brute_force_scan(self):
        # Descent direction with heavy overshoot: acceptance happens deep
        # in the backtracking schedule; compare against scanning.
        eta, theta = 0.1, 0.5
        d = np.array([1.0])
        f = lambda y: -0.01 * y[0] + 10.0 * y[0] ** 2
        x = np.zeros(1)
        alpha, trials, f_new = line_search_sol(f, x, d, eta, theta)
        assert f_new == f(x + alpha * d)
        f0 = f(x)
        first = None
        for j in range(60):
            a = theta**j
            if f(x + a * d) < f0 - eta / 6 * a**3:
                first = j
                break
        assert alpha == theta**first
        assert trials == first + 1

    def test_sol_smallest_j_definition(self):
        eta, theta = 0.1, 0.5
        d = np.array([1.0])
        f = lambda y: -0.01 * y[0] + 10.0 * y[0] ** 2
        x = np.zeros(1)
        alpha, _, _ = line_search_sol(f, x, d, eta, theta)
        f0 = f(x)
        assert f(x + alpha * d) < f0 - eta / 6 * alpha**3
        prev = alpha / theta  # the rejected candidate just before
        assert not (f(x + prev * d) < f0 - eta / 6 * prev**3)

    def test_sol_exhaustion_raises(self):
        f = lambda y: 0.0  # constant: strict decrease is impossible
        with pytest.raises(ContractViolation):
            line_search_sol(f, np.zeros(1), np.ones(1), 0.1, 0.5, max_trials=10)

    def test_nc_picks_negative_unit_second(self):
        # f linear: increasing along +d, decreasing along -d.
        f = lambda y: float(y[0])
        alpha, trials, f_new = line_search_nc(f, np.zeros(1), np.ones(1), 0.1, 0.5)
        assert alpha == -1.0 and trials == 2 and f_new == -1.0

    def test_nc_accepts_first_on_double_well(self):
        f = lambda y: 0.25 * (y[0] ** 2 - 1.0) ** 2
        alpha, trials, _ = line_search_nc(f, np.zeros(1), np.ones(1), 0.1, 0.5)
        assert alpha == 1.0 and trials == 1

    def test_nc_scripted_fifth_candidate(self):
        # Force the exact trial pattern +1, -1, +0.5, -0.5, +0.25(accept).
        eta, theta = 0.1, 0.5
        passing = 0.25

        def f(y):
            a = y[0]
            if a == 0.0:
                return 0.0
            return -1.0 if a == passing else 1.0

        alpha, trials, f_new = line_search_nc(f, np.zeros(1), np.ones(1), eta, theta)
        assert alpha == 0.25
        assert trials == 5
        assert f_new == -1.0  # the accepted trial's value, not the last rejected

    def test_nc_exhaustion_raises(self):
        f = lambda y: 0.0
        with pytest.raises(ContractViolation):
            line_search_nc(f, np.zeros(1), np.ones(1), 0.1, 0.5, max_trials=8)

    def test_f0_reuse_skips_reference_eval(self):
        calls = []

        def f(y):
            calls.append(y.copy())
            return 0.5 * float(y @ y)

        x = np.array([10.0, 0.0])
        d = -x / 1.2
        line_search_sol(f, x, d, 0.1, 0.5, f0=50.0)
        assert len(calls) == 1  # only the trial point


class TestFixedSteps:
    def test_sol_formula_value(self):
        alpha = fixed_step_sol(1.0, eps_H=0.1, zeta=0.5, L_H=1.0, eta=1.0)
        assert alpha == pytest.approx(math.sqrt(0.01875), rel=1e-12)

    def test_sol_inverse_sqrt_scaling(self):
        a1 = fixed_step_sol(1.0, 0.1, 0.5, 1.0, 1.0)
        a4 = fixed_step_sol(4.0, 0.1, 0.5, 1.0, 1.0)
        assert a4 == pytest.approx(a1 / 2.0, rel=1e-12)

    def test_sol_at_most_one_under_coupling(self):
        # ||d|| = eps_g / eps_H with eps_H = sqrt(L_H eps_g):
        # alpha^2 = 3 (1 - zeta) L_H / (4 (L_H + eta)) < 1.
        L_H, eta, zeta, eps_g = 2.0, 0.1, 0.5, 1e-3
        eps_H = math.sqrt(L_H * eps_g)
        alpha = fixed_step_sol(eps_g / eps_H, eps_H, zeta, L_H, eta)
        assert alpha**2 == pytest.approx(3 * (1 - zeta) * L_H / (4 * (L_H + eta)))
        assert alpha < 1.0

    def test_nc_formula_value(self):
        alpha = fixed_step_nc(1.0, delta_H=0.0, delta_g=0.0, L_H=1.0, eta=1.0,
                              theta_tilde=0.9)
        assert alpha == pytest.approx(1.35, rel=1e-12)
        assert alpha >= 0.75 * 0.9 / 2.0

    def test_nc_positive_discriminant_at_condition_cap(self):
        # delta_g at its accuracy cap keeps the square root real.
        L_H, eta, zeta, eps_H = 1.0, 1.0, 0.5, 0.1
        delta_g = (1 - zeta) / 8 * 3 * eps_H**2 / (65 * (L_H + eta))
        delta_H = (1 - zeta) / 4 * eps_H
        alpha = fixed_step_nc(eps_H / 2, delta_H, delta_g, L_H, eta, 0.9)
        assert np.isfinite(alpha) and alpha > 0

    def test_nc_limit_recovers_exact_root(self):
        alpha = fixed_step_nc(2.0, 0.0, 0.0, 1.0, 1.0, theta_tilde=1.0 - 1e-12)
        assert alpha == pytest.approx(3.0 / 2.0, rel=1e-9)

    def test_nc_floor_bound_holds_randomly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            L_H = rng.uniform(0.5, 10)
            eta = rng.uniform(0.01, 1)
            tt = rng.uniform(0.08, 0.99)
            eps_H = rng.uniform(0.01, 0.5)
            norm_d = rng.uniform(eps_H / 2, 5.0)
            delta_H = rng.uniform(0, 0.25 * eps_H)
            delta_g = rng.uniform(0, 3 * eps_H**2 / (65 * (L_H + eta)))
            alpha = fixed_step_nc(norm_d, delta_H, delta_g, L_H, eta, tt)
            assert alpha >= 0.75 * tt / (L_H + eta) - 1e-12

    def test_nc_broken_condition_raises(self):
        with pytest.raises(ContractViolation):
            fixed_step_nc(0.05, delta_H=0.04, delta_g=1.0, L_H=5.0, eta=1.0,
                          theta_tilde=0.9)


class TestIterationBounds:
    def test_constants_arithmetic(self):
        c_sol = c_sol_constant(0.1, 0.5, 0.5, 1.0)
        expected = 0.1 / 6 * min(3.0**-1.5, (3 * 0.25 * 0.5 / 4.4) ** 1.5)
        assert c_sol == pytest.approx(expected, rel=1e-12)
        c_nc = c_nc_constant(0.1, 0.5, 1.0)
        assert c_nc == pytest.approx(0.1 / 6 * (1.5 / 2.2) ** 3, rel=1e-12)

    def test_line_search_bound_formula(self):
        c_sol, c_nc, L_H, delta_f = 1e-3, 2e-3, 1.0, 5.0
        eps = 1e-2
        expected = (
            math.ceil(
                3 * delta_f / min(c_sol / 64, 8 * c_sol, c_nc / 8) * eps**-1.5
            )
            + 5
        )
        got = iteration_bound(delta_f, L_H, c_sol, c_nc, eps)
        assert got == expected

    def test_eps_halving_scales_three_halves(self):
        b1 = iteration_bound(5.0, 1.0, 1e-3, 2e-3, 1e-2)
        b2 = iteration_bound(5.0, 1.0, 1e-3, 2e-3, 5e-3)
        assert b2 - 5 == pytest.approx((b1 - 5) * 2**1.5, rel=1e-6)

    def test_fixed_bound_formula(self):
        got = iteration_bound(2.0, 1.0, 1e-4, 8e-4, 1e-2, fixed_step=True)
        expected = 2 * math.ceil(2.0 / (1e-4 * 1.0) * 1e3) + 3
        assert got == expected


class TestRunLineSearch:
    def test_quadratic_recursion_and_certified_termination(self):
        # With the small-step block skipped, damped Newton contracts the
        # iterate by exactly 1 - 1/(1 + 2 eps_H) per accepted unit step
        # until the gradient falls under eps_g; then the oracle certifies.
        q = QuadraticProblem(np.ones(3))
        eps_H = 0.1
        cfg = SolverConfig(eps_g=1e-4, eps_H=eps_H, U_H=1.0, L_H=0.0,
                           skip_small_step_block=True, max_outer_iters=300)
        x0 = np.array([2.0, -1.0, 0.5])
        rep = run(q, cfg, x0=x0, constants=q.constants())
        assert rep.termination == solver.TERM_CERTIFIED_AT_CURRENT
        shrink = 1.0 - 1.0 / (1.0 + 2.0 * eps_H)
        x = x0.copy()
        for rec in rep.records[:-1]:
            assert rec.alpha == 1.0
            x = x * shrink
        np.testing.assert_allclose(rep.x_final, x, rtol=1e-12)
        assert rep.final_true_grad_norm < 1e-4
        norms = [r.grad_est_norm for r in rep.records]
        ratios = [b / a for a, b in zip(norms, norms[1:]) if a > 0]
        assert all(abs(r - shrink) < 1e-10 for r in ratios[:-1])

    def test_quadratic_small_step_block_termination(self):
        q = QuadraticProblem(np.ones(3))
        cfg = SolverConfig(eps_g=1e-4, eps_H=0.1, U_H=1.0, L_H=0.0,
                           max_outer_iters=300)
        rep = run(q, cfg, x0=np.ones(3), constants=q.constants())
        assert rep.termination == solver.TERM_FIRST_ORDER_AND_CERTIFIED
        assert rep.records[-1].step_class == "K4"
        assert rep.records[-1].alpha == 1.0
        # L_H = 0: the first-order guarantee collapses to 4 eps_g.
        assert rep.final_true_grad_norm <= 4.0 * 1e-4

    def test_monotone_f_with_exact_evaluation(self):
        q = QuadraticProblem(np.array([3.0, 1.0, 0.5, 2.0]))
        cfg = SolverConfig(eps_g=1e-3, eps_H=0.1, U_H=3.0, L_H=0.0)
        rep = run(q, cfg, x0=np.array([1.0, 2.0, -2.0, 0.3]),
                  constants=q.constants())
        fs = [r.f_value for r in rep.records]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_saddle_escape_from_origin(self):
        # Zero gradient at the start: the eigenvalue oracle must produce
        # the escape direction and the bidirectional search must accept.
        problem = SaddleProblem(4, mu=1.0, gamma=1.0)
        consts = problem.constants()
        cfg = SolverConfig(eps_g=1e-3, U_H=consts.U_H, L_H=consts.L_H, seed=5)
        rep = run(problem, cfg, x0=np.zeros(4), constants=consts, audit=True)
        assert rep.records[0].d_type == "NC"
        assert rep.records[0].nc_origin == "meo"
        assert rep.records[0].step_class == "K1"
        assert rep.termination in (
            solver.TERM_CERTIFIED_AT_CURRENT, solver.TERM_FIRST_ORDER_AND_CERTIFIED
        )
        assert rep.final_f < 0.0  # escaped below the saddle value
        assert not rep.audit["violations"]

    def test_saddle_cg_detects_curvature_off_origin(self):
        problem = SaddleProblem(4, mu=1.0, gamma=1.0)
        consts = problem.constants()
        cfg = SolverConfig(eps_g=1e-3, U_H=consts.U_H, L_H=consts.L_H, seed=6)
        x0 = np.zeros(4)
        x0[0] = 0.05  # gradient nonzero, curvature -1 visible to CG
        rep = run(problem, cfg, x0=x0, constants=consts, audit=True)
        assert rep.records[0].d_type == "NC"
        assert rep.records[0].nc_origin == "cg"
        assert rep.records[0].step_class == "K5"
        assert rep.final_f <= -0.24  # near the global minimum -0.25

    def test_audit_mode_records_true_gradient(self):
        q = QuadraticProblem(np.ones(2))
        cfg = SolverConfig(eps_g=1e-3, eps_H=0.1, U_H=1.0, L_H=0.0)
        rep = run(q, cfg, x0=np.ones(2), constants=q.constants(), audit=True)
        assert all(r.grad_true_norm is not None for r in rep.records)
        rep2 = run(q, cfg, x0=np.ones(2), constants=q.constants(), audit=False)
        assert all(r.grad_true_norm is None for r in rep2.records)

    def test_ledger_snapshots_nondecreasing(self):
        problem = synthetic_nls(60, 5, seed=3)
        cfg = SolverConfig(eps_g=1e-2, max_outer_iters=40)
        rep = run(problem, cfg, x0=np.zeros(5))
        props = [r.props for r in rep.records]
        assert all(a < b for a, b in zip(props, props[1:]))
        assert rep.ledger["props"] == props[-1]

    def test_determinism_under_fixed_seed(self):
        problem = synthetic_nls(100, 6, seed=4)
        policy = lambda: SamplingPolicy(mode=SUB_BOTH, grad_batch=20,
                                        hess_batch=10, adaptive=True)
        cfg = SolverConfig(eps_g=5e-3, seed=11, max_outer_iters=30)
        rep1 = run(problem, cfg, policy=policy(), x0=np.zeros(6))
        problem.ledger.reset()
        rep2 = run(problem, cfg, policy=policy(), x0=np.zeros(6))
        assert rep1.iterations == rep2.iterations
        assert [r.props for r in rep1.records] == [r.props for r in rep2.records]
        np.testing.assert_array_equal(rep1.x_final, rep2.x_final)

    def test_reused_policy_gives_identical_runs(self):
        # The adaptive batch grows during a run; it must not carry over
        # into the next run through the caller's policy.
        problem = synthetic_nls(5000, 20, seed=0)
        policy = SamplingPolicy(mode=SUB_BOTH, grad_batch=250, hess_batch=50,
                                adaptive=True)
        cfg = SolverConfig(eps_g=1e-3, seed=0, max_outer_iters=60)
        reports = []
        for _ in range(2):
            problem.ledger.reset()
            reports.append(run(problem, cfg, policy=policy, x0=np.zeros(20)))
        first, second = reports
        assert [r.props for r in first.records] == [r.props for r in second.records]
        np.testing.assert_array_equal(first.x_final, second.x_final)
        assert policy.grad_batch == 250

    def test_adaptive_gradient_batches_follow_the_rule(self):
        # The batch a run draws is its own variable: rebuilt from the
        # per-iteration gradient calls, it must follow the 1.2 rule on the
        # recorded gradient-estimate norms, starting from the policy's size.
        problem = synthetic_nls(5000, 20, seed=0)
        policy = SamplingPolicy(mode=SUB_BOTH, grad_batch=250, hess_batch=50,
                                adaptive=True)
        cfg = SolverConfig(eps_g=1e-3, seed=0, max_outer_iters=200,
                           skip_small_step_block=True)
        rep = run(problem, cfg, policy=policy, x0=np.zeros(20))
        assert rep.iterations == 200
        calls = [r.grad_calls for r in rep.records]
        drawn = [calls[0]] + [b - a for a, b in zip(calls, calls[1:])]
        norms = [r.grad_est_norm for r in rep.records]
        expected = [250, 250]
        for k in range(1, len(norms) - 1):
            expected.append(adapt_grad_batch(expected[-1], norms[k], norms[k - 1],
                                             n_total=problem.n))
        assert drawn == expected
        assert len(set(drawn)) > 5

    def test_back_to_back_runs_report_their_own_calls(self):
        # The problem's ledgers keep counting across runs; records and
        # report count from the start of each run.
        problem = synthetic_nls(300, 5, seed=3)
        cfg = SolverConfig(eps_g=1e-3, max_outer_iters=20)
        first, second = (run(problem, cfg, x0=np.zeros(5), audit=True)
                         for _ in range(2))
        assert first.ledger["props"] == 42300
        assert [r.props for r in first.records] == [r.props for r in second.records]
        assert first.ledger == second.ledger
        assert first.audit_ledger == second.audit_ledger
        assert first.audit_ledger["props"] > 0
        assert problem.ledger.props == 2 * first.ledger["props"]

    def test_sub_eval_policy_runs(self):
        problem = synthetic_nls(200, 5, seed=8)
        policy = SamplingPolicy(mode=SUB_BOTH, grad_batch=30, hess_batch=10,
                                adaptive=True, line_search_eval="batch")
        cfg = SolverConfig(eps_g=5e-3, seed=9, max_outer_iters=50,
                           skip_small_step_block=True)
        rep = run(problem, cfg, policy=policy, x0=np.zeros(5))
        assert rep.iterations >= 1
        # batched line search never evaluates the full objective
        assert rep.ledger["f_calls"] < problem.n * rep.iterations

    def test_k_classes_resolved_retrospectively(self):
        problem = synthetic_nls(80, 4, seed=12)
        cfg = SolverConfig(eps_g=1e-2, max_outer_iters=60,
                           skip_small_step_block=True)
        rep = run(problem, cfg, x0=np.zeros(4))
        for rec in rep.records:
            assert rec.step_class in ("K1", "K2", "K3", "K4", "K5")
        # a successful run ends via certificate at small gradient or a
        # small Newton step
        assert rep.records[-1].step_class in ("K1", "K4")

    def test_certified_termination_implies_final_meo_certificate(self):
        # Certified terminations can only come out of an oracle call, so
        # the terminal record must show oracle iterations.
        q = QuadraticProblem(np.ones(3))
        cfg = SolverConfig(eps_g=1e-4, eps_H=0.1, U_H=1.0, L_H=0.0)
        rep = run(q, cfg, x0=np.ones(3), constants=q.constants())
        assert rep.termination != solver.TERM_MAX_ITERS
        assert rep.records[-1].meo_iters > 0


_SUB_BOTH_1050 = {"mode": SUB_BOTH, "grad_batch": 53, "hess_batch": 11, "adaptive": True}


class TestPresets:
    @pytest.mark.parametrize("name, policy, variant, steps", [
        ("full", SamplingPolicy(mode=EXACT), LINE_SEARCH, {}),
        ("subh", SamplingPolicy(mode=SUB_HESSIAN_ONLY, hess_batch=11), LINE_SEARCH, {}),
        ("inexact-full-eval", SamplingPolicy(**_SUB_BOTH_1050), LINE_SEARCH, {}),
        ("inexact-fixed", SamplingPolicy(**_SUB_BOTH_1050), FIXED_STEP,
         {"alpha_sol_fixed": 0.2, "alpha_nc_fixed": 0.04}),
        ("inexact-sub-eval", SamplingPolicy(**_SUB_BOTH_1050, line_search_eval="batch"),
         LINE_SEARCH, {}),
    ])
    def test_policy_variant_and_config(self, name, policy, variant, steps):
        assert preset(name, 1050) == (
            policy, variant, SolverConfig(skip_small_step_block=True, **steps))
        # The caller's fields win over the preset's settings.
        given = {"skip_small_step_block": False, "seed": 5, "eps_g": 1e-4}
        assert preset(name, 1050, **given)[2] == SolverConfig(**{**steps, **given})

    @pytest.mark.parametrize("name, fields", [
        ("full", {"alpha_sol_fixed": 0.3}),
        ("subh", {"alpha_nc_fixed": 0.3}),
        ("inexact-fixed", {"alpha_sol_fixed": None}),
    ])
    def test_refuses_what_run_refuses(self, name, fields):
        _, variant, _ = preset(name, 1050)
        with pytest.raises(ValueError) as preset_error:
            preset(name, 1050, **fields)
        q = QuadraticProblem(np.ones(2))
        cfg = SolverConfig(skip_small_step_block=True, **fields)
        with pytest.raises(ValueError) as run_error:
            run(q, cfg, variant=variant, x0=np.ones(2), constants=q.constants())
        assert str(preset_error.value) == str(run_error.value)
        assert q.ledger.props == 0

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValueError, match="unknown preset 'exact'"):
            preset("exact", 1050)


class TestRunFixedStep:
    def test_saddle_fixed_step_audit(self):
        problem = SaddleProblem(3, mu=1.0, gamma=1.0)
        consts = problem.constants()
        cfg = SolverConfig(eps_g=1e-3, U_H=consts.U_H, L_H=consts.L_H, seed=21,
                           max_outer_iters=5000)
        rep = run(problem, cfg, variant=FIXED_STEP, x0=np.zeros(3),
                  constants=consts, audit=True)
        assert rep.termination in (
            solver.TERM_CERTIFIED_AT_CURRENT, solver.TERM_FIRST_ORDER_AND_CERTIFIED
        )
        fs = [r.f_value for r in rep.records]
        assert all(a > b for a, b in zip(fs, fs[1:]))
        assert not rep.audit["violations"]
        assert rep.iterations <= rep.audit["iteration_bound"]

    def test_step_size_overrides_respected(self):
        problem = synthetic_nls(50, 4, seed=23)
        cfg = SolverConfig(eps_g=1e-2, seed=2, max_outer_iters=10,
                           alpha_sol_fixed=0.2, alpha_nc_fixed=0.04,
                           skip_small_step_block=True)
        rep = run(problem, cfg, variant=FIXED_STEP, x0=np.zeros(4))
        for rec in rep.records:
            if rec.alpha is not None:
                assert rec.alpha in (0.2, 0.04)

    @pytest.mark.parametrize("override", ["alpha_sol_fixed", "alpha_nc_fixed"])
    def test_line_search_rejects_step_size_overrides(self, override):
        # LineSearch never reads the overrides; accepting one would drop
        # the requested step size silently.
        q = QuadraticProblem(np.ones(4))
        cfg = SolverConfig(eps_g=1e-3, **{override: 0.3})
        with pytest.raises(ValueError, match="FixedStep only"):
            run(q, cfg, x0=np.ones(4), constants=q.constants())
        assert q.ledger.props == 0

    def test_derived_newton_step_needs_the_small_step_block(self):
        # With the block skipped, small Newton steps take fixed_step_sol's
        # alpha past 1 (up to 2.68 here) and f rises: audited, the run
        # failed monotone_decrease at iteration 27.  So it is refused.
        problem = SaddleProblem(3, mu=1.0, gamma=0.5)
        x0 = np.array([0.5, 0.0, 0.0])
        cfg = SolverConfig(eps_g=1e-3, seed=0, skip_small_step_block=True)
        for audit in (False, True):
            with pytest.raises(ValueError, match="alpha_sol_fixed.*skip_small_step_block"):
                run(problem, cfg, variant=FIXED_STEP, x0=x0, audit=audit)
        assert problem.ledger.props == problem.audit_ledger.props == 0
        rep = run(problem, dataclasses.replace(cfg, skip_small_step_block=False),
                  variant=FIXED_STEP, x0=x0, audit=True)
        assert rep.termination == solver.TERM_FIRST_ORDER_AND_CERTIFIED
        assert rep.iterations == 26
        fs = [r.f_value for r in rep.records]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_zero_l_h_rejected_when_steps_are_derived(self):
        # The derived steps assume L_H > 0; at L_H = 0 the Newton step
        # overshoots and f rises, so the run is refused up front.
        q = QuadraticProblem(np.array([3.0, 1.0, 0.5, 2.0]))
        cfg = SolverConfig(eps_g=1e-4, eps_H=0.1, U_H=3.0, L_H=0.0)
        for audit in (False, True):
            with pytest.raises(ValueError, match="L_H > 0"):
                run(q, cfg, variant=FIXED_STEP, constants=q.constants(),
                    x0=np.array([1.0, 2.0, -2.0, 0.3]), audit=audit)

    @pytest.mark.parametrize("override", ["alpha_sol_fixed", "alpha_nc_fixed"])
    def test_one_override_still_needs_l_h(self, override):
        # The step without an override is derived, so L_H is needed.
        problem = SaddleProblem(3, mu=1.0, gamma=1.0)
        consts = problem.constants()
        consts.L_H = None
        cfg = SolverConfig(eps_g=1e-3, eps_H=0.1, U_H=consts.U_H, seed=21,
                           max_outer_iters=200, **{override: 0.05})
        with pytest.raises(ValueError, match="L_H > 0"):
            run(problem, cfg, variant=FIXED_STEP, x0=np.zeros(3), constants=consts)

    def test_fixed_step_needs_l_h_or_overrides(self):
        q = QuadraticProblem(np.ones(2))
        consts = q.constants()
        consts.L_H = None
        cfg = SolverConfig(eps_g=1e-3, eps_H=0.1, U_H=1.0)
        with pytest.raises(ValueError):
            run(q, cfg, variant=FIXED_STEP, x0=np.ones(2), constants=consts)


def csr_instance():
    problem = synthetic_nls(3000, 20, seed=3)
    return NLSProblem(sp.csr_matrix(problem.A), problem.b)


class TestBlockValuedRecords:
    """Outside an audit, records whose f comes through the audit channel
    are valued in blocks of iterates; nothing a run reports may change."""

    @pytest.mark.parametrize("name", ["inexact-sub-eval", "inexact-fixed"])
    def test_block_size_changes_no_output(self, monkeypatch, tmp_path, name):
        def solve(tag):
            problem = csr_instance()
            policy, variant, cfg = preset(name, problem.n, eps_g=1e-3, seed=2,
                                          max_outer_iters=40)
            rep = run(problem, cfg, policy=policy, variant=variant)
            path = tmp_path / (tag + ".csv")
            write_run_csv(path, rep)
            return (rep.records, path.read_bytes(), rep.ledger, rep.audit_ledger,
                    rep.termination, rep.final_f, rep.final_true_grad_norm)

        blocks = solve("blocks")
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_F_BLOCK", 1)
            ones = solve("ones")
        with monkeypatch.context() as patch:
            # The unblocked reference: one audit_f per iterate.
            patch.setattr(NLSProblem, "audit_f_many", ObjectiveOracle.audit_f_many)
            each = solve("each")
        assert blocks == ones == each
        assert len(blocks[0]) > 2 * solver._F_BLOCK

    def test_contract_violation_reads_its_block_valued_f(self):
        # The first line search fails; final_f is f(x0) = mean (b - 1/2)^2.
        problem = csr_instance()
        cfg = SolverConfig(eps_g=1e-3, eta=1e6, max_ls_trials=1,
                           skip_small_step_block=True)
        rep = run(problem, cfg, policy=preset_policy("inexact-sub-eval", problem.n))
        assert rep.termination == solver.TERM_CONTRACT_VIOLATION
        assert rep.iterations == 1
        assert rep.final_f == rep.records[-1].f_value == 0.25


class TestConfigValidation:
    @pytest.mark.parametrize("seed", [-3, -1, np.int64(-2)])
    def test_negative_seed_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SolverConfig(seed=seed)

    @pytest.mark.parametrize("seed", [np.random.default_rng(4), 1.0, "3", None, True])
    def test_seeds_other_than_integers_are_refused(self, seed):
        # A Generator seed used to be drawn from by the run, so running one
        # config twice gave two different runs (props 31,168, then 44,168).
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SolverConfig(seed=seed)

    def test_zeta_must_stay_below_u_h(self):
        q = QuadraticProblem(np.ones(2) * 0.25)
        cfg = SolverConfig(eps_g=1e-3, eps_H=0.1, U_H=0.25, zeta=0.5)
        with pytest.raises(ValueError):
            run(q, cfg, x0=np.ones(2), constants=q.constants())

    def test_eps_h_must_stay_below_one(self):
        q = QuadraticProblem(np.ones(2))
        with pytest.raises(ValueError):
            SolverConfig(eps_g=1e-3, eps_H=1.5)
        # derived eps_H = sqrt(L_H eps_g) >= 1 is also rejected
        cfg = SolverConfig(eps_g=0.5, U_H=1.0, L_H=400.0)
        with pytest.raises(ValueError):
            run(q, cfg, x0=np.ones(2), constants=None)

    @pytest.mark.parametrize("value", [0.0, -0.2, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["alpha_sol_fixed", "alpha_nc_fixed"])
    def test_step_overrides_must_be_finite_and_positive(self, name, value):
        # A zero step stalls, a negative one climbs, and a non-finite one
        # failed only after the first step, on the iterate.
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_l_h_must_be_finite_and_nonnegative(self, value):
        # A negative L_H used to run with eps_H = sqrt(eps_g), and fail in
        # the audit's decrease constants with a math domain error.
        with pytest.raises(ValueError, match="L_H must be finite"):
            SolverConfig(L_H=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_u_h_must_be_finite_and_positive(self, value):
        # nan and inf used to pass here and fail at the first capped-CG
        # call with a message naming M_init; 0 and -1 failed in the run.
        with pytest.raises(ValueError, match="U_H"):
            SolverConfig(U_H=value)

    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_zeta_must_lie_in_the_unit_interval(self, value):
        with pytest.raises(ValueError, match="zeta"):
            SolverConfig(zeta=value)

    @pytest.mark.parametrize("value", [0, -3, 2.5, True, None])
    @pytest.mark.parametrize("name", ["max_outer_iters", "max_ls_trials"])
    def test_budgets_must_be_positive_integers(self, name, value):
        # 2.5 used to fail inside the run, in range() or islice().
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    def test_integral_budgets_of_any_integer_type_pass(self):
        cfg = SolverConfig(eps_g=1e-3, eps_H=0.1, U_H=1.0, L_H=0.0,
                           max_outer_iters=np.int64(7), max_ls_trials=np.int32(5))
        q = QuadraticProblem(np.ones(2))
        rep = run(q, cfg, x0=np.ones(2), constants=q.constants())
        assert 1 <= rep.iterations <= 7

    def test_theta_tilde_range(self):
        with pytest.raises(ValueError):
            SolverConfig(theta_tilde=0.05)  # below (2 - sqrt(3))^2
        with pytest.raises(ValueError):
            SolverConfig(theta_tilde=1.0)

    def test_unknown_variant_rejected(self):
        q = QuadraticProblem(np.ones(2))
        with pytest.raises(ValueError):
            run(q, SolverConfig(eps_H=0.1, U_H=1.0), variant="Sideways",
                x0=np.ones(2), constants=q.constants())

    def test_cg_iteration_override_enforced(self, monkeypatch):
        monkeypatch.setattr(ntcg.capped_cg, "j_cap", lambda M, eps, zeta: 1)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 20))
        H_mat = A @ A.T + 0.5 * np.eye(20)
        with pytest.raises(ContractViolation, match="iteration cap"):
            ntcg.capped_cg.capped_cg(
                MatrixOperator(H_mat),
                rng.standard_normal(20),
                epsilon=0.01, zeta=0.1,
            )


class TestConditionMachinery:
    def test_condition_results_recorded_for_sampled_audit(self):
        problem = synthetic_nls(300, 5, seed=31)
        policy = SamplingPolicy(mode=SUB_BOTH, grad_batch=60, hess_batch=30)
        cfg = SolverConfig(eps_g=5e-3, seed=32, max_outer_iters=15,
                           skip_small_step_block=True)
        rep = run(problem, cfg, policy=policy, x0=np.zeros(5), audit=True)
        assert all(isinstance(r["ok"], bool) for r in rep.audit["condition_results"])
        # Every record of a run that hit the cap has its condition result.
        assert rep.termination == solver.TERM_MAX_ITERS
        assert [r.k for r in rep.records] == list(range(15))
        assert [c["k"] for c in rep.audit["condition_results"]] == list(range(15))

    @pytest.mark.parametrize("policy, expected", [
        (SamplingPolicy(mode=SUB_HESSIAN_ONLY, hess_batch=20), None),
        (SamplingPolicy(mode=SUB_BOTH, grad_batch=100, hess_batch=20), False),
    ], ids=["subh", "sub-both"])
    def test_unmeasured_hessian_error_is_not_met(self, policy, expected):
        # Above dimension 64 the audit does not measure ||H_S - H||, which
        # here breaks its bound: a 20-row batch at x0 is off by about 0.11
        # against (1 - zeta)/4 * eps_H = 6.25e-4.  The condition is then
        # unchecked, or failed when a 100-row gradient batch breaks it.
        problem = synthetic_nls(2000, 100, link=TANH, seed=0)
        idx = np.random.default_rng(0).choice(problem.n, 20, replace=False)
        x0 = np.zeros(problem.dim)
        H_err = problem.dense_hessian(x0, idx) - problem.dense_hessian(x0)
        assert np.linalg.norm(H_err, 2) > 100 * (1 - 0.5) / 4 * 5e-3
        cfg = SolverConfig(eps_g=1e-3, eps_H=5e-3, seed=0, max_outer_iters=10)
        rep = run(problem, cfg, policy=policy, x0=x0, audit=True)
        assert [c["ok"] for c in rep.audit["condition_results"]] == [expected] * 10

    @pytest.mark.parametrize("batches, expected", [
        ((100, 30), False), ((300, 300), None),
    ], ids=["cond2-fails", "full-batches"])
    def test_cond3_without_l_h_is_unchecked_unless_cond2_fails(self, batches, expected):
        # A FixedStep run with both step overrides needs no L_H, but Cond3
        # caps Cond2's gradient bound by 3 eps_H^2 / (65 (L_H + eta)).
        problem = synthetic_nls(300, 5, seed=31)
        constants = dataclasses.replace(problem.constants(), L_H=None)
        cfg = SolverConfig(eps_g=5e-3, eps_H=0.1, alpha_sol_fixed=0.2,
                           alpha_nc_fixed=0.04, max_outer_iters=5)
        policy = SamplingPolicy(mode=SUB_BOTH, grad_batch=batches[0],
                                hess_batch=batches[1])
        rep = run(problem, cfg, policy=policy, variant=FIXED_STEP,
                  constants=constants, audit=True)
        assert [c["ok"] for c in rep.audit["condition_results"]] == [expected] * 5


class TestFullBatchIndexSet:
    @pytest.mark.parametrize("mode,hessian_full", [(EXACT, True),
                                                   (SUB_HESSIAN_ONLY, False)])
    def test_full_batches_pass_the_shared_index_set(self, mode, hessian_full):
        # Full batches reach the oracle as its own read-only index set, so
        # the memo and the Hessian operator can match them by identity.
        problem = synthetic_nls(200, 5, seed=3)
        full = problem.full_index_set()
        seen = {"grad": set(), "hvp": set()}
        eval_grad, eval_hvp = problem.eval_grad, problem.eval_hvp

        def spy_grad(x, index_set, ledger=None):
            seen["grad"].add(index_set is full)
            return eval_grad(x, index_set, ledger=ledger)

        def spy_hvp(x, v, index_set):
            seen["hvp"].add(index_set is full)
            return eval_hvp(x, v, index_set)

        problem.eval_grad, problem.eval_hvp = spy_grad, spy_hvp
        policy = SamplingPolicy(mode=mode, hess_batch=20)
        cfg = SolverConfig(eps_g=1e-8, seed=4, max_outer_iters=4,
                           skip_small_step_block=True)
        rep = run(problem, cfg, policy=policy, x0=np.zeros(5))
        assert len(rep.records) == 4
        assert seen == {"grad": {True}, "hvp": {hessian_full}}
