"""Audit mode: the paper's guarantees, checked against exact values.

Audit mode recomputes exact quantities through a ledger-exempt channel and
enforces the per-step decrease floors, backtracking caps, and iteration
bounds, raising ContractViolation on the first failure.  Sampled runs also
check the gradient/Hessian accuracy conditions (Cond2 for LineSearch,
Cond3 for FixedStep) retrospectively, once the next gradient estimate is
known.  Without audit no checks run; a step rule that fails (an exhausted
line search, a broken fixed-step discriminant) is logged and ends the run
with a ContractViolation status.
"""

import math

import numpy as np

from .capped_cg import NC, SOL
from .exceptions import ContractViolation

COND2 = "Cond2"
COND3 = "Cond3"


def verify_condition(delta_g_used, delta_H_used, context, which=COND2):
    """Retrospective check of the gradient/Hessian accuracy conditions.

    delta_g_used / delta_H_used are the measured true errors
    ||g_k - grad f(x_k)|| and ||H_k - hess f(x_k)|| (audit mode computes
    them exactly).  `context` supplies eps_g, eps_H, zeta, eta, L_H,
    norm_d, norm_g, norm_g_next.  norm_g_next is available only after the
    step, which is why this check is retrospective by nature.

    Cond2:  delta_g <= (1-zeta)/8 * max(eps_g, min(eps_H*||d||, ||g_k||,
            ||g_{k+1}||)),  delta_H <= (1-zeta)/4 * eps_H.
    Cond3:  same delta_H; the delta_g bound additionally capped by
            3*eps_H^2 / (65*(L_H+eta)).
    """
    zeta = context["zeta"]
    eps_g = context["eps_g"]
    eps_H = context["eps_H"]
    adaptive = max(
        eps_g,
        min(eps_H * context["norm_d"], context["norm_g"], context["norm_g_next"]),
    )
    if which == COND2:
        g_bound = (1.0 - zeta) / 8.0 * adaptive
    elif which == COND3:
        cap = 3.0 * eps_H**2 / (65.0 * (context["L_H"] + context["eta"]))
        g_bound = (1.0 - zeta) / 8.0 * min(cap, adaptive)
    else:
        raise ValueError("which must be %r or %r" % (COND2, COND3))
    H_bound = (1.0 - zeta) / 4.0 * eps_H
    return delta_g_used <= g_bound and delta_H_used <= H_bound


# -- decrease constants and iteration bounds -----------------------------------


def c_sol_constant(eta, theta, zeta, L_H):
    return (eta / 6.0) * min(
        (1.0 + 2.0 * L_H) ** -1.5,
        (3.0 * theta**2 * (1.0 - zeta) / (4.0 * (L_H + eta))) ** 1.5,
    )


def c_nc_constant(eta, theta, L_H):
    return (eta / 6.0) * min((3.0 * theta / (2.0 * (L_H + eta))) ** 3, 1.0)


def cbar_sol_constant(eta, zeta, L_H):
    return (eta / 6.0) * (3.0 * (1.0 - zeta) / (4.0 * L_H * (L_H + eta))) ** 1.5


def cbar_nc_constant(eta, theta_tilde, L_H):
    return (eta / 6.0) * (3.0 * theta_tilde / (4.0 * (L_H + eta))) ** 3


def j_sol_cap(theta, zeta, eps_H, U_g, L_H, eta):
    """Backtracking depth bound for accepted Newton directions."""
    arg = 3.0 * (1.0 - zeta) * eps_H**2 / (4.4 * U_g * (L_H + eta))
    return math.ceil(0.5 * math.log(arg) / math.log(theta))


def j_nc_cap(theta, L_H, eta):
    """Backtracking depth bound for curvature directions."""
    return math.ceil(math.log(3.0 / (2.0 * (L_H + eta))) / math.log(theta))


def iteration_bound(f0_minus_flow, L_H, c_sol, c_nc, eps, fixed_step=False):
    """Worst-case outer-iteration count for audit comparison.

    c_sol and c_nc are the decrease constants of the run's variant:
    c_sol_constant / c_nc_constant for LineSearch, cbar_sol_constant /
    cbar_nc_constant for FixedStep (`fixed_step`).  Stated under the
    coupling eps_H = sqrt(L_H * eps).
    """
    if fixed_step:
        denom = min(c_sol, c_nc / 8.0) * L_H**1.5
        return 2 * math.ceil(f0_minus_flow / denom * eps**-1.5) + 3
    denom = min(c_sol / (64.0 * L_H**1.5), 8.0 * L_H**1.5 * c_sol, L_H**1.5 * c_nc / 8.0)
    return math.ceil(3.0 * f0_minus_flow / denom * eps**-1.5) + 5


class _Audit:
    """Guarantee checks of an audit run, recomputed exactly through the
    ledger-exempt audit channel.

    The first failed check raises ContractViolation, so a returned summary
    never lists violations.  Checks that need the next gradient norm (the
    retrospective accuracy condition and the Newton-step decrease floor)
    wait in `pending` until `resolve`.  `n_checks` counts the per-iteration
    checks; the iteration bound is reported on its own.  The Hessian error
    is measured up to dimension 64; above it a condition that the gradient
    error does not break is recorded as unchecked (`ok` None), as is a
    Cond3 that Cond2 does not break when L_H is unknown.
    """

    def __init__(self, problem, cfg, constants, fixed_step, exact_policy,
                 guaranteed_step):
        self.problem = problem
        self.cfg = cfg
        self.constants = constants
        self.fixed_step = fixed_step
        self.exact_policy = exact_policy
        self.guaranteed_step = self.exact_policy and guaranteed_step
        self.which = COND3 if fixed_step else COND2
        self.n_checks = 0
        self.condition_results = []
        self.pending = None
        self.delta_g = None
        self.x_next = self.f_next = None  # the last step's x_{k+1} and f there

    def check(self, k, name, ok, lhs, rhs):
        self.n_checks += 1
        if not ok:
            raise ContractViolation(
                "iteration %d: %s failed (%r vs %r)" % (k, name, lhs, rhs))

    def decrease_constant(self, d_type):
        """c_sol / c_nc under LineSearch, cbar_sol / cbar_nc under FixedStep."""
        cfg = self.cfg
        if self.fixed_step:
            if d_type == SOL:
                return cbar_sol_constant(cfg.eta, cfg.zeta, cfg.L_H)
            return cbar_nc_constant(cfg.eta, cfg.theta_tilde, cfg.L_H)
        if d_type == SOL:
            return c_sol_constant(cfg.eta, cfg.theta, cfg.zeta, cfg.L_H)
        return c_nc_constant(cfg.eta, cfg.theta, cfg.L_H)

    def f(self, x):
        """f(x) through the audit channel, reusing the last step's value."""
        if x is self.x_next:
            return self.f_next
        return self.problem.audit_f(x)

    def gradient(self, x, g):
        """Exact ||grad f(x)||; keeps the estimate's error for the condition."""
        exact_g = self.problem.audit_grad(x)
        self.delta_g = float(np.linalg.norm(g - exact_g))
        return float(np.linalg.norm(exact_g))

    def step(self, record, x, x_next, d, g, hess_idx, f_here):
        """Checks of a step just taken; queues the retrospective ones."""
        cfg, k, d_type = self.cfg, record.k, record.d_type
        eps_g, eps_H, L_H = cfg.eps_g, cfg.eps_H, cfg.L_H
        norm_d = float(np.linalg.norm(d))
        self.x_next, self.f_next = x_next, self.problem.audit_f(x_next)
        decrease = f_here - self.f_next
        if self.guaranteed_step:
            self.check(k, "monotone_decrease", decrease > 0.0, self.f_next, f_here)
        if self.guaranteed_step and L_H is not None:
            if d_type == NC:
                floor = self.decrease_constant(NC) * eps_H**3
                if record.nc_origin == "meo":
                    floor /= 8.0
                self.check(k, "nc_decrease_floor", decrease >= floor - 1e-12,
                           decrease, floor)
            elif self.fixed_step and norm_d >= eps_g / eps_H:
                floor = self.decrease_constant(SOL) * eps_H**3
                self.check(k, "fixed_sol_decrease_floor",
                           decrease >= floor - 1e-12, decrease, floor)
        if self.exact_policy and not self.fixed_step and L_H is not None:
            trials = record.ls_trials
            if d_type == NC:
                cap = j_nc_cap(cfg.theta, L_H, cfg.eta) + 1
                j_used = math.ceil(trials / 2) - 1
                self.check(k, "nc_backtrack_cap", j_used <= cap, j_used, cap)
            else:
                cap = 1 + j_sol_cap(cfg.theta, cfg.zeta, eps_H, self.constants.U_g,
                                    L_H, cfg.eta)
                self.check(k, "sol_backtrack_cap", trials - 1 <= cap, trials - 1, cap)
        if d_type == NC:
            self.check(k, "nc_against_gradient", float(d @ g) <= 1e-12,
                       float(d @ g), 0.0)

        condition = None
        if not self.exact_policy:
            delta_H = None
            if self.problem.dim <= 64:  # every sampled mode samples the Hessian
                H_err = (self.problem.dense_hessian(x, hess_idx)
                         - self.problem.dense_hessian(x))
                delta_H = float(np.linalg.norm(H_err, 2))
            condition = dict(vars(cfg), delta_g_used=self.delta_g, delta_H_used=delta_H,
                             norm_d=norm_d, norm_g=record.grad_est_norm)
        sol_floor = None
        if (
            self.exact_policy and not self.fixed_step and d_type == SOL
            and norm_d > eps_g / eps_H and L_H is not None
        ):
            sol_floor = self.decrease_constant(SOL)
        self.pending = {"k": k, "condition": condition, "sol_floor": sol_floor,
                        "decrease": decrease}

    def resolve(self, norm_g_next, exact_g_next_norm):
        """Close the pending checks with the next gradient estimate's norm
        ||g_{k+1}|| and the exact one known."""
        pending, self.pending = self.pending, None
        if pending is None:
            return
        k, ctx = pending["k"], pending["condition"]
        if ctx is not None:
            # Cond3 only tightens Cond2's gradient bound by a cap that needs
            # L_H; without it Cond2 can show a failure but not a pass.
            which = self.which if ctx["L_H"] is not None else COND2
            delta_H = ctx["delta_H_used"]
            ok = verify_condition(ctx["delta_g_used"], delta_H or 0.0,
                                  dict(ctx, norm_g_next=norm_g_next), which=which)
            decided = delta_H is not None and which == self.which
            self.condition_results.append(
                {"k": k, "ok": None if ok and not decided else bool(ok)})
        if pending["sol_floor"] is not None:
            eps_H, decrease = self.cfg.eps_H, pending["decrease"]
            floor = pending["sol_floor"] * max(0.0, min(
                exact_g_next_norm**3 / (2.5 * eps_H) ** 3, (2.5 * eps_H) ** 3,
                self.cfg.eps_g ** 1.5,
            ))
            self.check(k, "sol_decrease_floor", decrease >= floor - 1e-12,
                       decrease, floor)

    def summary(self, records):
        """The audit report; checks the iteration bound where it applies."""
        summary = {
            "n_checks": self.n_checks,
            "violations": [],
            "condition_results": self.condition_results,
        }
        eps_g, eps_H, L_H = self.cfg.eps_g, self.cfg.eps_H, self.cfg.L_H
        f_low = self.constants.f_low
        if (
            self.exact_policy and records and L_H and math.isfinite(f_low)
            and abs(eps_H - math.sqrt(L_H * eps_g)) <= 1e-12 * max(1.0, eps_H)
        ):
            bound = iteration_bound(records[0].f_value - f_low, L_H,
                                    self.decrease_constant(SOL),
                                    self.decrease_constant(NC), eps_g,
                                    fixed_step=self.fixed_step)
            summary["iteration_bound"] = bound
            self.check(-1, "iteration_bound", len(records) <= bound,
                       len(records), bound)
        return summary
