"""Outer drivers: damped-Newton steps with negative-curvature exploitation.

Two variants share one control flow.  Per iteration, with gradient estimate
g_k and Hessian estimate H_k:

  * ||g_k|| >= eps_g: solve the damped system with capped CG.  A returned
    negative-curvature direction is rescaled so its norm equals its
    curvature magnitude; an approximate solution whose norm is at most
    eps_g/eps_H triggers the minimum-eigenvalue oracle, which either
    certifies approximate second-order optimality (terminate at x_k + d_k)
    or supplies a curvature direction to step along.  The small-step block
    can be skipped (`skip_small_step_block`), the practical mode used by
    the benchmark presets.
  * ||g_k|| < eps_g: the minimum-eigenvalue oracle either certifies
    (terminate at x_k) or supplies a curvature direction.

The LineSearch variant picks steps by backtracking on the cubic decrease
condition

    f(x + alpha d) < f(x) - (eta/6) |alpha|^3 ||d||^3,

bidirectionally (1, -1, theta, -theta, ...) for curvature directions, since
the sign of d^T grad f is unknown when the gradient is inexact.  Each
counted value is paid for once: under full evaluation f(x_k) is the
accepted trial value of the previous search (the same expression
x + alpha d on the same set); a batch search evaluates f(x_k) on its
fresh batch every iteration, and its trials read the rows the gradient
batch copied, so each drawn index set is copied once.  The FixedStep
variant replaces the search with predefined step sizes that provably
satisfy the same decrease condition given accuracy levels (delta_g,
delta_H) on the estimates, here 0.

The driver is a single logical thread: all randomness (batch draws and
oracle start vectors) flows from one seeded generator, and the adaptive
gradient batch is a variable of the run, not of the (frozen) sampling
policy, so a (config, policy, problem) triple determines the run exactly.
Record and report props count the problem's oracle calls since the run
started, so back-to-back runs on one problem report the same counts
whether or not its ledgers are reset.
"""

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ._validation import as_generator, check_interval, check_vector
from .audit import _Audit
from .capped_cg import NC, SOL, capped_cg
from .exceptions import ContractViolation
from .meo import meo_lanczos
from . import sampling  # called through the module, where bench/tracing.py wraps it
from .sampling import EXACT, SUB_BOTH, SUB_HESSIAN_ONLY, SamplingPolicy

logger = logging.getLogger(__name__)

LINE_SEARCH = "LineSearch"
FIXED_STEP = "FixedStep"

TERM_FIRST_ORDER_AND_CERTIFIED = "FirstOrderAndCertified"  # returned x_k + d_k
TERM_CERTIFIED_AT_CURRENT = "CertifiedAtCurrentPoint"  # returned x_k
TERM_MAX_ITERS = "MaxIters"
TERM_CONTRACT_VIOLATION = "ContractViolation"

THETA_TILDE_LOW = (2.0 - math.sqrt(3.0)) ** 2  # ~0.0718

# Iterates whose record f waits for the audit channel are valued this many
# at a time (ObjectiveOracle.audit_f_many).
_F_BLOCK = 16


@dataclass
class SolverConfig:
    """Driver parameters.

    eps_H defaults to sqrt(L_H * eps_g) when left None (the coupling under
    which the iteration bounds are stated), falling back to sqrt(eps_g)
    for problems that declare L_H = 0.  U_H and L_H default to the problem
    constants at run time; `RunReport.config_resolved` holds the filled copy.
    """

    eps_g: float = 1e-3
    eps_H: Optional[float] = None
    theta: float = 0.5
    eta: float = 0.1
    zeta: float = 0.5
    delta: float = 0.05
    theta_tilde: float = 0.9
    U_H: Optional[float] = None
    L_H: Optional[float] = None
    max_outer_iters: int = 10_000
    max_ls_trials: int = 60
    skip_small_step_block: bool = False
    seed: int = 0
    # FixedStep overrides replacing the derived formulas (benchmark preset);
    # a LineSearch run rejects them.
    alpha_sol_fixed: Optional[float] = None
    alpha_nc_fixed: Optional[float] = None

    def __post_init__(self):
        check_interval(self.eps_g, "eps_g", 0.0, 1.0)
        if self.eps_H is not None:
            check_interval(self.eps_H, "eps_H", 0.0, 1.0)
        check_interval(self.theta, "theta", 0.0, 1.0)
        check_interval(self.eta, "eta", 0.0, math.inf)
        check_interval(self.zeta, "zeta", 0.0, 1.0)
        check_interval(self.delta, "delta", 0.0, 1.0)
        check_interval(self.theta_tilde, "theta_tilde", THETA_TILDE_LOW, 1.0)
        if self.L_H is not None and not (math.isfinite(self.L_H) and self.L_H >= 0):
            raise ValueError("L_H must be finite and >= 0, got %r" % (self.L_H,))
        for name in ("U_H", "alpha_sol_fixed", "alpha_nc_fixed"):
            if getattr(self, name) is not None:
                check_interval(getattr(self, name), name, 0.0, math.inf)
        if (isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool)
                and self.seed < 0):
            raise ValueError("seed must be a non-negative integer or a numpy "
                             "Generator, got %r" % (self.seed,))
        for name in ("max_outer_iters", "max_ls_trials"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise ValueError("%s must be a positive integer, got %r" % (name, value))


# The benchmark presets: name -> (sampling mode, line-search objective, step
# rule).  `preset` sizes their batches and fills their settings.
PRESETS = {
    "full": (EXACT, "full", LINE_SEARCH),
    "subh": (SUB_HESSIAN_ONLY, "full", LINE_SEARCH),
    "inexact-full-eval": (SUB_BOTH, "full", LINE_SEARCH),
    "inexact-fixed": (SUB_BOTH, "full", FIXED_STEP),
    "inexact-sub-eval": (SUB_BOTH, "batch", LINE_SEARCH),
}


def preset(name, n):
    """(policy, variant, settings) of the benchmark preset `name` on n
    components.

    policy : its SamplingPolicy.  "full" evaluates exactly; the others draw
        Hessian batches of ceil(0.01 n), and the inexact ones add an
        adaptive gradient batch starting at ceil(0.05 n), on which
        "inexact-sub-eval" also estimates the line-search objective (a
        heuristic outside the decrease guarantees).
    variant : FIXED_STEP for "inexact-fixed", else LINE_SEARCH.
    settings : the SolverConfig fields the preset fills unless the caller
        gives them: the small-step block skipped (the practical mode), and
        under FixedStep the steps 0.2 (Newton type) and 0.04 (curvature).
    """
    if name not in PRESETS:
        raise ValueError("unknown preset %r" % (name,))
    mode, line_search_eval, variant = PRESETS[name]
    policy = SamplingPolicy(
        mode=mode,
        grad_batch=max(1, math.ceil(0.05 * n)) if mode == SUB_BOTH else 0,
        hess_batch=max(1, math.ceil(0.01 * n)) if mode != EXACT else 0,
        adaptive=mode == SUB_BOTH,
        line_search_eval=line_search_eval,
    )
    settings = {"skip_small_step_block": True}
    if variant == FIXED_STEP:
        settings.update(alpha_sol_fixed=0.2, alpha_nc_fixed=0.04)
    return policy, variant, settings


@dataclass
class IterationRecord:
    """One row of a run trace.

    f_value is the objective at the iterate the iteration started from.
    Under full line-search evaluation it is the driver's own full-set value,
    carried from the previous accepted trial or evaluated for the first
    search; otherwise (batch evaluation, FixedStep, an iterate that no
    search has reached) it is recomputed through the ledger-exempt audit
    channel so convergence curves stay comparable across variants.  That
    is one full objective value per iteration made only for this field,
    counted in RunReport.audit_ledger (n audit props each) and not in
    props.  Outside an audit, iterates whose gradient batch was a sample
    are valued 16 at a time through ``audit_f_many``, which on CSR data
    reads the matrix once per block instead of once per iterate.

    step_class follows the K1..K5 taxonomy: K1 small gradient, K2/K3
    accepted Newton steps split on whether the next gradient estimate fell
    below eps_g, K4 small Newton step, K5 curvature step.  The K2/K3 split
    for the final record of a run that hit the iteration cap falls back to
    the exact final gradient norm.
    """

    k: int
    f_value: float
    grad_est_norm: float
    d_type: Optional[str]
    step_class: Optional[str]
    alpha: Optional[float]
    ls_trials: int
    cg_iters: int
    meo_iters: int
    f_calls: int
    grad_calls: int
    hv_calls: int
    props: int
    grad_true_norm: Optional[float] = None
    nc_origin: Optional[str] = None  # "cg" or "meo"


@dataclass
class RunReport:
    records: list
    termination: str
    x_final: np.ndarray
    final_f: float
    final_true_grad_norm: float
    config_resolved: SolverConfig
    ledger: dict
    audit_ledger: dict
    audit: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return len(self.records)


# -- direction scaling -------------------------------------------------------


def _sgn(value):
    # sgn(0) := +1 keeps d^T g <= 0 after scaling.
    return 1.0 if value >= 0 else -1.0


def scale_nc_direction(d_raw, hvp, g, curvature=None):
    """Rescale a raw curvature direction so its norm equals
    |d^T H d| / ||d||^2 and it points against the gradient estimate.

    The result satisfies d^T H d / ||d||^2 = -||d|| and d^T g <= 0.
    `curvature` is d_raw^T H d_raw when the caller already holds it (capped
    CG's `CappedCGResult.curvature`); otherwise one product hvp(d_raw) pays
    for it.
    """
    d_raw = np.asarray(d_raw, dtype=np.float64)
    norm = np.linalg.norm(d_raw)
    if norm == 0.0:
        raise ValueError("cannot scale a zero direction")
    if curvature is None:
        curvature = float(d_raw @ hvp(d_raw))
    sign = _sgn(float(d_raw @ g))
    return -sign * (abs(curvature) / norm**2) * (d_raw / norm)


def scale_meo_direction(v, g, curvature):
    """Scale a unit eigenvector estimate v to length |curvature| (v^T H v,
    the MEO's `MEOResult.lam`), signed against the gradient estimate."""
    v = np.asarray(v, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("v must be a unit vector")
    sign = _sgn(float(v @ g))
    return -(sign * abs(curvature)) * v


# -- line searches ------------------------------------------------------------


def _backtrack(f_eval, x, d, eta, f0, max_trials, steps, name):
    """(alpha, trials, f_eval(x + alpha d)) for the first of `steps` that
    meets the cubic decrease condition; ContractViolation once max_trials
    have failed."""
    d = np.asarray(d, dtype=np.float64)
    norm_d3 = float(np.linalg.norm(d)) ** 3
    if norm_d3 == 0.0:
        raise ValueError("zero direction")
    if f0 is None:
        f0 = f_eval(x)
    for trials, alpha in enumerate(itertools.islice(steps, max_trials), start=1):
        f_trial = f_eval(x + alpha * d)
        if f_trial < f0 - (eta / 6.0) * abs(alpha) ** 3 * norm_d3:
            return alpha, trials, f_trial
    raise ContractViolation("%s exhausted %d trials" % (name, max_trials))


def line_search_sol(f_eval, x, d, eta, theta, f0=None, max_trials=60):
    """Backtracking over theta^j; returns (alpha, trials, f_new).

    trials counts candidate evaluations beyond f(x); f_new is f_eval at the
    accepted point x + alpha d, which a caller evaluating f on the same set
    at the next iterate can reuse.  Exceeding max_trials means the decrease
    condition is unreachable, which the theory rules out under the accuracy
    conditions, hence ContractViolation.
    """
    return _backtrack(f_eval, x, d, eta, f0, max_trials,
                      (theta**j for j in itertools.count()), "line search")


def line_search_nc(f_eval, x, d, eta, theta, f0=None, max_trials=60):
    """Bidirectional backtracking over 1, -1, theta, -theta, theta^2, ...

    The decrease condition uses |alpha|; returns (alpha, trials, f_new) as
    :func:`line_search_sol` does.
    """
    steps = (alpha for j in itertools.count() for alpha in (theta**j, -(theta**j)))
    return _backtrack(f_eval, x, d, eta, f0, max_trials, steps,
                      "bidirectional line search")


# -- fixed step sizes ----------------------------------------------------------


def fixed_step_sol(norm_d, eps_H, zeta, L_H, eta):
    """Predefined step for accepted Newton directions:
    sqrt(3(1-zeta) / (4(L_H+eta))) * sqrt(eps_H / ||d||).  At most 1
    whenever ||d|| >= eps_g/eps_H under the eps_H = sqrt(L_H eps_g)
    coupling."""
    if norm_d <= 0:
        raise ValueError("norm_d must be positive")
    return math.sqrt(3.0 * (1.0 - zeta) / (4.0 * (L_H + eta))) * math.sqrt(
        eps_H / norm_d
    )


def fixed_step_nc(norm_d, delta_H, delta_g, L_H, eta, theta_tilde):
    """Predefined step for curvature directions: theta_tilde times the
    larger root of the quadratic the cubic decrease condition reduces to.

    Satisfies alpha >= (3/4) * theta_tilde / (L_H + eta).  The discriminant
    is positive whenever delta_g respects its accuracy cap; a nonpositive
    one means that condition is broken.
    """
    if norm_d <= 0:
        raise ValueError("norm_d must be positive")
    check_interval(theta_tilde, "theta_tilde", THETA_TILDE_LOW, 1.0)
    z = (norm_d - delta_H) / 2.0
    disc = z * z - 4.0 * (L_H + eta) * delta_g / 6.0
    if disc <= 0.0 or z <= 0.0:
        raise ContractViolation(
            "fixed-step discriminant nonpositive at norm_d=%g, delta_H=%g, "
            "delta_g=%g; gradient accuracy condition is broken"
            % (norm_d, delta_H, delta_g))
    beta1 = (z + math.sqrt(disc)) / ((L_H + eta) * norm_d / 3.0)
    return theta_tilde * beta1


# -- the driver ----------------------------------------------------------------


def _resolve(config, constants):
    """The run's config: eps_H, U_H and L_H filled from the problem
    constants where the config leaves them None (L_H may stay None)."""
    U_H = config.U_H if config.U_H is not None else constants.U_H
    if U_H is None or U_H <= 0:
        raise ValueError("a positive Hessian-norm bound U_H is required")
    L_H = config.L_H if config.L_H is not None else constants.L_H
    eps_H = config.eps_H
    if eps_H is None:
        if L_H is None:
            raise ValueError("eps_H or L_H must be provided")
        eps_H = math.sqrt(L_H * config.eps_g) if L_H > 0 else math.sqrt(config.eps_g)
        if not eps_H < 1.0:  # only L_H > 0 can take it there
            raise ValueError(
                "eps_H = sqrt(L_H * eps_g) = %g, derived from L_H = %g and "
                "eps_g = %g, must lie in (0, 1); give eps_H (--eps-h) or a "
                "smaller eps_g (--eps)" % (eps_H, L_H, config.eps_g))
    # replace() validates the filled eps_H through __post_init__.
    cfg = replace(config, eps_H=eps_H, U_H=float(U_H),
                  L_H=None if L_H is None else float(L_H))
    check_interval(cfg.zeta, "zeta", 0.0, min(1.0, cfg.U_H))
    return cfg


def _direction(hvp, g, g_norm, cfg, rng):
    """Direction at one iterate, with hvp the map v -> H v of its Hessian
    estimate: (d, d_type, nc_origin, cg_iters, meo_iters, terminate).

    A certificate at small ||g|| keeps d_type NC with no direction; one from
    the small-step block keeps the Newton direction, returned at x + d.
    """
    eps_g, eps_H = cfg.eps_g, cfg.eps_H
    cg_iters = 0
    if g_norm >= eps_g:
        result = capped_cg(hvp, g, eps_H, cfg.zeta, M_init=cfg.U_H)
        cg_iters = result.iterations
        if result.d_type == NC:
            d = scale_nc_direction(result.d, hvp, g, curvature=result.curvature)
            return d, NC, "cg", cg_iters, 0, None
        d, d_type, certified = result.d, SOL, TERM_FIRST_ORDER_AND_CERTIFIED
        if cfg.skip_small_step_block or not float(np.linalg.norm(d)) <= eps_g / eps_H:
            return d, SOL, None, cg_iters, 0, None
    else:
        d, d_type, certified = None, NC, TERM_CERTIFIED_AT_CURRENT
    meo = meo_lanczos(hvp, g.shape[0], cfg.U_H, eps_H, cfg.delta, rng)
    if meo.is_certificate:
        return d, d_type, None, cg_iters, meo.iterations, certified
    d = scale_meo_direction(meo.v, g, meo.lam)
    return d, NC, "meo", cg_iters, meo.iterations, None


def _step_length(f_eval, x, d, d_type, f_x, variant, cfg):
    """(alpha, ls_trials, f_next): backtracking from f_x = f_eval(x) under
    LineSearch, with f_next = f_eval(x + alpha d); the predefined formulas
    (delta_g = delta_H = 0) or overrides under FixedStep, which evaluate
    nothing (f_next None)."""
    if variant == LINE_SEARCH:
        search = line_search_sol if d_type == SOL else line_search_nc
        return search(f_eval, x, d, cfg.eta, cfg.theta, f0=f_x,
                      max_trials=cfg.max_ls_trials)
    norm_d = float(np.linalg.norm(d))
    if d_type == SOL:
        alpha = cfg.alpha_sol_fixed
        if alpha is None:
            alpha = fixed_step_sol(norm_d, cfg.eps_H, cfg.zeta, cfg.L_H, cfg.eta)
    else:
        alpha = cfg.alpha_nc_fixed
        if alpha is None:
            alpha = fixed_step_nc(norm_d, 0.0, 0.0, cfg.L_H, cfg.eta, cfg.theta_tilde)
    return alpha, 0, None


def run(problem, config, policy=None, variant=LINE_SEARCH, constants=None,
        x0=None, audit=False):
    """Minimize `problem`; returns a :class:`RunReport`.

    problem : ObjectiveOracle (carries the call ledgers; the report counts
        only this run's calls).
    config : SolverConfig.
    policy : SamplingPolicy; defaults to exact evaluation.  An adaptive
        policy's gradient batch starts at policy.grad_batch and moves
        within the run; the policy is frozen and never changes.
    variant : LINE_SEARCH or FIXED_STEP; LINE_SEARCH raises ValueError if
        config sets a step-size override, and FIXED_STEP if it derives the
        Newton step (alpha_sol_fixed None) with the small-step block
        skipped, where that step can exceed 1 and raise f.
    constants : ProblemConstants; defaults to problem.constants().
    x0 : start point, default zeros.
    audit : verify per-step floors and caps against exact ledger-exempt
        recomputation (ntcg.audit); any failure raises ContractViolation.
    """
    if variant not in (LINE_SEARCH, FIXED_STEP):
        raise ValueError("unknown variant %r" % (variant,))
    no_overrides = config.alpha_sol_fixed is None and config.alpha_nc_fixed is None
    if variant == LINE_SEARCH and not no_overrides:
        raise ValueError("step-size overrides (alpha_sol_fixed, alpha_nc_fixed) "
                         "apply to FixedStep only; LineSearch would ignore them")
    if (variant == FIXED_STEP and config.alpha_sol_fixed is None
            and config.skip_small_step_block):
        # fixed_step_sol is at most 1 only for ||d|| >= eps_g/eps_H, the
        # steps the block lets through (Royer, O'Neill & Wright 2020).
        raise ValueError("FixedStep's derived Newton step (alpha_sol_fixed "
                         "None) needs the small-step block; give alpha_sol_fixed "
                         "or set skip_small_step_block=False")
    policy = SamplingPolicy(mode=EXACT) if policy is None else policy
    if constants is None:
        constants = problem.constants()
    cfg = _resolve(config, constants)
    derives_step = cfg.alpha_sol_fixed is None or cfg.alpha_nc_fixed is None
    if variant == FIXED_STEP and derives_step and (cfg.L_H is None or cfg.L_H <= 0.0):
        raise ValueError("FixedStep derives its step sizes from L_H > 0; give "
                         "L_H or both step-size overrides")

    ledger_start = problem.ledger.snapshot()
    audit_ledger_start = problem.audit_ledger.snapshot()
    rng = as_generator(cfg.seed)
    auditor = None
    audit_f = problem.audit_f
    if audit:
        auditor = _Audit(problem, cfg, constants, variant == FIXED_STEP,
                         policy.mode == EXACT,
                         guaranteed_step=variant == LINE_SEARCH or no_overrides)
        audit_f = auditor.f  # values the point the last step reached once
    exact_line_f = policy.line_search_eval == "full"

    x = np.zeros(problem.dim) if x0 is None else check_vector(x0, "x0", problem.dim)
    n = problem.n
    full_idx = problem.full_index_set()
    eps_g = cfg.eps_g
    small_step = eps_g / cfg.eps_H

    records = []
    termination = TERM_MAX_ITERS
    grad_batch = policy.grad_batch
    prev_g_norm = 0.0  # the first iteration has none to adapt against
    # f(x) on the line-search set when already paid for: the accepted trial
    # of the last line search under full evaluation, the same expression
    # x + alpha d on the same set.  A batch line search draws a new set each
    # iteration, and FixedStep evaluates nothing, so neither carries it.
    f_x = None
    # The last iteration's record, committed once ||g_{k+1}|| is known.
    open_record = None
    # (record, iterate) pairs whose f_value waits for audit_f_many.
    unvalued = []

    def value_records():
        values = problem.audit_f_many([point for _, point in unvalued])
        for (record, _), value in zip(unvalued, values):
            record.f_value = value
        unvalued.clear()

    def commit(record, next_norm, exact_next_norm):
        """Close an iteration: the K2/K3 class of an accepted Newton step,
        the audit checks waiting on the next gradient, the record."""
        if record.step_class is None and record.alpha is not None:
            record.step_class = "K2" if next_norm < eps_g else "K3"
        if audit:
            auditor.resolve(next_norm, exact_next_norm)
        records.append(record)

    for k in range(cfg.max_outer_iters):
        # Full batches are the oracle's shared read-only index set, which
        # `_PointState` and the oracle's range check recognise by identity.
        grad_idx = (sampling.sample_indices(n, min(grad_batch, n), rng)
                    if policy.subsamples_gradient() else full_idx)
        g = problem.eval_grad(x, grad_idx)
        g_norm = float(np.linalg.norm(g))

        exact_g_norm = auditor.gradient(x, g) if audit else None
        if open_record is not None:
            commit(open_record, g_norm, exact_g_norm)

        hess_idx = (sampling.sample_indices(n, min(policy.hess_batch, n), rng)
                    if policy.subsamples_hessian() else full_idx)
        # eval_hvp is looked up per product, where bench/tracing.py wraps it.
        d, d_type, nc_origin, cg_iters, meo_iters, terminate = _direction(
            lambda v, x=x, idx=hess_idx: problem.eval_hvp(x, v, idx),
            g, g_norm, cfg, rng,
        )

        # f at x_k: the full-set line-search value doubles as the record
        # value; other paths report through the audit channel.  An audit
        # reads f_here at once and holds it from its check of the last step.
        # Outside one, an iterate whose gradient batch was a sample waits to
        # be valued in a block with later ones; one whose gradient was exact
        # is valued now, while the problem may still hold the products of
        # that full pass (NLSProblem's memo).
        line_idx = full_idx if exact_line_f else grad_idx
        if f_x is None and terminate is None and variant == LINE_SEARCH:
            f_x = problem.eval_f(x, line_idx)
        if exact_line_f and f_x is not None:
            f_here = f_x
        elif audit or grad_idx is full_idx:
            f_here = audit_f(x)
        else:
            f_here = None

        alpha, ls_trials, step_class, x_next, f_next = None, 0, None, None, None
        if terminate == TERM_FIRST_ORDER_AND_CERTIFIED:
            alpha, step_class = 1.0, "K4"
        elif terminate == TERM_CERTIFIED_AT_CURRENT:
            step_class = "K1"
        else:
            try:
                alpha, ls_trials, f_next = _step_length(
                    lambda y: problem.eval_f(y, line_idx), x, d, d_type, f_x,
                    variant, cfg,
                )
            except ContractViolation as exc:
                if audit:
                    raise
                logger.warning("stopping run: %s", exc)
                terminate = TERM_CONTRACT_VIOLATION
            else:
                x_next = x + alpha * d
                if g_norm < eps_g:
                    step_class = "K1"
                elif d_type == NC:
                    step_class = "K5"
                elif float(np.linalg.norm(d)) <= small_step:
                    step_class = "K4"  # reachable only with the block skipped
                # else SOL with a large step: K2/K3, set by commit.

        snap = problem.ledger.since(ledger_start)
        open_record = IterationRecord(
            k=k, f_value=f_here, grad_est_norm=g_norm, d_type=d_type,
            step_class=step_class, alpha=alpha, ls_trials=ls_trials,
            cg_iters=cg_iters, meo_iters=meo_iters, f_calls=snap["f_calls"],
            grad_calls=snap["grad_calls"], hv_calls=snap["hv_calls"],
            props=snap["props"], grad_true_norm=exact_g_norm, nc_origin=nc_origin,
        )
        if f_here is None:
            unvalued.append((open_record, x))
            if len(unvalued) == _F_BLOCK:
                value_records()
        if terminate is not None:
            termination = terminate
            break
        if audit:
            auditor.step(open_record, x, x_next, d, g, hess_idx, f_here)

        if policy.adaptive and prev_g_norm > 0 and g_norm > 0:
            grad_batch = sampling.adapt_grad_batch(grad_batch, g_norm, prev_g_norm, n)
        prev_g_norm = g_norm
        x, f_x = x_next, (f_next if exact_line_f else None)

    value_records()
    x_final = x + d if termination == TERM_FIRST_ORDER_AND_CERTIFIED else x
    if termination in (TERM_CERTIFIED_AT_CURRENT, TERM_CONTRACT_VIOLATION):
        # The run stopped at the x of its last record, which holds f(x) on
        # the full set and, when the gradient was exact (under audit or on
        # the full batch), ||grad f(x)|| as the audit channel computes them.
        final_f = open_record.f_value
        if audit:
            final_norm = exact_g_norm
        elif not policy.subsamples_gradient():
            final_norm = g_norm
        else:
            final_norm = float(np.linalg.norm(problem.audit_grad(x_final)))
    else:
        final_f = audit_f(x_final)
        final_norm = float(np.linalg.norm(problem.audit_grad(x_final)))
    commit(open_record, final_norm, final_norm)
    if audit:
        audit_summary = auditor.summary(records)
    else:
        audit_summary = {"n_checks": 0, "violations": [], "condition_results": []}

    return RunReport(
        records=records,
        termination=termination,
        x_final=x_final,
        final_f=final_f,
        final_true_grad_norm=final_norm,
        config_resolved=cfg,
        ledger=problem.ledger.since(ledger_start),
        audit_ledger=problem.audit_ledger.since(audit_ledger_start),
        audit=audit_summary,
    )
