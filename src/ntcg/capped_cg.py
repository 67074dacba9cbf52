"""Capped conjugate gradient on the damped system (H + 2*eps*I) d = -g.

Classical CG instrumented to detect directions along which the curvature of
H is at most -eps.  Returns either an approximate solution of the damped
system (tag ``SOL``) or a sufficient-negative-curvature direction (tag
``NC``).  Every quantity the instrumentation needs beyond the single
matrix-vector product per iteration is recovered from stored iterates:

  Hbar y_j = r_j - g            (residual identity, y_0 = 0)
  H r_j    = beta_j H p_{j-1} - H p_j

The ``y`` and ``SOL`` tests of iteration j read only the first, so H p_j is
taken after them: a run costs ``iterations`` operator applications when it
ends there, and ``iterations + 1`` when it ends in any other way.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._validation import check_interval, check_vector
from .exceptions import ContractViolation

SOL = "SOL"
NC = "NC"

# Below this gradient norm the damped system is meaningless; drivers
# guarantee ||g|| >= eps_g before calling.
_MIN_GRAD_NORM = 1e-300


@dataclass
class CappedCGResult:
    """Outcome of one capped CG run.

    curvature is d^T H d of an NC direction from the "p0" and "p" exits,
    formed from the product H p the run already took and bit-identical to
    a fresh one, so a caller scaling d needs no operator application.  The
    "y" and "slow_decay" directions have it only through the residual
    identity, which differs in the last bits, so they leave it None.

    M_final is the curvature bound at the exit; a "SOL" or "y" exit comes
    before the iteration's product H p, which could only have raised it.
    """

    d_type: str
    d: np.ndarray
    iterations: int
    M_final: float
    residual_norm: Optional[float] = None  # SOL only
    nc_source: Optional[str] = None  # "p0", "y", "p", "slow_decay"
    curvature: Optional[float] = None  # "p0" and "p" exits only


def _derived(M, epsilon, zeta):
    """kappa, zeta_hat, tau, T from the current curvature bound.

    tau is needed by T, so it is computed first.  1 - sqrt(1 - tau) is
    evaluated as tau / (1 + sqrt(1 - tau)) to avoid cancellation when kappa
    is large.
    """
    kappa = (M + 2.0 * epsilon) / epsilon
    zeta_hat = zeta / (3.0 * kappa)
    tau = 1.0 / (math.sqrt(kappa) + 1.0)
    gap = tau / (1.0 + math.sqrt(1.0 - tau))
    T = 4.0 * kappa**4 / gap**2
    return kappa, zeta_hat, tau, T


def j_cap(M, epsilon, zeta):
    """Smallest integer J with sqrt(T) * (1-tau)^(J/2) <= zeta_hat.

    Dimension-independent; callers clamp at the problem dimension.  Solved
    in closed form with logarithms, then nudged so the two-sided property
    (J satisfies the inequality, J-1 does not) holds in floating point.
    """
    if M < 0 or not np.isfinite(M):
        raise ValueError("M must be finite and >= 0")
    epsilon = check_interval(epsilon, "epsilon", 0.0, 1.0)
    zeta = check_interval(zeta, "zeta", 0.0, 1.0)
    kappa, zeta_hat, tau, T = _derived(M, epsilon, zeta)
    log_decay = math.log1p(-tau)  # < 0
    target = math.log(zeta_hat) - 0.5 * math.log(T)  # < 0
    J = max(1, math.ceil(2.0 * target / log_decay))
    while J > 1 and math.sqrt(T) * (1.0 - tau) ** ((J - 1) / 2.0) <= zeta_hat:
        J -= 1
    while math.sqrt(T) * (1.0 - tau) ** (J / 2.0) > zeta_hat:
        J += 1
    return J


def _norm(v):
    """Euclidean norm of a 1-D float64 vector, bit-identical to
    ``np.linalg.norm(v)``: the same dot product of the same contiguous
    ravel and a correctly rounded square root, without the dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v @ v)


def _safe_ratio(Hw, ww):
    """||Hw|| / ||w|| from ww = w @ w, the dot a caller already took (the
    square root of it is ``_norm(w)`` for the contiguous w here); 0 for
    w = 0."""
    if ww == 0.0:
        return 0.0
    return _norm(Hw) / math.sqrt(ww)


def extract_accumulated_nc(ys, rs, y_next, r_next, epsilon):
    """Scan accumulated iterates for a negative-curvature difference.

    Uses the residual identity Hbar*y_j = r_j - r_0 + Hbar*y_0 (y_0 = 0), so
    the damped quadratic form over differences needs no operator products:
    Hbar*(y_next - y_i) = r_next - r_i.  Returns (i, d, quotient) for the
    first i whose normalized form is at most epsilon, else None.  Scanning
    from i = 0 upward makes the choice deterministic.
    """
    for i in range(len(ys)):
        diff = y_next - ys[i]
        nd2 = diff @ diff
        if nd2 == 0.0:
            continue
        quotient = diff @ (r_next - rs[i]) / nd2
        if quotient <= epsilon:
            return i, diff, quotient
    return None


def capped_cg(hvp, g, epsilon, zeta, M_init=0.0):
    """Run capped CG; returns a :class:`CappedCGResult`.

    hvp : the symmetric map v -> H v on float64 vectors of g's length.
    g : right-hand-side gradient, nonzero.
    epsilon, zeta : damping and SOL relative accuracy, each in (0, 1).
    M_init : initial curvature bound, finite and >= 0 (e.g. U_H >= ||H||).

    Raises ValueError for bad parameters or g = 0, before any product, and
    ContractViolation if no termination branch fires within the proven cap
    (inconsistent operator) or the operator produces non-finite output.
    """
    eps = check_interval(epsilon, "epsilon", 0.0, 1.0)
    zeta = check_interval(zeta, "zeta", 0.0, 1.0)
    if M_init < 0 or not np.isfinite(M_init):
        raise ValueError("M_init must be finite and >= 0")
    g = check_vector(g, "g")
    norm_g = _norm(g)
    if norm_g < _MIN_GRAD_NORM:
        raise ValueError("capped_cg requires a nonzero gradient")

    M = float(M_init)
    _, zeta_hat, tau, T = _derived(M, eps, zeta)
    dim = g.shape[0]

    # Every dot product below is taken once per vector and reused (r @ r
    # as rr, p @ p as pp, y @ y as yy); the norms are their square roots.
    y = np.zeros(dim)
    r = g.copy()
    rr = r @ r
    p = -g
    Hp = hvp(p)
    if not np.isfinite(Hp).all():
        raise ContractViolation("operator returned non-finite values")

    pp = p @ p
    p_bar_p = p @ Hp + 2.0 * eps * pp
    if p_bar_p < eps * pp:
        return CappedCGResult(NC, p, iterations=0, M_final=M, nc_source="p0",
                              curvature=float(p @ Hp))
    ratio0 = _safe_ratio(Hp, pp)
    if ratio0 > M:
        M = ratio0
        _, zeta_hat, tau, T = _derived(M, eps, zeta)

    # The iteration cap depends on M only; None until needed after a change.
    cap = None
    # y and r are rebound each iteration, never written in place, so the
    # stored iterates need no copies.
    ys = [y]
    rs = [r]
    norm_r0 = norm_g
    j = 0

    while True:
        alpha = rr / p_bar_p
        y = y + alpha * p
        Hbar_p = Hp + 2.0 * eps * p
        r_new = r + alpha * Hbar_p
        rr_new = r_new @ r_new
        beta = rr_new / rr
        p_new = -r_new + beta * p
        Hp_prev, r, rr, p = Hp, r_new, rr_new, p_new
        j += 1
        ys.append(y)
        rs.append(r)

        # The y and SOL tests need Hy only (the SOL bound needs M >= ||Hy||
        # / ||y||), so a run ending there never pays for H p.
        yy = y @ y
        Hy = r - g - 2.0 * eps * y
        observed = _safe_ratio(Hy, yy)
        if observed > M:
            M = observed
            _, zeta_hat, tau, T = _derived(M, eps, zeta)
            cap = None
        norm_r = math.sqrt(rr)
        if y @ Hy + 2.0 * eps * yy <= eps * yy:
            return CappedCGResult(NC, y, iterations=j, M_final=M, nc_source="y")
        if norm_r <= zeta_hat * norm_r0:
            return CappedCGResult(
                SOL, y, iterations=j, M_final=M, residual_norm=norm_r
            )

        Hp = hvp(p)
        if not np.isfinite(Hp).all():
            raise ContractViolation("operator returned non-finite values")
        pp = p @ p
        Hr = beta * Hp_prev - Hp
        observed = max(_safe_ratio(Hp, pp), _safe_ratio(Hr, rr))
        if observed > M:
            M = observed
            _, zeta_hat, tau, T = _derived(M, eps, zeta)
            cap = None
        p_bar_p = p @ Hp + 2.0 * eps * pp
        if p_bar_p <= eps * pp:
            return CappedCGResult(NC, p, iterations=j, M_final=M, nc_source="p",
                                  curvature=float(p @ Hp))
        if norm_r >= math.sqrt(T) * (1.0 - tau) ** (j / 2.0) * norm_r0:
            # Residual decays slower than positive-definite CG allows: a
            # negative-curvature direction hides among the accumulated
            # iterates.  Take one more CG step, then scan for it.
            alpha = rr / p_bar_p
            y_next = y + alpha * p
            r_next = r + alpha * (Hp + 2.0 * eps * p)
            found = extract_accumulated_nc(ys[:j], rs[:j], y_next, r_next, eps)
            if found is None:
                raise ContractViolation(
                    "slow residual decay detected at j=%d (M=%g) but no "
                    "accumulated direction has curvature <= eps; operator is "
                    "likely inconsistent" % (j, M))
            return CappedCGResult(NC, found[1], iterations=j, M_final=M,
                                  nc_source="slow_decay")

        if cap is None:
            cap = min(dim, j_cap(M, eps, zeta))
        if j >= cap:
            raise ContractViolation(
                "capped CG reached j=%d at its iteration cap %d (M=%g) without "
                "any termination test firing" % (j, cap, M))
