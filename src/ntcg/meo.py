"""Randomized minimum-eigenvalue oracle via Lanczos.

Given a symmetric operator H with ||H|| <= M, either returns a unit vector
v with v^T H v = lambda <= -eps/2, or certifies lambda_min(H) >= -eps.  The
certificate is probabilistic: starting from a uniform random unit vector,
the iteration cap

    min(d, 1 + ceil(ln(2.75 d / delta^2) / 2 * sqrt(M / eps)))

suffices to locate curvature below -eps/2 with probability >= 1 - delta
whenever lambda_min(H) < -eps, so an incorrect certificate is issued with
probability at most delta.

Implementation notes, all load-bearing for the contracts above.

The Lanczos process, ``lanczos``:
  * full reorthogonalization every step; cheap at these dimensions, and it
    removes the ghost-eigenvalue failure mode;
  * breakdown (beta <= BREAKDOWN_TOL * max(1, M) in the oracle) means the
    Krylov subspace is invariant, so the restriction of H to it is decided
    exactly; the process reports beta = 0 there and stops.

The oracle, ``meo_lanczos``:
  * the tridiagonal eigenproblem is solved every step, for its bottom
    pair only: LAPACK bisection (stebz) for the smallest eigenvalue, then
    inverse iteration (stein) for its vector, called directly with the
    arguments and checks of scipy's ``eigh_tridiagonal(select="i",
    select_range=(0, 0))``, so the pair is bit-identical to that call's
    without its per-call argument handling;
  * the bottom Ritz pair is tested once its value is at most -eps/2 and
    either its Lanczos residual is at most CONV_TOL * max(1, M) (so the
    assembled vector's Rayleigh quotient matches the Ritz value) or the
    step is the last (the cap or breakdown).  That keeps runs with
    d <= cap exact: they proceed to full dimension or breakdown, where the
    bottom Ritz pair IS the bottom eigenpair;
  * the test is one direct operator product per pair, and the reported
    lambda is that Rayleigh quotient of the returned v, so v^T H v = lambda
    and lambda <= -eps/2 hold by construction, never anything weaker; a
    non-finite product there raises ContractViolation, as in the process.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from ._validation import as_generator, check_interval
from .exceptions import ContractViolation

NEGATIVE_CURVATURE = "NegativeCurvature"
CERTIFICATE = "Certificate"

# Lanczos breakdown and Ritz-pair convergence, relative to max(1, M).
BREAKDOWN_TOL = 1e-12
CONV_TOL = 1e-10

_stebz, _stein = get_lapack_funcs(("stebz", "stein"), dtype=np.float64)


def bottom_ritz_pair(d, e):
    """Smallest eigenvalue and its unit eigenvector of the symmetric
    tridiagonal matrix with diagonal d (length >= 2) and off-diagonal e.

    The LAPACK calls of ``eigh_tridiagonal(d, e, select="i",
    select_range=(0, 0))`` with its default tol = 0: stebz with il = iu = 1
    and block ordering, then stein on the one eigenvalue, with the same
    finiteness and info checks.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    m, w, iblock, isplit, info = _stebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    _check_info(info, "stebz")
    v, info = _stein(d, e, w[:m], iblock, isplit)
    _check_info(info, "stein", "%d eigenvectors failed to converge")
    return float(w[0]), v[:, 0]


def _check_info(info, driver, positive="did not converge (LAPACK info=%d)"):
    """scipy's LAPACK info check, with its messages."""
    if info < 0:
        raise ValueError("illegal value in argument %d of internal %s "
                         "(eigh_tridiagonal)" % (-info, driver))
    if info > 0:
        raise LinAlgError(("%s (eigh_tridiagonal) " + positive) % (driver, info))


@dataclass
class MEOResult:
    outcome: str  # NEGATIVE_CURVATURE or CERTIFICATE
    iterations: int
    lam: Optional[float] = None  # Rayleigh quotient of v
    v: Optional[np.ndarray] = None  # unit vector

    @property
    def is_certificate(self):
        return self.outcome == CERTIFICATE


def meo_iteration_cap(dim, M, epsilon, delta):
    """Lanczos step budget for the stated failure probability."""
    budget = 1 + math.ceil(
        math.log(2.75 * dim / delta**2) / 2.0 * math.sqrt(M / epsilon)
    )
    return min(dim, budget)


def lanczos(hvp, q, cap, tol):
    """Lanczos process with full reorthogonalization on the symmetric map
    hvp (v -> H v), from the unit vector q, for at most cap steps.

    Step k yields (Q, alphas, betas, beta): the Krylov basis Q (dim x k),
    the tridiagonal T = Q^T H Q as its diagonal alphas and off-diagonal
    betas, and the next beta, with H Q - Q T = beta q' e_k^T for a unit q'.
    The views are never rewritten.  Stops after cap steps or at breakdown,
    beta <= tol, where span(Q) is invariant and the yielded beta is 0.
    Raises ContractViolation on a non-finite product.
    """
    Q = np.empty((q.shape[0], cap))
    alphas = np.empty(cap)
    betas = np.empty(max(cap - 1, 0))
    for k in range(cap):
        w = hvp(q)
        if not np.isfinite(w).all():
            raise ContractViolation("operator returned non-finite values")
        alpha = float(q @ w)
        Q[:, k] = q
        alphas[k] = alpha
        w = w - alpha * q
        if k > 0:
            w = w - betas[k - 1] * Q[:, k - 1]
        # Full reorthogonalization against the stored basis.
        w = w - Q[:, : k + 1] @ (Q[:, : k + 1].T @ w)
        beta = float(np.linalg.norm(w))
        if beta <= tol:
            beta = 0.0
        yield Q[:, : k + 1], alphas[: k + 1], betas[:k], beta
        if beta == 0.0 or k + 1 == cap:
            return
        betas[k] = beta
        q = w / beta


def meo_lanczos(hvp, dim, M, epsilon, delta, rng):
    """Minimum-eigenvalue oracle; see the module docstring for the contract.

    hvp, dim : the map v -> H v of a symmetric H with ||H|| <= M, on
        float64 vectors of length dim.
    M : curvature bound, > 0.
    epsilon : curvature threshold, > 0.
    delta : failure probability in (0, 1).  delta = 0 would make the step
        budget infinite and is rejected.
    rng : seed or numpy Generator for the start vector.
    """
    if not np.isfinite(M) or M <= 0:
        raise ValueError("M must be positive and finite")
    if epsilon <= 0 or not np.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    delta = check_interval(delta, "delta", 0.0, 1.0)
    rng = as_generator(rng)

    cap = meo_iteration_cap(dim, M, epsilon, delta)
    threshold = -0.5 * epsilon
    scale = max(1.0, M)

    # Uniform on the unit sphere via a normalized Gaussian.
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)

    steps = 0
    for Q, alphas, betas, beta in lanczos(hvp, q, cap, BREAKDOWN_TOL * scale):
        steps = len(alphas)
        if steps == 1:
            theta, s = float(alphas[0]), np.array([1.0])
        else:
            theta, s = bottom_ritz_pair(alphas, betas)
        # Ritz residual ||H v - theta v|| = beta * |last component of s|,
        # 0 at breakdown; at the cap the pair is tested whatever its residual.
        if theta <= threshold and (beta * abs(s[-1]) <= CONV_TOL * scale
                                   or steps == cap):
            v = Q @ s
            v /= np.linalg.norm(v)
            lam = float(v @ hvp(v))
            if not math.isfinite(lam):
                raise ContractViolation("operator returned non-finite values")
            if lam <= threshold:
                return MEOResult(NEGATIVE_CURVATURE, steps, lam=lam, v=v)
    return MEOResult(CERTIFICATE, steps)
