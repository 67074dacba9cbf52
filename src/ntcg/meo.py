"""Randomized minimum-eigenvalue oracle via Lanczos.

Given a symmetric operator H with ||H|| <= M, either returns a unit vector
v with v^T H v = lambda <= -eps/2, or certifies lambda_min(H) >= -eps.  The
certificate is probabilistic: starting from a uniform random unit vector,
the iteration cap

    min(d, 1 + ceil(ln(2.75 d / delta^2) / 2 * sqrt(M / eps)))

suffices to locate curvature below -eps/2 with probability >= 1 - delta
whenever lambda_min(H) < -eps, so an incorrect certificate is issued with
probability at most delta.

Implementation notes, all load-bearing for the contracts above:
  * full reorthogonalization every step; cheap at these dimensions, and it
    removes the ghost-eigenvalue failure mode;
  * the tridiagonal eigenproblem is solved every iteration, for its bottom
    pair only: LAPACK bisection (stebz) for the smallest eigenvalue, then
    inverse iteration (stein) for its vector, called directly with the
    arguments and checks of scipy's ``eigh_tridiagonal(select="i",
    select_range=(0, 0))``, so the pair is bit-identical to that call's
    without its per-call argument handling; the run stops
    early only once the smallest Ritz value is at most -eps/2 AND its
    Lanczos residual is at most CONV_TOL * max(1, M) (so the assembled
    vector's Rayleigh quotient matches the Ritz value), which keeps runs
    with d <= cap exact: they proceed to full dimension or breakdown, where
    the bottom Ritz pair IS the bottom eigenpair;
  * breakdown (beta <= BREAKDOWN_TOL * max(1, M)) means the Krylov
    subspace is invariant, so the restriction of H to it is decided exactly;
  * the reported lambda is the Rayleigh quotient of the returned v,
    confirmed with a direct operator product, so v^T H v = lambda and
    lambda <= -eps/2 hold by construction, never anything weaker.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from ._validation import as_generator, check_interval

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


def meo_lanczos(hvp, dim, M, epsilon, delta, rng):
    """Minimum-eigenvalue oracle; see the module docstring for the contract.

    hvp, dim : the map v -> H v of a symmetric H with ||H|| <= M, on
        float64 vectors of length dim.
    M : curvature bound, > 0.
    epsilon : curvature threshold, > 0.
    delta : failure probability in (0, 1).  delta = 0 would make the step
        budget infinite and is rejected.
    rng : seed or numpy Generator for the start vector.

    The breakdown and convergence tolerances are the module constants
    BREAKDOWN_TOL and CONV_TOL, both relative to max(1, M).
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

    Q = np.empty((dim, cap))
    alphas = np.empty(cap)
    betas = np.empty(max(cap - 1, 0))

    def bottom_ritz(steps):
        if steps == 1:
            return float(alphas[0]), np.array([1.0])
        return bottom_ritz_pair(alphas[:steps], betas[: steps - 1])

    def assemble(steps, s):
        v = Q[:, :steps] @ s
        v /= np.linalg.norm(v)
        return v

    def negative_curvature(steps, s):
        """Confirm the pair with a direct product; None if not actually
        below the threshold."""
        v = assemble(steps, s)
        lam = float(v @ hvp(v))
        if lam <= threshold:
            return MEOResult(NEGATIVE_CURVATURE, steps, lam=lam, v=v)
        return None

    steps = 0
    theta, s = np.inf, None
    while steps < cap:
        w = hvp(q)
        if not np.isfinite(w).all():
            raise ValueError("operator returned non-finite values")
        alpha = float(q @ w)
        Q[:, steps] = q
        alphas[steps] = alpha
        w = w - alpha * q
        if steps > 0:
            w = w - betas[steps - 1] * Q[:, steps - 1]
        # Full reorthogonalization against the stored basis.
        w = w - Q[:, : steps + 1] @ (Q[:, : steps + 1].T @ w)
        steps += 1

        theta, s = bottom_ritz(steps)
        beta = float(np.linalg.norm(w))

        if beta <= BREAKDOWN_TOL * scale:
            break  # invariant subspace: the bottom Ritz pair is exact there

        # Ritz residual ||H v - theta v|| = beta * |last component of s|.
        if theta <= threshold and beta * abs(s[-1]) <= CONV_TOL * scale:
            found = negative_curvature(steps, s)
            if found is not None:
                return found

        if steps < cap:
            betas[steps - 1] = beta
            q = w / beta

    # Breakdown or the step cap: the bottom Ritz pair decides.
    if theta <= threshold:
        found = negative_curvature(steps, s)
        if found is not None:
            return found
    return MEOResult(CERTIFICATE, steps)
