"""Finite-sum subsampling: batch estimators, accuracy targets, the adaptive
batch rule, and the sampling policy type.

Sampling is uniform without replacement and resampled fresh every iteration
(per-iteration probability statements need fresh randomness).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._validation import as_generator

logger = logging.getLogger(__name__)

EXACT = "Exact"
SUB_HESSIAN_ONLY = "SubHessianOnly"
SUB_BOTH = "SubBoth"

# Smallest adaptive gradient batch.
MIN_BATCH = 32


def floor_targets(eps, L_H, zeta, eta):
    """The pair (delta_g, delta_H) of uniform accuracy floors for batch sizing:

    delta_g = (1-zeta)/8 * min(3*L_H*eps / (65*(L_H+eta)), eps)
    delta_H = (1-zeta)/4 * sqrt(L_H*eps)

    These are the worst-case levels the adaptive conditions can demand
    under the coupling eps_H = sqrt(L_H*eps); sizing batches for them once
    is sufficient for every iteration.  delta_H meets the drivers' bound
    delta_H <= (1-zeta)*eps_H/4 with equality under that coupling.
    """
    if min(eps, L_H, eta) <= 0 or not (0 < zeta < 1):
        raise ValueError("need eps, L_H, eta > 0 and zeta in (0, 1)")
    delta_g = (1.0 - zeta) / 8.0 * min(3.0 * L_H * eps / (65.0 * (L_H + eta)), eps)
    delta_H = (1.0 - zeta) / 4.0 * math.sqrt(L_H * eps)
    return delta_g, delta_H


def sample_indices(n, batch, rng):
    """Uniform sample without replacement of size `batch` from range(n).

    batch > n is clamped to n with a logged note; batch = n returns the
    full index set (in order, so exact evaluation stays canonical).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch > n:
        logger.info("requested batch %d exceeds n=%d; clamped", batch, n)
        batch = n
    if batch == n:
        return np.arange(n, dtype=np.int64)
    rng = as_generator(rng)
    return rng.choice(n, size=batch, replace=False).astype(np.int64, copy=False)


def adapt_grad_batch(prev_batch, g_norm_now, g_norm_prev, n_total):
    """Adaptive gradient batch: shrink when the gradient norm grew by the
    factor 1.2, grow when it shrank by the same factor, else keep.

    Ceiling rounding on both moves keeps sizes integral; the result is
    clamped to [min(MIN_BATCH, n_total), n_total].
    """
    if prev_batch < 1:
        raise ValueError("prev_batch must be >= 1")
    if g_norm_now <= 0 or g_norm_prev <= 0:
        raise ValueError("gradient norms must be positive")
    ratio = g_norm_now / g_norm_prev
    if ratio >= 1.2:
        batch = math.ceil(prev_batch / 1.2)
    elif ratio <= 1.0 / 1.2:
        batch = math.ceil(prev_batch * 1.2)
    else:
        batch = prev_batch
    return max(min(batch, n_total), min(MIN_BATCH, n_total))


@dataclass(frozen=True)
class SamplingPolicy:
    """How each iteration's gradient/Hessian/function batches are drawn.

    mode : EXACT, SUB_HESSIAN_ONLY, or SUB_BOTH.
    grad_batch / hess_batch : starting sizes, at least 1 where the mode
        samples (ignored where it says exact).
    adaptive : a run moves its gradient batch from grad_batch by the 1.2
        rule (`adapt_grad_batch`); needs SUB_BOTH.  The batch in effect is
        state of the run, so the policy itself never changes.
    line_search_eval : "full" evaluates the line-search objective exactly;
        "batch" reuses the gradient sample (the heuristic sub-eval mode,
        outside the drivers' guarantees) and needs SUB_BOTH.
    """

    mode: str = EXACT
    grad_batch: int = 0
    hess_batch: int = 0
    adaptive: bool = False
    line_search_eval: str = "full"

    def __post_init__(self):
        if self.mode not in (EXACT, SUB_HESSIAN_ONLY, SUB_BOTH):
            raise ValueError("unknown sampling mode %r" % (self.mode,))
        if self.line_search_eval not in ("full", "batch"):
            raise ValueError("line_search_eval must be 'full' or 'batch'")
        if self.line_search_eval == "batch" and not self.subsamples_gradient():
            # The batch would be the full set, and f(x) would no longer be
            # carried from the last accepted trial.
            raise ValueError("line_search_eval='batch' needs mode %s" % SUB_BOTH)
        if self.adaptive and not self.subsamples_gradient():
            # There is no gradient batch to adapt; the flag would do nothing.
            raise ValueError("adaptive=True needs mode %s" % SUB_BOTH)
        if self.subsamples_gradient() and self.grad_batch < 1:
            raise ValueError("mode %s needs grad_batch >= 1" % self.mode)
        if self.subsamples_hessian() and self.hess_batch < 1:
            raise ValueError("mode %s needs hess_batch >= 1" % self.mode)

    def subsamples_gradient(self):
        return self.mode == SUB_BOTH

    def subsamples_hessian(self):
        return self.mode in (SUB_HESSIAN_ONLY, SUB_BOTH)

