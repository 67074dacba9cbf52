"""Finite-sum subsampling: batch estimators, accuracy targets, the adaptive
batch rule, and the sampling policies of the benchmark presets.

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

COND2 = "Cond2"
COND3 = "Cond3"

# Smallest adaptive gradient batch.
MIN_BATCH = 32


@dataclass
class AccuracyTargets:
    """Per-iteration accuracy levels for gradient and Hessian estimates.

    delta_H must satisfy delta_H <= (1-zeta)*eps_H/4 for the drivers'
    guarantees to apply; validated by the solver config, not here.
    """

    delta_g: float
    delta_H: float


def floor_targets(eps, L_H, zeta, eta):
    """Uniform (iteration-independent) accuracy floors for batch sizing.

    delta_g = (1-zeta)/8 * min(3*L_H*eps / (65*(L_H+eta)), eps)
    delta_H = (1-zeta)/4 * sqrt(L_H*eps)

    These are the worst-case levels the adaptive conditions can demand
    under the coupling eps_H = sqrt(L_H*eps); sizing batches for them once
    is sufficient for every iteration.
    """
    if min(eps, L_H, eta) <= 0 or not (0 < zeta < 1):
        raise ValueError("need eps, L_H, eta > 0 and zeta in (0, 1)")
    delta_g = (1.0 - zeta) / 8.0 * min(3.0 * L_H * eps / (65.0 * (L_H + eta)), eps)
    delta_H = (1.0 - zeta) / 4.0 * math.sqrt(L_H * eps)
    return AccuracyTargets(delta_g=delta_g, delta_H=delta_H)


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


PRESETS = ("full", "subh", "inexact-full-eval", "inexact-fixed", "inexact-sub-eval")


def preset_policy(preset, n):
    """Sampling policy of a benchmark preset, sized against n components.

    "full" evaluates exactly; "subh" draws Hessian batches of ceil(0.01 n);
    the inexact presets add adaptive gradient batches of ceil(0.05 n), with
    the line-search objective estimated on the gradient batch only under
    "inexact-sub-eval".
    """
    if preset not in PRESETS:
        raise ValueError("unknown preset %r" % (preset,))
    hess_batch = max(1, math.ceil(0.01 * n))
    if preset == "full":
        return SamplingPolicy(mode=EXACT)
    if preset == "subh":
        return SamplingPolicy(mode=SUB_HESSIAN_ONLY, hess_batch=hess_batch)
    return SamplingPolicy(
        mode=SUB_BOTH,
        grad_batch=max(1, math.ceil(0.05 * n)),
        hess_batch=hess_batch,
        adaptive=True,
        line_search_eval="batch" if preset == "inexact-sub-eval" else "full",
    )
