import dataclasses

import numpy as np
import pytest
from scipy.stats import chisquare

from ntcg import (
    SamplingPolicy,
    adapt_grad_batch,
    floor_targets,
    sample_indices,
    synthetic_nls,
    verify_condition,
)
from ntcg.audit import COND2, COND3
from ntcg.sampling import (
    EXACT,
    MIN_BATCH,
    SUB_BOTH,
    SUB_HESSIAN_ONLY,
)


class TestFloorTargets:
    def test_arithmetic_example(self):
        delta_g, delta_H = floor_targets(1e-2, 1.0, 0.5, 1.0)
        assert abs(delta_g - (1.0 / 16.0) * (3.0 / 13000.0)) < 1e-12
        assert abs(delta_H - 0.0125) < 1e-15

    def test_delta_h_scales_as_sqrt_eps(self):
        _, a = floor_targets(1e-2, 2.0, 0.5, 0.1)
        _, b = floor_targets(4e-2, 2.0, 0.5, 0.1)
        assert abs(b - 2.0 * a) < 1e-12

    def test_delta_g_never_exceeds_min_bound(self):
        for eps in (1e-1, 1e-3):
            for zeta in (0.1, 0.9):
                delta_g, _ = floor_targets(eps, 5.0, zeta, 0.1)
                assert delta_g <= (1.0 - zeta) * eps / 8.0 + 1e-18


class TestSampleIndices:
    def test_full_batch_is_identity_range(self):
        np.testing.assert_array_equal(sample_indices(7, 7, 0), np.arange(7))

    def test_fixed_seed_reproducible(self):
        a = sample_indices(100, 20, 42)
        b = sample_indices(100, 20, 42)
        np.testing.assert_array_equal(a, b)

    def test_without_replacement(self):
        idx = sample_indices(50, 30, 3)
        assert len(np.unique(idx)) == 30

    def test_oversized_batch_clamped(self):
        idx = sample_indices(10, 25, 0)
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_uniform_inclusion_frequency(self):
        n, batch, draws = 40, 10, 10_000
        rng = np.random.default_rng(5)
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sample_indices(n, batch, rng)] += 1
        expected = draws * batch / n
        _, p = chisquare(counts, expected)
        assert p > 1e-4  # sanity, not a sharp test

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            sample_indices(10, 0, 0)


class TestAdaptGradBatch:
    def test_shrinks_on_gradient_growth(self):
        assert adapt_grad_batch(1000, 1.3, 1.0, n_total=5000) == 834

    def test_grows_on_gradient_decay(self):
        assert adapt_grad_batch(1000, 0.5, 1.0, n_total=5000) == 1200

    def test_dead_zone(self):
        assert adapt_grad_batch(1000, 1.0, 1.0, n_total=5000) == 1000
        assert adapt_grad_batch(1000, 1.19, 1.0, n_total=5000) == 1000

    def test_clamped_to_n_and_floor(self):
        assert adapt_grad_batch(1000, 0.1, 1.0, n_total=1100) == 1100
        assert adapt_grad_batch(33, 5.0, 1.0, n_total=1000) == MIN_BATCH == 32
        assert adapt_grad_batch(33, 5.0, 1.0, n_total=10) == 10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            adapt_grad_batch(0, 1.0, 1.0, n_total=100)
        with pytest.raises(ValueError):
            adapt_grad_batch(10, 0.0, 1.0, n_total=100)


class TestVerifyCondition:
    def context(self, **kw):
        ctx = {
            "eps_g": 1e-2,
            "eps_H": 0.1,
            "zeta": 0.5,
            "eta": 0.1,
            "L_H": 1.0,
            "norm_d": 1.0,
            "norm_g": 0.5,
            "norm_g_next": 0.5,
        }
        ctx.update(kw)
        return ctx

    def test_exact_oracles_always_pass(self):
        for which in (COND2, COND3):
            assert verify_condition(0.0, 0.0, self.context(), which=which)

    def test_hessian_boundary_inclusive(self):
        ctx = self.context()
        delta_H = (1.0 - ctx["zeta"]) / 4.0 * ctx["eps_H"]
        assert verify_condition(0.0, delta_H, ctx, which=COND2)
        assert not verify_condition(0.0, delta_H * 1.0001, ctx, which=COND2)

    def test_cond2_adaptive_term(self):
        ctx = self.context(norm_g=5.0, norm_g_next=5.0, norm_d=100.0)
        bound = (1.0 - 0.5) / 8.0 * max(1e-2, min(0.1 * 100.0, 5.0, 5.0))
        assert verify_condition(bound * 0.999, 0.0, ctx, which=COND2)
        assert not verify_condition(bound * 1.001, 0.0, ctx, which=COND2)

    def test_cond3_extra_cap(self):
        ctx = self.context(norm_g=50.0, norm_g_next=50.0, norm_d=1000.0)
        cap = 3.0 * 0.1**2 / (65.0 * 1.1)
        bound = (1.0 - 0.5) / 8.0 * cap  # cap binds for huge norms
        assert verify_condition(bound * 0.999, 0.0, ctx, which=COND3)
        assert not verify_condition(bound * 1.001, 0.0, ctx, which=COND3)

    def test_unbiased_gradient_estimator(self):
        problem = synthetic_nls(500, 6, seed=15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(6) * 0.3
        exact = problem._grad(x, problem.full_index_set())
        acc = np.zeros(6)
        draws = 10_000
        for _ in range(draws):
            acc += problem._grad(x, sample_indices(problem.n, 25, rng))
        mc_err = np.linalg.norm(acc / draws - exact)
        assert mc_err < 5e-3  # ~4 sigma of the Monte Carlo error


class TestPolicy:
    def test_policy_is_frozen(self):
        # A run keeps its adaptive batch to itself, so the policy a caller
        # passes in describes every run it is passed to.
        p = SamplingPolicy(mode=SUB_BOTH, grad_batch=5, hess_batch=3, adaptive=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.grad_batch = 6

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SamplingPolicy(mode="Nope")

    @pytest.mark.parametrize("mode, batches", [
        (SUB_BOTH, {}), (SUB_BOTH, {"hess_batch": 5}),
        (SUB_BOTH, {"grad_batch": 5}), (SUB_HESSIAN_ONLY, {"grad_batch": 5}),
    ])
    def test_sampled_mode_rejects_a_zero_batch(self, mode, batches):
        # A zero batch used to be drawn as one row per iteration.
        with pytest.raises(ValueError, match="batch >= 1"):
            SamplingPolicy(mode=mode, **batches)

    @pytest.mark.parametrize("mode, batches", [
        (EXACT, {}), (SUB_HESSIAN_ONLY, {"hess_batch": 5}),
    ])
    def test_batch_line_search_needs_a_sampled_gradient(self, mode, batches):
        # With an exact gradient the batch is the full set, and the search
        # would pay f(x_k) again instead of carrying it.
        with pytest.raises(ValueError, match="needs mode SubBoth"):
            SamplingPolicy(mode=mode, line_search_eval="batch", **batches)

    @pytest.mark.parametrize("mode, batches", [
        (EXACT, {}), (SUB_HESSIAN_ONLY, {"hess_batch": 5}),
    ])
    def test_adaptive_needs_a_sampled_gradient(self, mode, batches):
        # Only a sampled gradient has a batch to adapt; elsewhere the flag
        # used to be accepted and do nothing.
        with pytest.raises(ValueError, match="needs mode SubBoth"):
            SamplingPolicy(mode=mode, adaptive=True, **batches)
