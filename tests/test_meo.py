import numpy as np
import pytest
from helpers import MatrixOperator, random_symmetric, symmetric_with_spectrum
from numpy.testing import assert_array_equal
from scipy.linalg import eigh_tridiagonal
from scipy.stats import binom

import ntcg.meo
from ntcg import ContractViolation
from ntcg.meo import (
    CERTIFICATE,
    NEGATIVE_CURVATURE,
    bottom_ritz_pair,
    lanczos,
    meo_iteration_cap,
    meo_lanczos,
)


def planted_operator(rng, dim, lam_min, bulk_low, bulk_high):
    vals = np.concatenate([[lam_min], rng.uniform(bulk_low, bulk_high, size=dim - 1)])
    H = symmetric_with_spectrum(rng, vals)
    return H, MatrixOperator(H)


class TestExactCases:
    def test_planted_diagonal_finds_exact_pair(self):
        H = MatrixOperator(np.diag([-2.0, 1.0, 1.0]))
        res = meo_lanczos(H, H.dim, M=2.0, epsilon=1.0, delta=0.05, rng=0)
        assert res.outcome == NEGATIVE_CURVATURE
        assert abs(res.lam - (-2.0)) < 1e-8
        assert min(np.linalg.norm(res.v - [1, 0, 0]),
                   np.linalg.norm(res.v + [1, 0, 0])) < 1e-7

    def test_identity_certificate(self):
        H = MatrixOperator(np.eye(5))
        res = meo_lanczos(H, H.dim, M=1.0, epsilon=0.5, delta=0.05, rng=1)
        assert res.outcome == CERTIFICATE
        assert res.lam is None and res.v is None

    def test_full_dimension_equals_dense_eigenpair(self):
        # d below the cap: the run is exact, so the result matches a dense
        # eigendecomposition.
        rng = np.random.default_rng(2)
        H, op = planted_operator(rng, 8, -1.5, 0.5, 2.0)
        res = meo_lanczos(op, op.dim, M=2.5, epsilon=1.0, delta=0.05, rng=3)
        assert res.outcome == NEGATIVE_CURVATURE
        vals, vecs = np.linalg.eigh(H)
        assert abs(res.lam - vals[0]) < 1e-8
        v0 = vecs[:, 0]
        assert min(np.linalg.norm(res.v - v0), np.linalg.norm(res.v + v0)) < 1e-6

    def test_one_dimensional_operator(self):
        res = meo_lanczos(MatrixOperator(np.array([[-3.0]])), 1,
                          M=3.0, epsilon=1.0, delta=0.05, rng=4)
        assert res.outcome == NEGATIVE_CURVATURE
        assert res.iterations == 1
        assert abs(res.lam + 3.0) < 1e-12


class TestContracts:
    @pytest.mark.parametrize("seed", range(25))
    def test_nc_returns_never_weaker_than_half_eps(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 40))
        lam = -float(rng.uniform(0.6, 4.0))
        H, op = planted_operator(rng, dim, lam, -0.4, 3.0)
        eps = 1.0
        res = meo_lanczos(op, op.dim, M=5.0, epsilon=eps, delta=0.05, rng=seed + 1000)
        if res.outcome == NEGATIVE_CURVATURE:
            assert abs(np.linalg.norm(res.v) - 1.0) <= 1e-12
            rayleigh = res.v @ (H @ res.v)
            assert abs(rayleigh - res.lam) <= 1e-10 * max(np.linalg.norm(H, 2), 1.0)
            assert res.lam <= -eps / 2.0
        assert res.iterations <= meo_iteration_cap(dim, 5.0, eps, 0.05)

    def test_iteration_cap_formula(self):
        # min(d, 1 + ceil(ln(2.75 d / delta^2) / 2 * sqrt(M / eps)))
        assert meo_iteration_cap(50, 3.0, 1.0, 0.05) == min(
            50, 1 + int(np.ceil(np.log(2.75 * 50 / 0.05**2) / 2 * np.sqrt(3.0)))
        )
        assert meo_iteration_cap(3, 100.0, 0.01, 0.1) == 3

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(8)
        H, op = planted_operator(rng, 20, -2.0, 0.1, 2.5)
        a = meo_lanczos(op, op.dim, M=3.0, epsilon=1.0, delta=0.05, rng=123)
        b = meo_lanczos(op, op.dim, M=3.0, epsilon=1.0, delta=0.05, rng=123)
        assert a.outcome == b.outcome == NEGATIVE_CURVATURE
        np.testing.assert_array_equal(a.v, b.v)
        assert a.lam == b.lam and a.iterations == b.iterations

    def test_delta_zero_rejected(self):
        H = MatrixOperator(np.eye(3))
        with pytest.raises(ValueError):
            meo_lanczos(H, H.dim, M=1.0, epsilon=0.5, delta=0.0, rng=0)

    def test_nonfinite_operator_rejected(self):
        # The rule and message capped CG has for a broken operator, which
        # `ntcg solve` reports as a contract violation.
        bad = np.zeros((3, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ContractViolation, match="operator returned non-finite values"):
            meo_lanczos(MatrixOperator(bad), 3, M=1.0, epsilon=0.5, delta=0.05, rng=0)

    def test_nonfinite_confirming_product_rejected(self):
        # Exact products for the three Lanczos steps, then NaN for the
        # product that tests the bottom Ritz pair (lambda_min = -2 < -eps):
        # refused, never a certificate.
        diag = np.array([-2.0, 1.0, 1.5])
        products = []

        def scripted(v):
            products.append(v)
            return diag * v if len(products) <= 3 else np.full(3, np.nan)

        with pytest.raises(ContractViolation, match="operator returned non-finite values"):
            meo_lanczos(scripted, 3, M=2.0, epsilon=1.0, delta=0.05, rng=0)
        assert len(products) == 4

    def test_failed_confirmation_is_paid_for_once(self, monkeypatch):
        # A 2-step cap with the residual test passing at every step: the
        # bottom Ritz pair of step 2 is below -eps/2, and the scripted
        # operator makes its confirming product (the third) fail.  The entry
        # 1 + 1e-9 keeps step 2 short of breakdown.
        diag = np.ones(40)
        diag[:2] = -3.0, 1.0 + 1e-9
        products = []

        def scripted(v):
            products.append(v)
            return diag * v if len(products) <= 2 else v

        monkeypatch.setattr(ntcg.meo, "CONV_TOL", np.inf)
        M, eps, delta = 0.01, 1.0, 0.5
        assert meo_iteration_cap(40, M, eps, delta) == 2
        res = meo_lanczos(scripted, 40, M=M, epsilon=eps, delta=delta, rng=0)
        assert res.outcome == CERTIFICATE and res.iterations == 2
        assert len(products) == res.iterations + 1

    def test_bad_m_rejected(self):
        H = MatrixOperator(np.eye(3))
        with pytest.raises(ValueError):
            meo_lanczos(H, H.dim, M=0.0, epsilon=0.5, delta=0.05, rng=0)
        with pytest.raises(ValueError):
            meo_lanczos(H, H.dim, M=np.inf, epsilon=0.5, delta=0.05, rng=0)


class TestStatistics:
    def test_detection_rate_on_planted_curvature(self):
        # Small-scale version of the acceptance criterion: planted
        # lambda_min = -3, eps = 1, so a certificate is a failure event
        # with probability at most delta.
        rng = np.random.default_rng(77)
        dim = 30
        H, op = planted_operator(rng, dim, -3.0, -0.5, 4.0)
        M = np.linalg.norm(H, 2) * 1.01
        failures = 0
        trials = 60
        for t in range(trials):
            res = meo_lanczos(op, op.dim, M=M, epsilon=1.0, delta=0.05, rng=5000 + t)
            if res.outcome == CERTIFICATE:
                failures += 1
            else:
                assert res.lam <= -0.5
        assert failures / trials <= 0.05 + 2 * np.sqrt(0.05 * 0.95 / trials)

    def test_certificate_statement_on_boundary_spectrum(self):
        # lambda_min barely above -eps: certificates are correct whenever
        # issued; curvature findings must still be <= -eps/2.
        rng = np.random.default_rng(99)
        H, op = planted_operator(rng, 15, -0.9, 0.5, 2.0)
        for t in range(20):
            res = meo_lanczos(op, op.dim, M=2.5, epsilon=1.0, delta=0.05, rng=t)
            if res.outcome == NEGATIVE_CURVATURE:
                assert res.lam <= -0.5

    @pytest.mark.parametrize("lam_factor", [1.01, 2.0])
    def test_false_certificates_where_the_step_cap_binds(self, lam_factor):
        # Planted diagonal of dim 1000 with M = 100 eps, so the cap is 71
        # steps, far below the dimension: each call stops at the cap, where
        # a certificate is false with probability at most delta.
        dim, eps, delta, seeds = 1000, 1.0, 0.05, 200
        M = 100.0 * eps
        cap = meo_iteration_cap(dim, M, eps, delta)
        assert cap == 71
        diag = np.concatenate([[-lam_factor * eps],
                               np.random.default_rng(11).uniform(0.0, M, dim - 1)])
        false, steps = 0, set()
        for seed in range(seeds):
            res = meo_lanczos(lambda v: diag * v, dim, M, eps, delta, rng=seed)
            steps.add(res.iterations)
            if res.outcome == CERTIFICATE:
                false += 1
            else:
                assert res.lam <= -0.5 * eps
        assert steps == {cap}
        # The upper tail of Bin(seeds, delta) at 1e-3.
        assert false <= binom.isf(1e-3, seeds, delta)


class TestBottomRitzPair:
    """The direct LAPACK calls give scipy's pair bit for bit."""

    @staticmethod
    def assert_same_as_scipy(d, e):
        lam, v = bottom_ritz_pair(d, e)
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        assert lam == vals[0]
        assert_array_equal(v, vecs[:, 0])

    def test_random_tridiagonals(self):
        rng = np.random.default_rng(3)
        for size in range(2, 61):
            self.assert_same_as_scipy(rng.standard_normal(size),
                                      np.abs(rng.standard_normal(size - 1)))

    def test_clustered_spectrum(self):
        # Eigenvalues within about 1e-8 of 1: bisection and inverse
        # iteration work hardest to separate them.
        rng = np.random.default_rng(4)
        self.assert_same_as_scipy(1.0 + 1e-9 * rng.standard_normal(40),
                                  1e-8 * rng.random(39))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            bottom_ritz_pair(np.array([1.0, np.nan]), np.array([0.5]))


class TestLanczosProcess:
    """The process against numpy.linalg.eigh on small dense operators."""

    @staticmethod
    def run(H, seed, cap=None):
        q = np.random.default_rng(seed).standard_normal(H.shape[0])
        q /= np.linalg.norm(q)
        tol = 1e-12 * np.linalg.norm(H, 2)
        return list(lanczos(MatrixOperator(H), q, cap or H.shape[0], tol))

    @staticmethod
    def ritz_values(alphas, betas):
        return np.linalg.eigvalsh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))

    @pytest.mark.parametrize("seed", range(5))
    def test_full_dimension_gives_the_extreme_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(5, 31))
        H = random_symmetric(rng, dim, -2.0, 3.0)
        steps = self.run(H, seed + 100)
        assert len(steps) == dim
        for k, (Q, alphas, betas, beta) in enumerate(steps, 1):
            assert Q.shape == (dim, k) and alphas.shape == (k,) and betas.shape == (k - 1,)
            assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-12
            assert beta > 0.0 or k == dim
        theta = self.ritz_values(*steps[-1][1:3])
        vals = np.linalg.eigvalsh(H)
        tol = 1e-10 * np.linalg.norm(H, 2)
        assert abs(theta[0] - vals[0]) <= tol and abs(theta[-1] - vals[-1]) <= tol

    @pytest.mark.parametrize("rank", (1, 3, 6))
    def test_breakdown_on_a_low_rank_operator(self, rank):
        # The Krylov space of q lies in span(q) + range(H), of dimension at
        # most rank + 1; at breakdown it is invariant, and the Ritz values
        # are H's nonzero eigenvalues and the 0 of q's null-space part.
        rng = np.random.default_rng(rank)
        vals = np.zeros(30)
        vals[:rank] = rng.uniform(-2.0, 3.0, size=rank)
        H = symmetric_with_spectrum(rng, vals)
        steps = self.run(H, rank + 100)
        assert len(steps) <= rank + 1
        assert steps[-1][3] == 0.0 and all(step[3] > 0.0 for step in steps[:-1])
        Q, alphas, betas, _ = steps[-1]
        assert np.abs(Q.T @ Q - np.eye(len(alphas))).max() <= 1e-12
        expected = np.sort(np.append(vals[:rank], 0.0))
        assert np.allclose(self.ritz_values(alphas, betas), expected,
                           rtol=0.0, atol=1e-10 * np.linalg.norm(H, 2))

    def test_stops_at_the_cap(self):
        H = random_symmetric(np.random.default_rng(7), 20, -1.0, 1.0)
        assert len(self.run(H, 8, cap=4)) == 4
