import numpy as np
import pytest
from helpers import MatrixOperator, symmetric_with_spectrum
from numpy.testing import assert_array_equal
from scipy.linalg import eigh_tridiagonal

from ntcg import CERTIFICATE, NEGATIVE_CURVATURE, meo_lanczos
from ntcg.meo import bottom_ritz_pair, meo_iteration_cap


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
