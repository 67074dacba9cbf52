import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import central_diff_grad, central_diff_hvp, rel_err

import ntcg._validation
from ntcg import NLSProblem, QuadraticProblem, SaddleProblem, constants_for
from ntcg._validation import row_blocks
from ntcg.problems import SIGMOID, TANH, WELSCH


def random_instance(link, n, d, seed, alpha=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A /= np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1.0)
    if link == SIGMOID:
        b = rng.integers(0, 2, size=n).astype(float)
    elif link == TANH:
        b = rng.choice([-1.0, 1.0], size=n)
    else:
        b = rng.standard_normal(n)
    return NLSProblem(A, b, link=link, alpha=alpha)


class TestClosedForms:
    def test_sigmoid_zero_residual_kills_gradient(self):
        A = np.array([[1.0, 0.0]])
        problem = NLSProblem(A, np.array([0.5]), link=SIGMOID)
        g = problem.eval_grad(np.zeros(2), [0])
        np.testing.assert_allclose(g, 0.0, atol=1e-16)
        assert problem.eval_f(np.zeros(2), [0]) == 0.0

    def test_sigmoid_unit_row_gradient_value(self):
        # residual 0.5, phi'(0) = 1/4: gradient is -2 * 0.5 * 0.25 * a
        A = np.array([[1.0, 0.0]])
        problem = NLSProblem(A, np.array([1.0]), link=SIGMOID)
        g = problem.eval_grad(np.zeros(2), [0])
        np.testing.assert_allclose(g, [-0.25, 0.0], atol=1e-15)

    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, link, seed):
        problem = random_instance(link, 12, 5, seed)
        rng = np.random.default_rng(seed + 50)
        x = rng.standard_normal(5)
        idx = problem.full_index_set()
        g = problem._grad(x, idx)
        g_fd = central_diff_grad(lambda y: problem._value(y, idx), x)
        assert rel_err(g, g_fd) < 1e-6

    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    @pytest.mark.parametrize("seed", range(4))
    def test_hvp_matches_finite_differences(self, link, seed):
        problem = random_instance(link, 12, 5, seed)
        rng = np.random.default_rng(seed + 90)
        x = rng.standard_normal(5)
        v = rng.standard_normal(5)
        idx = problem.full_index_set()
        hv = problem._hvp(x, v, idx)
        hv_fd = central_diff_hvp(lambda y: problem._grad(y, idx), x, v)
        assert rel_err(hv, hv_fd) < 1e-5

    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    def test_dense_hessian_matches_hvp_columns(self, link):
        problem = random_instance(link, 10, 4, 7)
        x = np.random.default_rng(8).standard_normal(4)
        H = problem.dense_hessian(x)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            np.testing.assert_allclose(
                H[:, j], problem._hvp(x, e, problem.full_index_set()), atol=1e-12
            )

    @pytest.mark.parametrize("make", [
        lambda: random_instance(SIGMOID, 10, 4, 7),
        lambda: QuadraticProblem(np.ones(4)),
        lambda: SaddleProblem(4),
    ], ids=["nls", "quadratic", "saddle"])
    @pytest.mark.parametrize("bad", ([-1], [10], [0, 10]))
    def test_dense_hessian_rejects_out_of_range_rows_as_hvp_does(self, make, bad):
        # -1 must not wrap to the last row.
        problem = make()
        x = np.zeros(4)
        with pytest.raises(IndexError):
            problem.eval_hvp(x, np.ones(4), bad)
        with pytest.raises(IndexError):
            problem.dense_hessian(x, bad)

    def test_sparse_rows_agree_with_dense(self):
        problem_d = random_instance(SIGMOID, 15, 6, 9)
        problem_s = NLSProblem(
            sp.csr_matrix(problem_d.A), problem_d.b, link=SIGMOID
        )
        x = np.random.default_rng(10).standard_normal(6)
        idx = np.array([0, 3, 8])
        assert abs(problem_d._value(x, idx) - problem_s._value(x, idx)) < 1e-14
        np.testing.assert_allclose(
            problem_d._grad(x, idx), problem_s._grad(x, idx), atol=1e-14
        )
        np.testing.assert_allclose(
            problem_d._hvp(x, np.ones(6), idx), problem_s._hvp(x, np.ones(6), idx),
            atol=1e-14,
        )

    def test_welsch_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            NLSProblem(np.eye(2), np.zeros(2), link=WELSCH, alpha=0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
    def test_welsch_rejects_alpha_that_is_not_finite_and_positive(self, alpha):
        # NaN used to pass `alpha <= 0` and fail later on a derived constant.
        with pytest.raises(ValueError, match="welsch alpha must"):
            NLSProblem(np.eye(2), np.zeros(2), link=WELSCH, alpha=alpha)


class TestConstants:
    def test_sigmoid_single_row_values(self):
        problem = NLSProblem(np.array([[1.0]]), np.array([1.0]), link=SIGMOID)
        c = constants_for(problem)
        assert c.L_H == 10.0  # 2 (|b| + 4) ||a||^3
        assert c.U_g == 1.0  # (|b| + 1) ||a|| / 2
        assert c.U_H == 3.0  # (|b| + 2) ||a||^2

    def test_welsch_single_row_values(self):
        problem = NLSProblem(np.array([[1.0]]), np.array([0.0]), link=WELSCH, alpha=1.0)
        c = constants_for(problem)
        assert c.L_H == 9.0
        assert abs(c.U_g - np.sqrt(2.0)) < 1e-15
        assert c.U_H == 2.0

    def test_tanh_k_g_row(self):
        problem = NLSProblem(np.array([[2.0]]), np.array([-1.0]), link=TANH)
        c = constants_for(problem)
        assert c.U_g == 2.0 * 2.0 * 2.0  # 2 (|b| + 1) ||a||
        assert c.L_H == 2.0 * 5.0 * 8.0

    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    def test_component_bounds_hold_pointwise(self, link):
        problem = random_instance(link, 20, 6, 21)
        c = constants_for(problem)
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = rng.standard_normal(6) * rng.uniform(0.1, 5.0)
            i = int(rng.integers(20))
            gi = problem._grad(x, np.array([i]))
            assert np.linalg.norm(gi) <= c.U_g + 1e-12
            Hi = problem.dense_hessian(x, np.array([i]))
            assert np.linalg.norm(Hi, 2) <= c.U_H + 1e-12

    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    def test_empirical_hessian_lipschitz(self, link):
        # ||hess f(x) - hess f(y)|| <= L_H ||x - y|| on random pairs; for
        # the welsch row the printed constant needs alpha >= 1 to dominate.
        problem = random_instance(link, 15, 5, 23, alpha=1.0)
        c = constants_for(problem)
        rng = np.random.default_rng(24)
        for _ in range(40):
            x = rng.standard_normal(5)
            y = x + rng.standard_normal(5) * 0.5
            gap = np.linalg.norm(
                problem.dense_hessian(x) - problem.dense_hessian(y), 2
            )
            assert gap <= c.L_H * np.linalg.norm(x - y) + 1e-12


class TestSynthetic:
    def test_quadratic_gradient_and_hessian(self):
        q = QuadraticProblem(np.array([2.0, 1.0]))
        x = np.array([1.0, -3.0])
        np.testing.assert_allclose(q.eval_grad(x, [0]), [2.0, -3.0])
        np.testing.assert_allclose(q.eval_hvp(x, np.ones(2), [0]), [2.0, 1.0])

    def test_saddle_stationary_origin_with_planted_eigenvalue(self):
        problem = SaddleProblem(4, mu=1.0, gamma=1.0)
        consts = problem.constants()
        g0 = problem.eval_grad(np.zeros(4), [0])
        np.testing.assert_allclose(g0, 0.0)
        H0 = problem.dense_hessian(np.zeros(4))
        vals, vecs = np.linalg.eigh(H0)
        assert abs(vals[0] + 1.0) < 1e-14
        assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12

    def test_saddle_bounded_below(self):
        problem = SaddleProblem(3, mu=2.0, gamma=0.5)
        consts = problem.constants()
        assert consts.f_low == -(2.0**2) / (4.0 * 0.5)
        rng = np.random.default_rng(30)
        for _ in range(200):
            x = rng.standard_normal(3) * 3.0
            assert problem.eval_f(x, [0]) >= consts.f_low - 1e-12
        # the minimum is attained on the negative-curvature axis
        x_star = np.array([np.sqrt(2.0 / 0.5) * np.sqrt(1.0), 0.0, 0.0])
        x_star[0] = np.sqrt(2.0 / 0.5)
        assert abs(problem.eval_f(x_star, [0]) - consts.f_low) < 1e-12

    def test_saddle_derivatives_consistent(self):
        problem = SaddleProblem(5)
        rng = np.random.default_rng(31)
        x = rng.standard_normal(5)
        v = rng.standard_normal(5)
        idx = [0]
        g_fd = central_diff_grad(lambda y: problem._value(y, np.array(idx)), x)
        assert rel_err(problem._grad(x, np.array(idx)), g_fd) < 1e-6
        hv_fd = central_diff_hvp(lambda y: problem._grad(y, np.array(idx)), x, v)
        assert rel_err(problem._hvp(x, v, np.array(idx)), hv_fd) < 1e-6

    def test_saddle_constants_dominate_on_radius(self):
        problem = SaddleProblem(4, mu=1.0, gamma=1.0)
        consts = problem.constants()
        R = problem.default_radius()
        rng = np.random.default_rng(32)
        for _ in range(60):
            x = rng.standard_normal(4)
            x *= rng.uniform(0, R) / np.linalg.norm(x)
            assert np.linalg.norm(problem._grad(x, np.array([0]))) <= consts.U_g + 1e-9
            assert np.linalg.norm(problem.dense_hessian(x), 2) <= consts.U_H + 1e-9
            y = x + rng.standard_normal(4) * 0.1
            if np.linalg.norm(y) <= R:
                gap = np.linalg.norm(
                    problem.dense_hessian(x) - problem.dense_hessian(y), 2
                )
                assert gap <= consts.L_H * np.linalg.norm(x - y) + 1e-9


class TestBlockedHVP:
    """A dense batch of several row blocks takes its HVP block by block;
    one block and CSR data keep the single product."""

    @staticmethod
    def point(problem, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(problem.dim), rng.standard_normal(problem.dim)

    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("batch", ["full", "sampled"])
    def test_several_blocks_add_their_parts_in_block_order(
            self, monkeypatch, link, order, batch):
        monkeypatch.setattr(ntcg._validation, "_BLOCK_VALUES", 16 * 9)
        base = random_instance(link, 60, 9, seed=5)
        problem = NLSProblem(np.asarray(base.A, order=order), base.b, link=link)
        x, v = self.point(problem, 6)
        full = batch == "full"
        idx = (problem.full_index_set() if full
               else np.random.default_rng(7).integers(0, 60, size=50))
        hv = problem.eval_hvp(x, v, idx)
        # The rows the state holds: A itself, or the copy A[idx].
        A = problem.A if full else problem.A[idx]
        c = problem._state(x, idx).curv_weights
        blocks = row_blocks(A)
        assert len(blocks) == 4
        total = A[blocks[0]].T @ (c[blocks[0]] * (A[blocks[0]] @ v))
        for rows in blocks[1:]:
            total = total + A[rows].T @ (c[rows] * (A[rows] @ v))
        assert hv.tobytes() == (total / idx.size).tobytes()
        assert rel_err(hv, A.T @ (c * (A @ v)) / idx.size) < 1e-13

    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    @pytest.mark.parametrize("data", ["one-block-C", "one-block-F", "csr"])
    def test_one_block_and_csr_keep_the_single_product(self, monkeypatch, link, data):
        base = random_instance(link, 75, 9, seed=8)
        A = np.asarray(base.A, order="F" if data == "one-block-F" else "C")
        if data == "csr":
            # Blocks this small would split the rows were CSR blocked.
            monkeypatch.setattr(ntcg._validation, "_BLOCK_VALUES", 16)
            A = sp.csr_matrix(A * (np.random.default_rng(9).random(A.shape) < 0.4))
        else:
            assert len(row_blocks(A)) == 1
        problem = NLSProblem(A, base.b, link=link)
        x, v = self.point(problem, 10)
        idx = problem.full_index_set()
        hv = problem.eval_hvp(x, v, idx)
        c = problem._state(x, idx).curv_weights
        assert hv.tobytes() == (A.T @ (c * (A @ v)) / 75).tobytes()


# Prints the SHA-256 of one full-set HVP on a 10000 x 100 instance: 8 row
# blocks at the real block size.
_HVP_HASH = """
import hashlib
import numpy as np
from ntcg import synthetic_nls
from ntcg.problems import TANH
problem = synthetic_nls(10000, 100, link=TANH, seed=0)
rng = np.random.default_rng(1)
x, v = 0.3 * rng.standard_normal(100), rng.standard_normal(100)
print(hashlib.sha256(problem.eval_hvp(x, v, problem.full_index_set()).tobytes())
      .hexdigest())
"""


def test_full_set_hvp_does_not_depend_on_the_blas_thread_count():
    # One BLAS call over all rows splits its sum by thread.
    src = str(Path(ntcg.__file__).resolve().parents[1])
    hashes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _HVP_HASH], env=env, check=True,
                             capture_output=True, text=True).stdout
        hashes.add(out.strip())
    assert len(hashes) == 1
