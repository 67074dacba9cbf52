import numpy as np
import pytest
from helpers import central_diff_grad, central_diff_hvp, rel_err
from numpy.testing import assert_array_equal

import ntcg.oracle
from ntcg import ObjectiveOracle, OracleLedger, QuadraticProblem, synthetic_nls


class TestLedger:
    def test_props_identity_after_interleaving(self):
        ledger = OracleLedger()
        rng = np.random.default_rng(0)
        f = g = h = 0
        for _ in range(300):
            kind = rng.integers(3)
            amount = int(rng.integers(1, 50))
            if kind == 0:
                ledger.f_calls += amount
                f += amount
            elif kind == 1:
                ledger.grad_calls += amount
                g += amount
            else:
                ledger.hv_calls += amount
                h += amount
            assert ledger.props == f + 2 * g + 4 * h

    def test_full_set_eval_counts_n(self):
        problem = synthetic_nls(100, 5, seed=1)
        problem.eval_f(np.zeros(5), problem.full_index_set())
        assert problem.ledger.f_calls == 100

    def test_grad_batch_props(self):
        problem = synthetic_nls(50, 5, seed=1)
        problem.eval_grad(np.zeros(5), np.arange(5))
        assert problem.ledger.props == 10

    def test_three_hvps_on_batch_of_two(self):
        problem = synthetic_nls(50, 5, seed=1)
        v = np.ones(5)
        for _ in range(3):
            problem.eval_hvp(np.zeros(5), v, np.array([3, 7]))
        assert problem.ledger.props == 24

    def test_since_counts_from_a_snapshot(self, monkeypatch):
        ledger = OracleLedger()
        ledger.f_calls, ledger.grad_calls, ledger.hv_calls = 5, 3, 2
        start = ledger.snapshot()
        ledger.f_calls += 7
        ledger.hv_calls += 1
        assert ledger.since(start) == {"f_calls": 7, "grad_calls": 0, "hv_calls": 1,
                                       "props": 11}
        # props comes from the one formula, not from subtracting two props.
        monkeypatch.setattr(OracleLedger, "props", property(lambda self: -1))
        assert ledger.since(start)["props"] == -1

    def test_audit_calls_do_not_pollute(self):
        problem = synthetic_nls(50, 5, seed=1)
        problem.audit_f(np.zeros(5))
        problem.audit_grad(np.zeros(5))
        assert problem.ledger.props == 0
        assert problem.audit_ledger.f_calls == 50
        assert problem.audit_ledger.grad_calls == 50


class TestEvaluation:
    def test_batch_mean_equals_per_component_mean(self):
        problem = synthetic_nls(40, 6, seed=2)
        x = np.random.default_rng(3).standard_normal(6)
        idx = np.array([1, 4, 9, 16, 25])
        batch = problem.eval_f(x, idx)
        singles = [problem.eval_f(x, [i]) for i in idx]
        assert abs(batch - np.mean(singles)) < 1e-12
        bg = problem.eval_grad(x, idx)
        sg = np.mean([problem.eval_grad(x, [i]) for i in idx], axis=0)
        np.testing.assert_allclose(bg, sg, atol=1e-12)

    def test_grad_matches_finite_differences(self):
        problem = synthetic_nls(30, 5, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5)
        idx = problem.full_index_set()
        g = problem.eval_grad(x, idx)
        g_fd = central_diff_grad(lambda y: problem._value(y, idx), x)
        assert rel_err(g, g_fd) < 1e-6

    def test_hvp_matches_finite_differences(self):
        problem = synthetic_nls(30, 5, seed=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(5)
        v = rng.standard_normal(5)
        idx = problem.full_index_set()
        hv = problem.eval_hvp(x, v, idx)
        hv_fd = central_diff_hvp(lambda y: problem._grad(y, idx), x, v)
        assert rel_err(hv, hv_fd) < 1e-5

    def test_empty_index_set_rejected(self):
        oracle = QuadraticProblem(np.ones(4))
        with pytest.raises(ValueError):
            oracle.eval_f(np.zeros(4), [])
        with pytest.raises(ValueError):
            oracle.eval_grad(np.zeros(4), np.array([], dtype=int))
        with pytest.raises(ValueError):
            oracle.eval_hvp(np.zeros(4), np.ones(4), [])

    def test_out_of_range_index_rejected(self):
        problem = synthetic_nls(10, 3, seed=9)
        with pytest.raises(IndexError):
            problem.eval_f(np.zeros(3), [10])

    def test_nonfinite_x_rejected(self):
        oracle = QuadraticProblem(np.ones(4))
        with pytest.raises(ValueError):
            oracle.eval_f(np.array([np.nan, 0, 0, 0]), [0])

    def test_dense_hessian_is_a_subclass_primitive(self):
        # No generic dense Hessian is built from products: a problem
        # without its own _dense_hessian refuses, as it does for _value.
        class ProductsOnly(ObjectiveOracle):
            def _hvp(self, x, v, idx):
                return v

        problem = ProductsOnly(2, 3)
        with pytest.raises(NotImplementedError):
            problem.dense_hessian(np.zeros(3))
        with pytest.raises(NotImplementedError):
            problem.dense_hessian(np.zeros(3), [1])


class TestEvalHvp:
    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_on_problem_hessians(self, seed):
        problem = synthetic_nls(25, 6, seed=seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal(6)
        full = problem.full_index_set()
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        Hu, Hv = problem.eval_hvp(x, u, full), problem.eval_hvp(x, v, full)
        norm_H = np.linalg.norm(problem.dense_hessian(x), 2)
        lhs = abs(u @ Hv - v @ Hu)
        assert lhs <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v) * max(norm_H, 1e-30)

    @pytest.mark.parametrize("seed", range(3))
    def test_linearity(self, seed):
        problem = synthetic_nls(25, 6, seed=seed)
        rng = np.random.default_rng(seed + 200)
        x = rng.standard_normal(6)
        full = problem.full_index_set()
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        a, b = 2.5, -1.25
        np.testing.assert_allclose(
            problem.eval_hvp(x, a * u + b * v, full),
            a * problem.eval_hvp(x, u, full) + b * problem.eval_hvp(x, v, full),
            rtol=1e-10, atol=1e-12,
        )

    def test_rejects_fractional_indices(self):
        problem = synthetic_nls(50, 4, seed=0)
        with pytest.raises(ValueError):
            problem.eval_hvp(np.ones(4), np.ones(4), [0.5])

    def test_rejects_wrong_output_shape(self):
        class WrongShape(ObjectiveOracle):
            def _hvp(self, x, v, idx):
                return np.ones((3, 1))

        with pytest.raises(ValueError, match=r"shape \(3, 1\), expected \(3,\)"):
            WrongShape(2, 3).eval_hvp(np.zeros(3), np.ones(3), [0])


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def _evaluate(problem, method, x, idx, v):
    if method == "eval_hvp":
        return problem.eval_hvp(x, v, idx)
    return getattr(problem, method)(x, idx)


# Props per row of each counted call.
VALIDATION_METHODS = {"eval_f": 1, "eval_grad": 2, "eval_hvp": 4}
X0 = np.array([0.5, -1.0, 2.0])
V0 = np.array([1.0, 0.25, -3.0])
IDX0 = np.array([0, 3, 7], dtype=np.int64)

# (x, index set, v) in the forms a caller may pass; each must give the
# answer of (X0, IDX0, V0).
ACCEPTED = {
    "lists": (X0.tolist(), IDX0.tolist(), V0.tolist()),
    "tuples": (tuple(X0), tuple(IDX0), tuple(V0)),
    "int32-indices": (X0, IDX0.astype(np.int32), V0),
    "integral-float-indices": (X0, IDX0.astype(float), V0),
    "read-only": (_read_only(X0), _read_only(IDX0), _read_only(V0)),
}

# (x, index set, v, the exception the oracle raises).
REJECTED = {
    "2-d-x": (X0[None, :], IDX0, V0, ValueError),
    "short-x": (X0[:2], IDX0, V0, ValueError),
    "nan-x": (np.array([0.5, np.nan, 2.0]), IDX0, V0, ValueError),
    "inf-x": (np.array([0.5, np.inf, 2.0]), IDX0, V0, ValueError),
    "fractional-indices": (X0, np.array([0.0, 3.5]), V0, ValueError),
    "bool-indices": (X0, np.array([True, False, True]), V0, ValueError),
    "negative-index": (X0, np.array([0, -1]), V0, IndexError),
    "out-of-range-index": (X0, np.array([0, 10]), V0, IndexError),
}


class TestValidation:
    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    @pytest.mark.parametrize("method", VALIDATION_METHODS)
    def test_accepted_forms(self, method, case):
        problem = synthetic_nls(10, 3, seed=2)
        want = _evaluate(synthetic_nls(10, 3, seed=2), method, X0, IDX0, V0)
        x, idx, v = ACCEPTED[case]
        assert_array_equal(_evaluate(problem, method, x, idx, v), want)
        assert problem.ledger.props == VALIDATION_METHODS[method] * IDX0.size

    @pytest.mark.parametrize("case", sorted(REJECTED))
    @pytest.mark.parametrize("method", VALIDATION_METHODS)
    def test_rejected_forms(self, method, case):
        problem = synthetic_nls(10, 3, seed=2)
        x, idx, v, exc = REJECTED[case]
        with pytest.raises(exc):
            _evaluate(problem, method, x, idx, v)
        assert problem.ledger.props == 0

    def test_full_index_set_is_shared_and_read_only(self):
        problem = synthetic_nls(10, 3, seed=2)
        full = problem.full_index_set()
        assert full is problem.full_index_set()
        assert_array_equal(full, np.arange(10))
        with pytest.raises(ValueError):
            full[0] = 1


class TestFullIndexSet:
    """The oracle's own full set skips the range scan; any other set,
    an equal copy included, is validated, with the same values and counts."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = []
        real = ntcg.oracle.check_index_set

        def check(indices, n):
            seen.append(indices)
            return real(indices, n)

        monkeypatch.setattr(ntcg.oracle, "check_index_set", check)
        return seen

    @pytest.mark.parametrize("method", VALIDATION_METHODS)
    def test_only_other_sets_are_checked(self, checked, method):
        problem = synthetic_nls(10, 3, seed=2)
        full = problem.full_index_set()
        got = _evaluate(problem, method, X0, full, V0)
        assert checked == []
        want = _evaluate(problem, method, X0, full.copy(), V0)
        assert len(checked) == 1
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert problem.ledger.props == 2 * VALIDATION_METHODS[method] * 10

    def test_dense_hessian_skips_the_check_on_the_full_set(self, checked):
        problem = synthetic_nls(10, 3, seed=2)
        H = problem.dense_hessian(X0, problem.full_index_set())
        assert checked == []
        assert H.tobytes() == problem.dense_hessian(X0).tobytes()

    @pytest.mark.parametrize("method", VALIDATION_METHODS)
    def test_an_out_of_range_copy_is_still_rejected(self, method):
        problem = synthetic_nls(10, 3, seed=2)
        bad = problem.full_index_set() + 1
        with pytest.raises(IndexError):
            _evaluate(problem, method, X0, bad, V0)
        assert problem.ledger.props == 0
