"""The per-point state behind NLSProblem's f, gradient and HVP.

Every answer must be bit-identical to a direct computation from A, b and
the link formulas, whatever index set, data layout or call order, and a
memo hit must still validate and charge the ledger.  The replay test counts
work (products and row copies on a counting matrix), not time, so a lost
saving fails here rather than only in the benchmark.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_array_equal
from scipy.special import expit

import ntcg.problems
from ntcg import NLSProblem, SamplingPolicy, SolverConfig, run, synthetic_nls
from ntcg.problems import SIGMOID, TANH, WELSCH
from ntcg.sampling import SUB_BOTH

N, DIM = 60, 5


def direct(A, b, link, alpha, x, v, idx):
    """(f, grad, hvp, dense Hessian) over idx, recomputed from scratch."""
    Ai, bi = A[idx], b[idx]
    z = np.asarray(Ai @ x).ravel()
    if link == WELSCH:
        r = bi - z
        e = np.exp(-alpha * r * r)
        loss = (1.0 - e) / alpha
        w = -(2.0 * r * e)
        c = (2.0 - 4.0 * alpha * r * r) * e
    else:
        if link == SIGMOID:
            phi = expit(z)
            d1 = phi * (1.0 - phi)
            d2 = d1 * (1.0 - 2.0 * phi)
        else:
            phi = np.tanh(z)
            d1 = 1.0 - phi * phi
            d2 = -2.0 * phi * d1
        resid = bi - phi
        loss = resid * resid
        w = -2.0 * resid * d1
        c = 2.0 * (d1 * d1 - resid * d2)
    f = float(np.mean(loss))
    g = np.asarray(Ai.T @ w).ravel() / idx.size
    t = np.asarray(Ai @ v).ravel()
    hv = np.asarray(Ai.T @ (c * t)).ravel() / idx.size
    if sp.issparse(Ai):
        H = np.asarray((Ai.multiply(c[:, None])).T @ Ai.todense())
    else:
        H = (c[:, None] * Ai).T @ Ai
    return f, g, hv, np.asarray(H) / idx.size


def instance(link, sparse):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((N, DIM))
    A[rng.random((N, DIM)) < 0.4] = 0.0
    b = {SIGMOID: rng.integers(0, 2, N).astype(float),
         TANH: rng.choice([-1.0, 1.0], N),
         WELSCH: rng.standard_normal(N)}[link]
    return NLSProblem(sp.csr_matrix(A) if sparse else A, b, link=link, alpha=0.7)


def index_set(kind):
    rng = np.random.default_rng(11)
    return {"full": np.arange(N),
            "subset": np.sort(rng.choice(N, 17, replace=False)),
            "permuted-full": rng.permutation(N),
            "repeated": rng.integers(0, N, N)}[kind]


def evaluate(problem, x, v, idx):
    return (problem.eval_f(x, idx), problem.eval_grad(x, idx),
            problem.eval_hvp(x, v, idx), problem.dense_hessian(x, idx))


def assert_same(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert_array_equal(a, b)


@pytest.mark.parametrize("kind", ["full", "subset", "permuted-full", "repeated"])
@pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_bit_identical_to_direct_computation(sparse, link, kind):
    problem = instance(link, sparse)
    rng = np.random.default_rng(3)
    x, y, v = (rng.standard_normal(DIM) for _ in range(3))
    idx, other = index_set(kind), index_set("subset" if kind != "subset" else "full")
    want_x = direct(problem.A, problem.b, link, problem.alpha, x, v, idx)
    want_y = direct(problem.A, problem.b, link, problem.alpha, y, v, other)
    # Interleave two keys so later calls are memo hits, then a third key
    # that evicts the first.
    for _ in range(2):
        assert_same(evaluate(problem, x, v, idx), want_x)
        assert_same(evaluate(problem, y, v, other), want_y)
    evaluate(problem, y, v, idx)
    assert_same(evaluate(problem, x, v, idx), want_x)


@pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
def test_in_place_mutation_of_x_is_seen(link):
    problem = instance(link, sparse=False)
    rng = np.random.default_rng(5)
    x, v = rng.standard_normal(DIM), rng.standard_normal(DIM)
    idx = np.arange(N)
    evaluate(problem, x, v, idx)
    x[0] += 0.5
    idx_before = idx.copy()
    assert_same(evaluate(problem, x, v, idx),
                direct(problem.A, problem.b, link, problem.alpha, x, v, idx))
    idx[:] = idx[::-1]  # the same buffer, now a permuted full set
    assert_same(evaluate(problem, x, v, idx),
                direct(problem.A, problem.b, link, problem.alpha, x, v, idx))
    assert not np.array_equal(idx, idx_before)


def test_memo_hits_validate_and_charge_the_ledger():
    problem = instance(SIGMOID, sparse=False)
    x, v, idx = np.ones(DIM), np.ones(DIM), np.arange(10)
    for _ in range(3):
        problem.eval_f(x, idx)
        problem.eval_grad(x, idx)
        problem.eval_hvp(x, v, idx)
    assert problem.ledger.snapshot() == {
        "f_calls": 30, "grad_calls": 30, "hv_calls": 30, "props": 30 + 60 + 120}
    with pytest.raises(ValueError, match="length"):
        problem.eval_f(x[:-1], idx)
    with pytest.raises(IndexError):
        problem.eval_grad(x, [0, N])
    with pytest.raises(ValueError, match="non-finite"):
        problem.eval_hvp(x, np.full(DIM, np.nan), idx)


class _CountingRows(np.ndarray):
    """A data matrix that logs the products taken with it and the row
    copies fancy indexing makes of it; views and copies share the log."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __matmul__(self, other):
        self.log.append(("product", self.shape, np.array(other, copy=True)))
        return np.asarray(self) @ other

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, (np.ndarray, list)):
            self.log.append(("copy", np.shape(out), None))
        return out


class _CountingFactor(np.ndarray):
    """A link derivative that logs each product taken with it."""

    def __mul__(self, other):
        self.log.append(("scale", self.shape, None))
        return np.asarray(self) * other

    __rmul__ = __mul__


def test_exact_iteration_does_each_product_once(monkeypatch):
    """One `full`-preset iteration: grad(x), three HVPs at x, f(x), one
    accepted trial f(x'), grad(x'), all on the full index set."""
    problem = synthetic_nls(300, 6, seed=2)
    reference = synthetic_nls(300, 6, seed=2)
    log = []
    problem.A = problem.A.view(_CountingRows)
    problem.A.log = log
    link_calls = []
    phi, d1, d2 = ntcg.problems.LINKS[SIGMOID]

    def counting_phi(z):
        link_calls.append(("phi", z.size))
        return phi(z)

    def counting_d1(p):
        link_calls.append(("d1", p.size))
        return d1(p)

    def counting_d2(p, slope):
        # phi'' enters the curvature weights only.
        link_calls.append(("d2", p.size))
        curvature = d2(p, slope).view(_CountingFactor)
        curvature.log = log
        return curvature

    monkeypatch.setitem(ntcg.problems.LINKS, SIGMOID,
                        (counting_phi, counting_d1, counting_d2))

    rng = np.random.default_rng(0)
    x, d = rng.standard_normal(6), rng.standard_normal(6)
    vs = [rng.standard_normal(6) for _ in range(3)]
    x_trial = x + 0.5 * d
    full = problem.full_index_set()

    def iteration(p):
        g = p.eval_grad(x, full)
        hvs = [p.eval_hvp(x, v, full) for v in vs]
        return (g, *hvs, p.eval_f(x, full), p.eval_f(x_trial, full),
                p.eval_grad(x_trial, full))

    got = iteration(problem)
    monkeypatch.undo()
    for a, b in zip(got, iteration(reference)):
        assert_array_equal(a, b)
    assert problem.ledger.snapshot() == reference.ledger.snapshot()

    assert [entry for entry in log if entry[0] == "copy"] == []
    products = [entry for entry in log if entry[0] == "product"]

    def with_operand(u):
        return sum(1 for _, shape, w in products
                   if shape == (300, 6) and np.array_equal(w, u))

    assert with_operand(x) == 1 and with_operand(x_trial) == 1
    assert all(with_operand(v) == 1 for v in vs)
    # Two gradients and three HVPs each take one transposed product.
    assert sum(1 for _, shape, _ in products if shape == (6, 300)) == 5
    assert len(products) == 10
    # Each link term once per point that needs it: phi and phi' at x and
    # x', phi'' (and the curvature weights) at x only.
    assert link_calls == [("phi", 300), ("d1", 300), ("d2", 300),
                          ("phi", 300), ("d1", 300)]
    assert sum(1 for entry in log if entry[0] == "scale") == 1


def test_batch_line_search_iteration_copies_each_index_set_once():
    """One `inexact-sub-eval` iteration copies the rows of its gradient
    batch and of its Hessian batch once each: f(x) and every line-search
    trial on the gradient batch read the gradient's copy."""
    problem = synthetic_nls(300, 6, seed=2)
    reference = synthetic_nls(300, 6, seed=2)
    log = []
    problem.A = problem.A.view(_CountingRows)
    problem.A.log = log
    policy = SamplingPolicy(mode=SUB_BOTH, grad_batch=60, hess_batch=20,
                            line_search_eval="batch")
    # A large eta rejects the first trials, so several share the rows.
    cfg = SolverConfig(eps_g=1e-3, eta=50.0, seed=1, max_outer_iters=1,
                       skip_small_step_block=True)
    got, want = run(problem, cfg, policy=policy), run(reference, cfg, policy=policy)
    assert got.records == want.records
    assert got.ledger == want.ledger and got.audit_ledger == want.audit_ledger
    assert got.records[0].ls_trials >= 2
    assert sorted(shape for kind, shape, _ in log if kind == "copy") == [(20, 6), (60, 6)]


class _CountingCSR(sp.csr_matrix):
    """A CSR data matrix that logs the shape of each operand it multiplies."""

    def __matmul__(self, other):
        self.log.append(np.shape(other))
        return super().__matmul__(other)


@pytest.mark.parametrize("count", [1, 2, 16, 17])
@pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_audit_f_many_equals_audit_f(sparse, link, count):
    problem, reference = instance(link, sparse), instance(link, sparse)
    rng = np.random.default_rng(13)
    points = [rng.standard_normal(DIM) for _ in range(count)]
    assert problem.audit_f_many(points) == [reference.audit_f(x) for x in points]
    assert problem.audit_ledger.snapshot() == reference.audit_ledger.snapshot()
    assert problem.ledger.snapshot() == reference.ledger.snapshot()


@pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
def test_audit_f_many_splits_blocks_past_the_memory_cap(monkeypatch, link):
    # Rows of about 15 stored values; a cap of three columns' products
    # splits 17 points into blocks of 3, 3, 3, 3, 3 and 2.
    rng = np.random.default_rng(17)
    A = sp.random(2000, 300, density=0.05, format="csr", random_state=rng)
    b = rng.integers(0, 2, 2000).astype(float)
    problem, reference = NLSProblem(A, b, link=link), NLSProblem(A, b, link=link)
    problem.A = _CountingCSR(A)
    problem.A.log = log = []
    monkeypatch.setattr(ntcg.problems, "_AUDIT_BLOCK_BYTES", 3 * 8 * 2000 + 7)
    points = [rng.standard_normal(300) for _ in range(17)]
    assert problem.audit_f_many(points) == [reference.audit_f(x) for x in points]
    assert log == [(300, 3)] * 5 + [(300, 2)]
    assert problem.audit_ledger.snapshot() == reference.audit_ledger.snapshot()


@pytest.mark.parametrize("link", [SIGMOID, TANH])
def test_value_only_states_skip_the_link_derivatives(monkeypatch, link):
    """Line-search trials and audit values ask a state for f alone: they
    evaluate phi and neither derivative; later asks add each one once."""
    rng = np.random.default_rng(9)
    x, v = rng.standard_normal(DIM), rng.standard_normal(DIM)
    idx = index_set("subset")
    points = [x + 0.5, x + 1.0, x]

    def replay(problem):
        return ([problem.eval_f(y, idx) for y in points]
                + [problem.eval_f(x, idx), problem.eval_hvp(x, v, idx),
                   problem.eval_grad(x, idx)])

    want = replay(instance(link, sparse=False))
    calls = []

    def counting(name, fn):
        def stage(*args):
            calls.append(name)
            return fn(*args)
        return stage

    stages = tuple(counting(name, fn)
                   for name, fn in zip(("phi", "d1", "d2"), ntcg.problems.LINKS[link]))
    monkeypatch.setitem(ntcg.problems.LINKS, link, stages)
    got = replay(instance(link, sparse=False))
    assert got[:4] == want[:4]
    for a, b in zip(got[4:], want[4:]):
        assert_array_equal(a, b)
    assert calls == ["phi"] * 3 + ["d1", "d2"]
