"""Set-up reductions over row blocks: the same bits, one block of memory.

The row norms, the row normalisation of `synthetic_nls` and the finiteness
test of `check_matrix` run on row blocks of about 1 MiB.  Each row must
read the same values in the same order as the unblocked formula, so every
result is compared byte for byte with it; small blocks (a patched block
size) put the block edges where the cases need them.  The allocation
tests bound tracemalloc's peak by A plus about one block plus O(n)
vectors, where the unblocked code held a second copy of A.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import traced_peak
from scipy.special import expit

import ntcg._validation
import ntcg.problems
from ntcg import NLSProblem, constants_for, synthetic_nls
from ntcg._validation import check_matrix, row_blocks
from ntcg.problems import SIGMOID, TANH, WELSCH, _row_norms

BLOCK_BYTES = 8 * ntcg._validation._BLOCK_VALUES


def dense_norms(A):
    return np.linalg.norm(A, axis=1)


def csr_norms(A):
    return np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())


def unblocked_synthetic(n, dim, link=SIGMOID, row_norm=1.0, seed=0):
    """(A, b) of `synthetic_nls` with the unblocked row normalisation."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, dim))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    A *= row_norm * rng.uniform(0.5, 1.0, size=(n, 1))
    x_star = rng.standard_normal(dim)
    x_star /= np.linalg.norm(x_star)
    z = A @ (3.0 * x_star)
    if link == SIGMOID:
        b = (expit(z) + 0.1 * rng.standard_normal(n) > 0.5).astype(float)
    elif link == TANH:
        b = np.sign(np.tanh(z) + 0.1 * rng.standard_normal(n))
        b[b == 0] = 1.0
    else:
        b = z + 0.1 * rng.standard_normal(n)
    return A, b


@pytest.fixture
def rows_per_block(monkeypatch):
    """Set the block to `rows` rows of width `dim`; returns the setter."""
    def set_block(rows, dim):
        monkeypatch.setattr(ntcg._validation, "_BLOCK_VALUES", rows * dim)
    return set_block


def spread(rng, shape, order="C"):
    """Values over many magnitudes, so that summation order shows in the
    last bits."""
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    return np.asarray(A, order=order)


class TestRowBlocks:
    def test_blocks_cover_the_rows_in_order(self, rows_per_block):
        rows_per_block(16, 7)
        for n in (1, 2, 15, 16, 17, 18, 33, 48):
            blocks = row_blocks(np.zeros((n, 7)))
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            # No single-row block unless A has one row.
            assert all(s.stop - s.start >= min(n, 2) for s in blocks)

    def test_real_block_is_about_one_mib(self):
        blocks = row_blocks(np.zeros((10000, 200)))
        assert [s.stop - s.start for s in blocks[:-1]] == [655] * (len(blocks) - 1)
        assert 655 * 200 * 8 <= BLOCK_BYTES

    def test_csr_blocks_follow_stored_values(self, rows_per_block):
        rows_per_block(10, 1)  # blocks of about 10 stored values
        counts = [3, 0, 4, 5, 25, 0, 0, 1, 2, 9, 1]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        A = sp.csr_matrix((np.ones(indptr[-1]), np.zeros(indptr[-1], int), indptr),
                          shape=(len(counts), 1))
        blocks = row_blocks(A)
        assert [(s.start, s.stop) for s in blocks] == [(0, 4), (4, 5), (5, 9), (9, 11)]


class TestRowNormBits:
    @pytest.mark.parametrize("n", [5, 16, 17, 32, 33, 40])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_around_the_block_edge(self, rows_per_block, n, order):
        rows_per_block(16, 23)
        A = spread(np.random.default_rng(n), (n, 23), order)
        assert _row_norms(A).tobytes() == dense_norms(A).tobytes()

    @pytest.mark.parametrize("extra, blocks", [(-1, 1), (0, 1), (1, 1), (2, 2)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_at_the_real_block_size(self, extra, blocks, order):
        # A one-row tail joins the block before it.
        dim = 64
        n = ntcg._validation._BLOCK_VALUES // dim + extra
        A = spread(np.random.default_rng(1), (n, dim), order)
        assert len(row_blocks(A)) == blocks
        assert _row_norms(A).tobytes() == dense_norms(A).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_single_column(self, rows_per_block, order):
        rows_per_block(4, 1)
        A = spread(np.random.default_rng(2), (11, 1), order)
        assert _row_norms(A).tobytes() == dense_norms(A).tobytes()

    def test_strided_views(self, rows_per_block):
        rows_per_block(3, 20)
        base = spread(np.random.default_rng(3), (41, 40))
        for A in (base[::2, ::2], base[:, 5:25], base.T[:, :41]):
            assert _row_norms(A).tobytes() == dense_norms(A).tobytes()

    @pytest.mark.parametrize("block_values", [1, 7, 40, 1 << 17])
    def test_csr_with_empty_rows_zeros_and_underflow(self, monkeypatch, block_values):
        monkeypatch.setattr(ntcg._validation, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(4)
        A = sp.random(300, 120, density=0.15, format="csr", random_state=rng)
        # Squares of values near 1e-170 underflow to zero.
        A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-170, 4, A.nnz)
        A = sp.csr_matrix(A.toarray() * (rng.random((300, 1)) < 0.8))  # empty rows
        A.data[::7] = 0.0  # stored zeros
        assert A.has_canonical_format and (np.diff(A.indptr) == 0).any()
        assert _row_norms(A).tobytes() == csr_norms(A).tobytes()

    def test_csr_non_canonical_storage(self, rows_per_block):
        rows_per_block(2, 1)
        # Row 0 repeats a column, row 1 is unsorted, row 2 is canonical.
        A = sp.csr_matrix((np.array([1.5, 2.25, 1e-3, 3.0, 0.7, 1.1, 2.2, 3.3]),
                           np.array([2, 2, 0, 3, 1, 0, 1, 2]),
                           np.array([0, 3, 5, 8])), shape=(3, 4))
        assert not A.has_canonical_format
        assert _row_norms(A).tobytes() == csr_norms(A).tobytes()
        assert A.indices.tolist() == [2, 2, 0, 3, 1, 0, 1, 2]  # left as given


class TestSetupBits:
    @pytest.mark.parametrize("link", [SIGMOID, TANH, WELSCH])
    @pytest.mark.parametrize("n, dim", [(50, 3), (3000, 100), (1311, 100)])
    def test_synthetic_nls_and_constants(self, monkeypatch, link, n, dim):
        problem = synthetic_nls(n, dim, link=link, seed=n)
        A, b = unblocked_synthetic(n, dim, link=link, seed=n)
        assert problem.A.tobytes() == A.tobytes()
        assert problem.b.tobytes() == b.tobytes()
        got = constants_for(problem)
        monkeypatch.setattr(ntcg.problems, "_row_norms", dense_norms)
        assert got == constants_for(NLSProblem(A, b, link=link))

    def test_csr_constants(self, monkeypatch, rows_per_block):
        rows_per_block(5, 1)
        rng = np.random.default_rng(6)
        A = sp.random(200, 50, density=0.1, format="csr", random_state=rng)
        b = rng.integers(0, 2, 200).astype(float)
        got = constants_for(NLSProblem(A, b))
        monkeypatch.setattr(ntcg.problems, "_row_norms", csr_norms)
        assert got == constants_for(NLSProblem(A, b))


class TestFinitenessCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_bad_value_in_the_last_block(self, rows_per_block, bad, order):
        rows_per_block(4, 6)
        A = np.asarray(np.ones((19, 6)), order=order)
        assert check_matrix(A) is A
        A[-1, -1] = bad
        assert len(row_blocks(A)) > 1
        with pytest.raises(ValueError) as err:
            check_matrix(A)
        assert str(err.value) == "A contains non-finite entries"

    def test_csr_bad_value_in_the_last_block(self, rows_per_block):
        rows_per_block(8, 1)
        A = sp.random(40, 30, density=0.2, format="csr", random_state=0)
        assert check_matrix(A, "X") is A
        A.data[-1] = np.nan
        with pytest.raises(ValueError) as err:
            check_matrix(A, "X")
        assert str(err.value) == "X contains non-finite entries"


class TestSetupAllocation:
    """tracemalloc peaks of set-up: A plus about one block plus O(n)."""

    N, DIM = 8000, 400

    @pytest.fixture(scope="class")
    def dense(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((self.N, self.DIM))
        return A, rng.integers(0, 2, self.N).astype(float)

    @pytest.fixture(scope="class")
    def csr(self):
        # 2M stored values in 4000 rows of 500, built without a dense copy.
        n, per_row = 4000, 500
        rng = np.random.default_rng(1)
        indices = np.tile(np.arange(0, 2 * per_row, 2, dtype=np.int32), n)
        A = sp.csr_matrix((rng.standard_normal(n * per_row), indices,
                           np.arange(0, n * per_row + 1, per_row)),
                          shape=(n, 2 * per_row))
        return A, rng.integers(0, 2, n).astype(float)

    @staticmethod
    def vectors(n):
        """The bytes of eight float64 n-vectors."""
        return 8 * 8 * n

    def test_synthetic_nls(self):
        n, dim = 8000, 200
        synthetic_nls(50, 3)  # imports made on first use stay out
        problem, peak = traced_peak(lambda: synthetic_nls(n, dim))
        assert peak <= problem.A.nbytes + BLOCK_BYTES + self.vectors(n)

    def test_dense_problem(self, dense):
        A, b = dense
        problem, peak = traced_peak(lambda: NLSProblem(A, b))
        assert problem.A is A
        assert peak <= BLOCK_BYTES + self.vectors(self.N)
        _, peak = traced_peak(lambda: constants_for(problem))
        assert peak <= BLOCK_BYTES + self.vectors(self.N)

    def test_csr_problem(self, csr):
        A, b = csr
        problem, peak = traced_peak(lambda: NLSProblem(A, b))
        assert problem.A is A
        assert peak <= BLOCK_BYTES + self.vectors(A.shape[0])
        _, peak = traced_peak(lambda: constants_for(problem))
        assert peak <= BLOCK_BYTES + self.vectors(A.shape[0])
