import numpy as np
import pytest
import scipy.sparse as sp

from ntcg import LibSVMFormatError, dump_libsvm, load_libsvm


class TestParsing:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1 1:0.5 3:2.0\n")
        A, b = load_libsvm(path)
        assert A.shape == (1, 3)
        np.testing.assert_allclose(A[0], [0.5, 0.0, 2.0])
        np.testing.assert_allclose(b, [1.0])

    def test_empty_feature_list_is_zero_row(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0\n1 2:1.5\n")
        A, b = load_libsvm(path)
        assert A.shape == (2, 2)
        np.testing.assert_allclose(A[0], [0.0, 0.0])
        np.testing.assert_allclose(b, [0.0, 1.0])

    def test_dimension_is_max_index(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1 2:1\n-1 7:3\n")
        A, _ = load_libsvm(path)
        assert A.shape == (2, 7)

    def test_sparse_output_matches_dense(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1 1:0.5 3:2.0\n0 2:-1.0\n")
        A_d, b_d = load_libsvm(path)
        A_s, b_s = load_libsvm(path, sparse=True)
        assert sp.issparse(A_s)
        np.testing.assert_allclose(A_s.toarray(), A_d)
        np.testing.assert_allclose(b_s, b_d)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# header\n\n1 1:2.0  # trailing\n")
        A, b = load_libsvm(path)
        assert A.shape == (1, 1)
        assert A[0, 0] == 2.0


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# nothing\n\n")
        with pytest.raises(LibSVMFormatError):
            load_libsvm(path)

    @pytest.mark.parametrize(
        "payload,wrong_line",
        [
            ("1 1:0.5\nxyz 1:2\n", 2),
            ("1 nocolon\n", 1),
            ("1 1:abc\n", 1),
            ("1 0:1.0\n", 1),
            ("1 3:1.0 2:5.0\n", 1),
            ("ok 1:1\n1 1:1\n", 1),
        ],
    )
    def test_malformed_lines_report_position(self, tmp_path, payload, wrong_line):
        path = tmp_path / "a.txt"
        path.write_text(payload)
        with pytest.raises(LibSVMFormatError) as err:
            load_libsvm(path)
        assert err.value.lineno == wrong_line
        assert "line %d" % wrong_line in str(err.value)


class TestRoundTrip:
    def test_write_read_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 5))
        A[rng.random((12, 5)) < 0.4] = 0.0
        A[:, -1] = 1e-17 * rng.standard_normal(12)  # awkward magnitudes
        b = rng.standard_normal(12)
        path = tmp_path / "rt.txt"
        dump_libsvm(path, A, b)
        A2, b2 = load_libsvm(path)
        assert A2.shape == A.shape
        assert np.array_equal(A2, A)  # bit-exact, not allclose
        assert np.array_equal(b2, b)

    def test_round_trip_sparse_input(self, tmp_path):
        rng = np.random.default_rng(1)
        A = sp.random(8, 6, density=0.5, random_state=2, format="csr")
        b = rng.standard_normal(8)
        path = tmp_path / "rt.txt"
        dump_libsvm(path, A, b)
        A2, b2 = load_libsvm(path, sparse=True)
        assert np.array_equal(A2.toarray(), A.toarray())
        assert np.array_equal(b2, b)

    def test_zero_rows_survive(self, tmp_path):
        A = np.zeros((3, 2))
        A[1, 1] = 4.0
        b = np.array([1.0, -1.0, 1.0])
        path = tmp_path / "rt.txt"
        dump_libsvm(path, A, b)
        A2, b2 = load_libsvm(path)
        assert np.array_equal(A2, A)
        assert np.array_equal(b2, b)

    def test_round_trip_non_canonical_csr(self, tmp_path):
        # A row-scaling product stores column indices unsorted; the first
        # explicit matrix also repeats a column, which the file must merge.
        rng = np.random.default_rng(0)
        A0 = sp.random(20, 30, density=0.3, format="csr", random_state=rng)
        scaled = (sp.diags(rng.uniform(0.5, 1.0, 20)) @ A0).tocsr()
        repeated = sp.csr_matrix(
            (np.array([1.5, -2.0, 0.25, 4.0]), np.array([3, 0, 3, 1]),
             np.array([0, 3, 4, 4])), shape=(3, 4))
        for A in (scaled, repeated):
            stored = (A.data.copy(), A.indices.copy(), A.indptr.copy())
            b = np.arange(A.shape[0], dtype=float)
            path = tmp_path / "rt.txt"
            dump_libsvm(path, A, b)
            A2, b2 = load_libsvm(path, sparse=True)
            assert np.array_equal(A2.toarray(), A.toarray())
            assert np.array_equal(b2, b)
            for before, after in zip(stored, (A.data, A.indices, A.indptr)):
                assert np.array_equal(before, after)
