import numpy as np
import pytest
import scipy.sparse as sp
from helpers import load_libsvm_per_line, traced_peak

import ntcg.cli
from ntcg import LibSVMFormatError, dump_libsvm, libsvm, load_libsvm
from ntcg.cli import main


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


def load_bytes(tmp_path, payload, sparse=False):
    path = tmp_path / "a.txt"
    path.write_bytes(payload)
    return load_libsvm(path, sparse=sparse)


def format_error(tmp_path, payload):
    path = tmp_path / "a.txt"
    path.write_bytes(payload)
    with pytest.raises(LibSVMFormatError) as err:
        load_libsvm(path)
    return err.value


class TestLineSyntax:
    """The per-line grammar as the loader accepts it, pinned byte for byte."""

    REFERENCE = b"1 1:0.5 3:2.0\n-1 2:1.5\n"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_lone_cr_line_endings(self, tmp_path, newline):
        A_ref, b_ref = load_bytes(tmp_path, self.REFERENCE)
        A, b = load_bytes(tmp_path, self.REFERENCE.replace(b"\n", newline))
        assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)

    def test_lone_cr_counts_as_a_line_break_in_error_positions(self, tmp_path):
        err = format_error(tmp_path, b"1 1:0.5\r# note\r\n-1 2:x\r")
        assert err.lineno == 3

    def test_tabs_and_runs_of_spaces(self, tmp_path):
        A_ref, b_ref = load_bytes(tmp_path, self.REFERENCE)
        A, b = load_bytes(tmp_path, b"  1\t1:0.5 \t  3:2.0\t\n-1    2:1.5   \n")
        assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)

    def test_comment_lines_between_data_lines(self, tmp_path):
        A_ref, b_ref = load_bytes(tmp_path, self.REFERENCE)
        A, b = load_bytes(
            tmp_path,
            b"# header\n1 1:0.5 3:2.0 # trailing 4:9\n   # indented\n\n"
            b"-1 2:1.5#glued 7:1\n#\n",
        )
        assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)

    def test_lines_counted_across_comments_and_blanks(self, tmp_path):
        err = format_error(tmp_path, b"# c\n\n1 1:1\n  # c\n1 1:1 1:2\n")
        assert err.lineno == 5

    def test_unusual_but_accepted_spellings(self, tmp_path):
        A, b = load_bytes(tmp_path, b"+1e0 01:-.5 +2:1E3 1_0:2_5\n", sparse=True)
        assert A.shape == (1, 10)
        assert A.indices.tolist() == [0, 1, 9]
        assert A.data.tolist() == [-0.5, 1000.0, 25.0]
        assert b.tolist() == [1.0]

    def test_zero_row_and_dimension_floor(self, tmp_path):
        A, b = load_bytes(tmp_path, b"3\n-2 \n", sparse=True)
        assert A.shape == (2, 1) and A.nnz == 0
        assert A.indptr.tolist() == [0, 0, 0]
        assert b.tolist() == [3.0, -2.0]


class TestErrorMessages:
    @pytest.mark.parametrize(
        "payload,message",
        [
            (b"xyz 1:2\n", "line 1: label 'xyz' is not a number"),
            (b"1 1:1 nocolon\n", "line 1: feature 'nocolon' lacks an index:value separator"),
            (b"1 1:abc\n", "line 1: cannot parse feature '1:abc'"),
            (b"1 0:1.0\n", "line 1: feature index 0 is not 1-based"),
            (b"1 -3:1.0\n", "line 1: feature index -3 is not 1-based"),
            (b"1 3:1.0 2:5.0\n",
             "line 1: feature indices must be strictly increasing (2 after 3)"),
            (b"1 3:1.0 3:5.0\n",
             "line 1: feature indices must be strictly increasing (3 after 3)"),
        ],
    )
    def test_full_message_text(self, tmp_path, payload, message):
        err = format_error(tmp_path, payload)
        assert str(err) == message
        assert err.lineno == 1

    def test_no_data_lines_message(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"# only a comment\n\n")
        with pytest.raises(LibSVMFormatError) as err:
            load_libsvm(path)
        assert str(err.value) == "file %r contains no data lines" % str(path)
        assert err.value.lineno is None

    @pytest.mark.parametrize(
        "token,message",
        [
            ("2:1:5", "cannot parse feature '2:1:5'"),
            (":5", "cannot parse feature ':5'"),
            ("5:", "cannot parse feature '5:'"),
            ("1.5:2", "cannot parse feature '1.5:2'"),
        ],
    )
    def test_malformed_index_value_tokens(self, tmp_path, token, message):
        err = format_error(tmp_path, ("1 %s\n" % token).encode())
        assert str(err) == "line 1: " + message

    def test_label_containing_colon(self, tmp_path):
        err = format_error(tmp_path, b"1 1:1\n1:2 3:4\n")
        assert str(err) == "line 2: label '1:2' is not a number"

    def test_first_error_in_file_order_wins(self, tmp_path):
        err = format_error(tmp_path, b"1 1:1\n1 4:1 2:1\n1 1:abc\nxyz\n")
        assert str(err) == (
            "line 2: feature indices must be strictly increasing (2 after 4)")

    @pytest.mark.parametrize("newline", [b"\n", b"\r"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys, newline):
        # The text decoder reads ahead in blocks; its error position counts
        # from the block and names no line.
        lines = [b"1 1:0.5 2:0.25"] * 20000 + [b"\xff 2:1", b""]
        err = format_error(tmp_path, newline.join(lines))
        assert err.lineno == 20001
        message = "line 20001: byte 0xff is not UTF-8 (invalid start byte)"
        assert str(err) == message
        code = main(["solve", "--problem", "nls-sigmoid", "--data",
                     str(tmp_path / "a.txt"), "--variant", "full",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_first_bad_token_in_a_line_wins(self, tmp_path):
        err = format_error(tmp_path, b"1 2:1 1:abc 0:1\n")
        assert str(err) == "line 1: cannot parse feature '1:abc'"
        err = format_error(tmp_path, b"1 2:1 1:1 nocolon\n")
        assert str(err) == (
            "line 1: feature indices must be strictly increasing (1 after 2)")


class TestAgainstWrittenCSR:
    def test_bit_identical_arrays_and_dtypes(self, tmp_path):
        rng = np.random.default_rng(7)
        A = sp.random(40, 600, density=0.05, format="csr", random_state=rng)
        A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-20, 20, A.nnz)
        A.sort_indices()
        b = rng.standard_normal(40)
        assert A.indices.max() > 256
        path = tmp_path / "w.txt"
        dump_libsvm(path, A, b)
        A2, b2 = load_libsvm(path, sparse=True)
        assert A2.shape == A.shape
        for got, want in ((A2.data, A.data), (A2.indices, A.indices),
                          (A2.indptr, A.indptr), (b2, b)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert A2.indices.dtype == np.int32 and A2.indptr.dtype == np.int32
        D, b3 = load_libsvm(path)
        assert D.dtype == np.float64 and D.flags.c_contiguous
        assert D.tobytes() == A.toarray().tobytes()
        assert b3.tobytes() == b.tobytes()


class TestIndexRange:
    def test_largest_int64_index_loads(self, tmp_path):
        A, _ = load_bytes(tmp_path, b"1 1:0.5 9223372036854775807:1\n", sparse=True)
        assert A.shape == (1, 2**63 - 1)
        assert A.indices.tolist() == [0, 2**63 - 2]

    @pytest.mark.parametrize("index", [2**63, 99999999999999999999])
    def test_overflowing_index_is_a_format_error(self, tmp_path, index):
        err = format_error(tmp_path, b"1 1:1\n# c\n1 1:0.5 %d:1\n" % index)
        assert str(err) == (
            "line 3: feature index %d exceeds the largest supported index "
            "9223372036854775807" % index)
        assert err.lineno == 3

    def test_overflowing_index_is_a_clean_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "big.libsvm"
        bad.write_text("1 1:0.5 99999999999999999999:1\n")
        code = main(["solve", "--problem", "nls-sigmoid", "--data", str(bad),
                     "--variant", "full", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 1: feature index 99999999999999999999 exceeds the "
            "largest supported index 9223372036854775807\n")


class TestDenseAllocation:
    """A dense matrix too large to allocate is a clean error that names
    --sparse; under --sparse, so is a dense iterate of the file's width.
    Nothing here allocates either: numpy refuses 2**62 float64 values
    before it tries, and the loader is otherwise patched."""

    def test_loader_refuses_before_allocating(self, tmp_path):
        with pytest.raises(MemoryError, match="dense 1 x 4611686018427387904 float64"):
            load_bytes(tmp_path, b"1 4611686018427387904:1\n")

    def _solve(self, path, tmp_path):
        return main(["solve", "--problem", "nls-sigmoid", "--data", str(path),
                     "--variant", "full", "--out", str(tmp_path)])

    def test_unaddressable_width_is_a_clean_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "wide.libsvm"
        bad.write_text("1 4611686018427387904:1\n")
        assert self._solve(bad, tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: out of memory (a dense 1 x 4611686018427387904 float64 matrix "
            "exceeds the address space); --sparse keeps LIBSVM data in CSR form\n")

    def test_unaddressable_sparse_width_is_a_clean_cli_error(self, tmp_path, capsys):
        # The CSR loads; the dense iterate of that width is what numpy refuses.
        bad = tmp_path / "wide.libsvm"
        bad.write_text("1 4611686018427387904:1\n")
        out = tmp_path / "out"
        code = main(["solve", "--problem", "nls-sigmoid", "--data", str(bad),
                     "--variant", "full", "--sparse", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: dimension 4611686018427387904, the largest feature index in "
            "%s, is too large for a dense iterate\n" % bad)
        assert not out.exists()

    def test_failed_allocation_is_a_clean_cli_error(self, tmp_path, capsys, monkeypatch):
        def loader(path, sparse=False):
            raise MemoryError("Unable to allocate 8.00 PiB")

        monkeypatch.setattr(ntcg.cli, "load_libsvm", loader)
        data = tmp_path / "any.libsvm"
        data.write_text("1 1:1\n")
        assert self._solve(data, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: out of memory (Unable to allocate 8.00 PiB)")
        assert "--sparse" in err


class TestMemory:
    def test_parse_peak_stays_near_the_result_size(self, tmp_path):
        # Column indices above 256 are not small-int singletons, so a loader
        # that keeps one Python object per value shows its full cost.
        rng = np.random.default_rng(5)
        A = sp.random(1250, 2000, density=0.01, format="csr", random_state=rng)
        A.data = rng.integers(1, 1000, A.nnz) / 8.0  # short reprs write fast
        path = tmp_path / "m.txt"
        dump_libsvm(path, A, rng.standard_normal(1250))
        warm = tmp_path / "warm.txt"
        warm.write_text("1 300:1\n")
        load_libsvm(warm, sparse=True)  # imports made on first use stay out
        (A2, _), peak = traced_peak(lambda: load_libsvm(path, sparse=True))
        assert A2.nnz == A.nnz > 20000
        assert peak <= 21 * A.nnz


def written_lines(tmp_path, rows, seed):
    """The lines, without newlines, of a dump_libsvm file with
    full-precision values, the form the benchmark files take."""
    rng = np.random.default_rng(seed)
    A = sp.random(rows, 300, density=0.05, format="csr", random_state=rng)
    A.data = rng.standard_normal(A.nnz)
    path = tmp_path / "w.txt"
    dump_libsvm(path, A, rng.standard_normal(rows))
    return path.read_bytes().split(b"\n")[:-1]


def chunked_file(tmp_path, lines, end=b"\n"):
    path = tmp_path / "c.txt"
    path.write_bytes(b"\n".join(lines) + end)
    size = path.stat().st_size
    assert size >= 16 * libsvm._chunk_size(size)
    return path


def assert_same_csr(got, want):
    (A, b), (A_ref, b_ref) = got, want
    assert A.shape == A_ref.shape
    for x, y in ((A.data, A_ref.data), (A.indices, A_ref.indices),
                 (A.indptr, A_ref.indptr), (b, b_ref)):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


class TestChunkBoundaries:
    """Files of many chunks, where lines that need the per-line parser sit
    among chunks that numpy parses."""

    ROWS = 1000

    def test_written_files_take_the_numpy_path(self, tmp_path, monkeypatch):
        path = chunked_file(tmp_path, written_lines(tmp_path, self.ROWS, 0))
        want = load_libsvm_per_line(path, sparse=True)

        def refuse(lines, lineno):
            raise AssertionError("chunk declined at line %d" % lineno)

        monkeypatch.setattr(libsvm, "_parse_lines", refuse)
        assert_same_csr(load_libsvm(path, sparse=True), want)

    @pytest.mark.parametrize("suffix,message", [
        (b" 9999:abc", "cannot parse feature '9999:abc'"),
        (b" 9999:1 300:2", "feature indices must be strictly increasing (300 after 9999)"),
        (b" 9999:1 nocolon", "feature 'nocolon' lacks an index:value separator"),
        (b" \x01", "feature '\\x01' lacks an index:value separator"),
    ])
    def test_bad_line_in_the_last_chunk(self, tmp_path, suffix, message):
        lines = written_lines(tmp_path, self.ROWS, 1)
        lines.insert(5, b"# a comment: this chunk is parsed line by line")
        bad = len(lines) - 3
        lines[bad] += suffix
        path = chunked_file(tmp_path, lines)
        with pytest.raises(LibSVMFormatError) as err:
            load_libsvm(path)
        assert err.value.lineno == bad + 1
        assert str(err.value) == "line %d: %s" % (bad + 1, message)
        with pytest.raises(LibSVMFormatError) as ref:
            load_libsvm_per_line(path)
        assert (str(ref.value), ref.value.lineno) == (str(err.value), err.value.lineno)

    @pytest.mark.parametrize("edit", [
        lambda line: [b"# comment line", line],
        lambda line: [line + b" # 1:2 trailing"],
        lambda line: [b"+1 +2:1_0 07:-.5e+1 300:1E3"],
        lambda line: [line + b"\r"],
        lambda line: [b"\x0c" + line],
    ], ids=["comment", "trailing-comment", "spellings", "crlf", "formfeed"])
    def test_per_line_chunk_in_the_middle(self, tmp_path, edit):
        lines = written_lines(tmp_path, self.ROWS, 2)
        mid = len(lines) // 2
        lines[mid:mid + 1] = edit(lines[mid])
        path = chunked_file(tmp_path, lines)
        assert_same_csr(load_libsvm(path, sparse=True),
                        load_libsvm_per_line(path, sparse=True))
        A, b = load_libsvm(path)
        A_ref, b_ref = load_libsvm_per_line(path)
        assert A.tobytes() == A_ref.tobytes() and b.tobytes() == b_ref.tobytes()

    def test_index_past_int32_after_the_first_chunk(self, tmp_path):
        # Indices are staged as int32 until a chunk holds a larger one.
        lines = written_lines(tmp_path, self.ROWS, 5)
        late = len(lines) - 3
        lines[late] += b" %d:1" % (2**32 + 1)  # wraps to 1 as an int32
        path = chunked_file(tmp_path, lines)
        before = len(b"\n".join(lines[:late]))
        assert before > libsvm._chunk_size(path.stat().st_size)
        got = load_libsvm(path, sparse=True)
        assert got[0].shape[1] == 2**32 + 1
        assert got[0].indices.dtype == np.int64
        assert got[0].indices.max() == 2**32
        assert_same_csr(got, load_libsvm_per_line(path, sparse=True))

    def test_final_line_without_newline(self, tmp_path):
        lines = written_lines(tmp_path, self.ROWS, 3)
        want = load_libsvm(chunked_file(tmp_path, lines), sparse=True)
        path = chunked_file(tmp_path, lines, end=b"")
        assert_same_csr(load_libsvm(path, sparse=True), want)
        assert_same_csr(load_libsvm_per_line(path, sparse=True), want)
        assert want[0].shape[0] == self.ROWS


class TestCapacity:
    """The buffers are sized from a count of ``:`` and newlines, so a
    load allocates them once, at the size of the result."""

    def test_exact_for_a_written_file(self, tmp_path):
        path = chunked_file(tmp_path, written_lines(tmp_path, 1000, 6))
        A, _ = load_libsvm(path, sparse=True)
        assert libsvm._capacity(path) == (A.nnz, A.shape[0])

    @pytest.mark.parametrize("text, bound", [
        (b"1 1:2 # a:b\n\n-1 3:4", (3, 3)),
        (b"1 1:2\r-1 3:4\r", (2, 1)),
    ], ids=["comment-blank-line-no-final-newline", "lone-cr"])
    def test_other_files_load_the_same(self, tmp_path, text, bound):
        path = tmp_path / "f.txt"
        path.write_bytes(text)
        assert libsvm._capacity(path) == bound
        A, b = load_libsvm(path, sparse=True)
        assert A.toarray().tolist() == [[2, 0, 0], [0, 0, 4]]
        assert b.tolist() == [1, -1]


class TestChunkedMemory:
    def test_parse_peak_over_many_chunks_stays_near_the_result_size(self, tmp_path):
        # Full-precision values, with one comment line parsed line by line.
        lines = written_lines(tmp_path, 3000, 4)
        lines.insert(1500, b"# comment")
        path = chunked_file(tmp_path, lines)
        warm = tmp_path / "warm.txt"
        warm.write_text("1 300:1\n")
        load_libsvm(warm, sparse=True)  # imports made on first use stay out
        (A, _), peak = traced_peak(lambda: load_libsvm(path, sparse=True))
        assert A.nnz > 40000
        assert peak <= 21 * A.nnz
