"""LIBSVM text format: line-oriented loader and writer.

Line grammar: ``label index:value index:value ...`` with 1-based, strictly
increasing feature indices.  The dimension is inferred as the largest index
seen; an empty feature list is a valid zero row, and ``#`` starts a
comment that runs to the end of the line.  Malformed lines are
reported with their 1-based line number.  Values are written with Python's
shortest round-trip float repr, so a write/read cycle is bit-exact.
"""

from array import array

import numpy as np
import scipy.sparse as sp

from .exceptions import LibSVMFormatError

# Feature indices are held as int64; a larger one cannot be stored.
_MAX_INDEX = np.iinfo(np.int64).max


def load_libsvm(path, sparse=False):
    """Parse a LIBSVM file into (A, b).

    A : (n, d) float64 ndarray, or CSR when sparse=True.
    b : (n,) float64 labels, used as loaded (no remapping).

    The file is read one line at a time into typed buffers (int64 feature
    indices, float64 values and labels, int64 row pointers), so while
    parsing the loader holds the result's buffers plus one line of text.
    Its peak is about 21 bytes per stored value, of which the returned CSR
    keeps 12 (the value and its int32 column index).

    A dense A that cannot be allocated raises MemoryError; so does one
    whose byte size numpy refuses outright (past 2**63 bytes, as for a
    feature index of 2**62), before any allocation.  sparse=True holds
    such a file in CSR form.

    Raises LibSVMFormatError naming the first bad line in file order: a
    label that is not a number, a feature without ``:``, a feature whose
    index or value does not parse, an index below 1, indices that do not
    strictly increase along the line, or an index above 2**63 - 1 (it would
    not fit the int64 index buffer).  A file without data lines raises it
    without a line number.
    """
    labels = array("d")
    indptr, indices, data = array("q", [0]), array("q"), array("d")
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.partition("#")[0].split()
            if not parts:
                continue
            try:
                label = float(parts[0])
            except ValueError:
                raise LibSVMFormatError(
                    "label %r is not a number" % parts[0], lineno
                ) from None
            prev = 0
            for token in parts[1:]:
                idx_s, sep, val_s = token.partition(":")
                if not sep:
                    raise LibSVMFormatError(
                        "feature %r lacks an index:value separator" % token, lineno
                    )
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise LibSVMFormatError(
                        "cannot parse feature %r" % token, lineno
                    ) from None
                if not prev < idx <= _MAX_INDEX:
                    if idx < 1:
                        raise LibSVMFormatError(
                            "feature index %d is not 1-based" % idx, lineno
                        )
                    if idx <= prev:
                        raise LibSVMFormatError(
                            "feature indices must be strictly increasing "
                            "(%d after %d)" % (idx, prev),
                            lineno,
                        )
                    raise LibSVMFormatError(
                        "feature index %d exceeds the largest supported index %d"
                        % (idx, _MAX_INDEX),
                        lineno,
                    )
                prev = idx
                indices.append(idx)
                data.append(val)
            labels.append(label)
            indptr.append(len(indices))
            if prev > max_index:
                max_index = prev
    if not labels:
        raise LibSVMFormatError("file %r contains no data lines" % str(path))

    cols = np.frombuffer(indices, dtype=np.int64)
    cols -= 1  # the buffer holds the file's 1-based indices
    A = sp.csr_matrix(
        (np.frombuffer(data, dtype=np.float64), cols,
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(labels), max(max_index, 1)),
    )
    b = np.array(labels, dtype=np.float64)
    if sparse:
        return A, b
    try:
        return A.toarray(), b
    except ValueError:
        # numpy refuses a byte size past the address space before it
        # allocates anything; a size it tries and fails raises MemoryError.
        raise MemoryError(
            "a dense %d x %d float64 matrix exceeds the address space" % A.shape
        ) from None


def dump_libsvm(path, A, b):
    """Write (A, b) in LIBSVM format; zeros are omitted.

    Rows are written with sorted, merged feature indices, whatever the
    storage order of a sparse A; A itself is left unchanged.
    """
    A_sp = sp.csr_matrix(A, copy=True)
    A_sp.sum_duplicates()
    b = np.asarray(b, dtype=np.float64)
    if A_sp.shape[0] != b.shape[0]:
        raise ValueError("row/label count mismatch")
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(A_sp.shape[0]):
            start, end = A_sp.indptr[i], A_sp.indptr[i + 1]
            feats = " ".join(
                "%d:%s" % (j + 1, repr(float(v)))
                for j, v in zip(A_sp.indices[start:end], A_sp.data[start:end])
            )
            fh.write(repr(float(b[i])) + (" " + feats if feats else "") + "\n")
