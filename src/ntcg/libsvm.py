"""LIBSVM text format: line-oriented loader and writer.

Line grammar: ``label index:value index:value ...`` with 1-based, strictly
increasing feature indices.  The dimension is inferred as the largest index
seen; an empty feature list is a valid zero row.  Malformed lines are
reported with their 1-based line number.  Values are written with Python's
shortest round-trip float repr, so a write/read cycle is bit-exact.
"""

import numpy as np
import scipy.sparse as sp

from .exceptions import LibSVMFormatError


def load_libsvm(path, sparse=False, comment_char="#"):
    """Parse a LIBSVM file into (A, b).

    A : (n, d) float64 ndarray, or CSR when sparse=True.
    b : (n,) float64 labels, used as loaded (no remapping).
    """
    labels = []
    indptr, indices, data = [0], [], []  # CSR arrays, 0-based indices
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split(comment_char, 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise LibSVMFormatError(
                    "label %r is not a number" % parts[0], lineno
                ) from None
            prev = 0
            for token in parts[1:]:
                if ":" not in token:
                    raise LibSVMFormatError(
                        "feature %r lacks an index:value separator" % token, lineno
                    )
                idx_s, val_s = token.split(":", 1)
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise LibSVMFormatError(
                        "cannot parse feature %r" % token, lineno
                    ) from None
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
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            labels.append(label)
            indptr.append(len(indices))
            if prev > max_index:
                max_index = prev
    if not labels:
        raise LibSVMFormatError("file %r contains no data lines" % str(path))

    A = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), max(max_index, 1)),
    )
    return (A if sparse else A.toarray()), np.asarray(labels, dtype=np.float64)


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
