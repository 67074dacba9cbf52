"""Input validation helpers used by the library surface and the estimators."""

import numbers

import numpy as np
import scipy.sparse as sp


def check_vector(x, name="x", dim=None):
    """Coerce to a finite 1-D float64 array, optionally of fixed length."""
    if type(x) is not np.ndarray or x.dtype != np.float64:
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("%s must be a 1-D vector, got shape %s" % (name, (x.shape,)))
    if dim is not None and x.shape[0] != dim:
        raise ValueError("%s must have length %d, got %d" % (name, dim, x.shape[0]))
    if not np.isfinite(x).all():
        raise ValueError("%s contains non-finite entries" % name)
    return x


# Reductions over the rows of a data matrix (the finiteness test here, the
# row norms in problems.py) run on blocks of about this many float64 values,
# 1 MiB, so that their temporaries take one block, not the matrix's size.
_BLOCK_VALUES = 1 << 17


def row_blocks(A):
    """Slices of A's rows that each hold about _BLOCK_VALUES values: by
    width for a dense A, by stored values for CSR (a block holds more when
    one of its rows alone does).

    A dense block never holds a single row unless A does: numpy reduces a
    lone row of a column-major array pairwise but each row of a taller
    block one column at a time, so a one-row block would change the last
    bits of that row's sums.
    """
    n = A.shape[0]
    if sp.issparse(A):
        # Cut at the first row end at or past each multiple of the block.
        marks = np.arange(_BLOCK_VALUES, A.indptr[-1], _BLOCK_VALUES)
        cuts = np.unique(np.searchsorted(A.indptr, marks))
        cuts = cuts[cuts < n].tolist()
    else:
        step = max(2, _BLOCK_VALUES // max(A.shape[1], 1))
        cuts = range(step, n - 1, step)
    bounds = [0, *cuts, n]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def check_matrix(A, name="A"):
    """Coerce to 2-D float64, dense ndarray or CSR. Rejects non-finite data.

    A float64 ndarray or CSR is returned as is, not copied.  The finiteness
    test reads row blocks of a dense A (:func:`row_blocks`) and runs of
    about 1 MiB of a CSR's stored values, so it allocates about 128 KiB of
    flags at a time instead of one flag per value.
    """
    if sp.issparse(A):
        A = A.tocsr().astype(np.float64, copy=False)
        values = A.data
        blocks = [slice(start, start + _BLOCK_VALUES)
                  for start in range(0, values.size, _BLOCK_VALUES)]
    else:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("%s must be 2-D, got shape %s" % (name, (A.shape,)))
        values, blocks = A, row_blocks(A)
    if not all(np.isfinite(values[block]).all() for block in blocks):
        raise ValueError("%s contains non-finite entries" % name)
    return A


def check_X_y(X, y):
    """Validate a feature matrix / label vector pair of matching length."""
    X = check_matrix(X, "X")
    y = check_vector(y, "y")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            "X and y disagree on sample count: %d vs %d" % (X.shape[0], y.shape[0])
        )
    if X.shape[0] == 0:
        raise ValueError("X must contain at least one row")
    return X, y


def check_index_set(indices, n, name="index_set"):
    """Validate a nonempty integer index set into range(n)."""
    idx = indices if type(indices) is np.ndarray else np.asarray(indices)
    if idx.ndim != 1:
        idx = idx.ravel()
    if idx.size == 0:
        raise ValueError("%s is empty; the mean over it is undefined" % name)
    if idx.dtype != np.int64 and not np.issubdtype(idx.dtype, np.integer):
        if np.issubdtype(idx.dtype, np.floating) and np.all(idx == idx.astype(np.int64)):
            idx = idx.astype(np.int64)
        else:
            raise ValueError("%s must contain integers" % name)
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError(
            "%s out of range: values must lie in [0, %d)" % (name, n)
        )
    return idx.astype(np.int64, copy=False)


def check_interval(value, name, low, high):
    """Validate a scalar against the open interval (low, high)."""
    if not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError("%s must be a finite real number, got %r" % (name, value))
    value = float(value)
    if not low < value < high:
        raise ValueError("%s must lie in (%g, %g), got %g" % (name, low, high, value))
    return value


def as_generator(seed):
    """Accept an int seed or an existing numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
