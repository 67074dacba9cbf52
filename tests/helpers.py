"""Shared independent oracles for the test suite.

Everything here is deliberately dumb: central finite differences, dense
factorizations, and eigendecompositions.  Tests compare the library's
fast paths against these, never against themselves.
"""

import tracemalloc

import numpy as np

from ntcg import preset
from ntcg.libsvm import _parse_lines, _Rows


class MatrixOperator:
    """The product function v -> A v of a dense square A, of dimension
    `dim`, counting its calls in `n_applies`."""

    def __init__(self, A):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("need a square matrix")
        self.matrix = A
        self.dim = A.shape[0]
        self.n_applies = 0

    def __call__(self, v):
        self.n_applies += 1
        return self.matrix @ v


def preset_policy(name, n):
    """The sampling policy of preset `name`, for runs that set their own
    variant and config."""
    return preset(name, n)[0]


def central_diff_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_diff_hvp(grad, x, v, h=1e-5):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (grad(x + h * v) - grad(x - h * v)) / (2.0 * h)


def random_symmetric(rng, dim, eig_low, eig_high):
    """Symmetric matrix with eigenvalues uniform in [eig_low, eig_high]."""
    vals = rng.uniform(eig_low, eig_high, size=dim)
    return symmetric_with_spectrum(rng, vals)


def symmetric_with_spectrum(rng, eigenvalues):
    vals = np.asarray(eigenvalues, dtype=float)
    dim = vals.size
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (Q * vals) @ Q.T


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


def traced_peak(fn):
    """(fn(), peak): peak is the most memory, in bytes, that tracemalloc saw
    allocated at once while fn ran, beyond what was traced when it started.

    A trace that is already running stays on, with its peak reset;
    otherwise tracing starts for the call and stops after it.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def load_libsvm_per_line(path, sparse=False):
    """load_libsvm with every line through the per-line reference parser,
    in one pass over the file and no chunks."""
    rows = _Rows()
    with open(path, "r", encoding="utf-8") as fh:
        rows.append(*_parse_lines(fh, 1), share=1.0)
    return rows.matrices(path, sparse)
