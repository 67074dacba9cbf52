"""Objective oracles, implicit Hessian operators, and oracle-call accounting.

The cost model is the propagation count used throughout the benchmark
drivers: one unit per component function value, two per component gradient,
four per component Hessian-vector product.  All counting happens here, so
drivers cannot miscount; see :class:`OracleLedger`.

``full_index_set()`` returns one array per oracle, arange(n), shared by
every caller and read-only (writing to it raises), so code can recognise
the full set by identity and keep it without a defensive copy.  The
counted calls skip the range check on it, which cannot fail.

Concurrency: one problem is evaluated by one thread at a time, the same
contract as its ledgers, which assume a single writer.  Oracles may keep
per-point state between calls (:class:`ntcg.problems.NLSProblem` memoizes
its last evaluation points), so concurrent evaluation of one instance is
unsupported; give each thread its own problem.  The drivers in
:mod:`ntcg.solver` run on one logical thread, which satisfies that
contract.
"""

import numpy as np

from ._validation import check_index_set, check_vector


class OracleLedger:
    """Counters for component-level oracle calls.

    `props` is derived, never stored: props = f_calls + 2*grad_calls +
    4*hv_calls.  Counters are plain Python ints (arbitrary precision, so
    64-bit-safe by construction).
    """

    __slots__ = ("f_calls", "grad_calls", "hv_calls")

    def __init__(self):
        self.f_calls = 0
        self.grad_calls = 0
        self.hv_calls = 0

    @property
    def props(self):
        return self.f_calls + 2 * self.grad_calls + 4 * self.hv_calls

    def snapshot(self):
        return {
            "f_calls": self.f_calls,
            "grad_calls": self.grad_calls,
            "hv_calls": self.hv_calls,
            "props": self.props,
        }

    def since(self, start):
        """Snapshot of the calls counted since `start`, an earlier snapshot;
        props is derived from the differences like any other snapshot's."""
        delta = OracleLedger()
        for name in self.__slots__:
            setattr(delta, name, getattr(self, name) - start[name])
        return delta.snapshot()

    def reset(self):
        self.f_calls = 0
        self.grad_calls = 0
        self.hv_calls = 0

    def __repr__(self):
        return "OracleLedger(f=%d, grad=%d, hv=%d, props=%d)" % (
            self.f_calls,
            self.grad_calls,
            self.hv_calls,
            self.props,
        )


class ObjectiveOracle:
    """Finite-sum objective with per-component value/gradient/Hessian-vector.

    The objective is the mean F = (1/n) * sum_i f_i, and every estimate is
    a mean over its batch, so batch estimates are unbiased for F and the
    problem constants (U_g, U_H, L_H) bound F and its estimates alike.

    Subclasses implement the uncounted batch primitives `_value`, `_grad`
    and `_hvp`, each taking an explicit index array and returning the MEAN
    over those components.  The public ``eval_*`` methods validate and
    count into the ledger.

    Parameters
    ----------
    n, dim : component count and parameter dimension.
    """

    def __init__(self, n, dim):
        if n < 1 or dim < 1:
            raise ValueError("need n >= 1 and dim >= 1")
        self.n = int(n)
        self.dim = int(dim)
        self._full_index = np.arange(self.n, dtype=np.int64)
        self._full_index.flags.writeable = False
        self.ledger = OracleLedger()
        # Audit-mode evaluations (exact quantities used for reporting and
        # contract checks) are ledger-exempt and tallied separately.
        self.audit_ledger = OracleLedger()

    # -- batch primitives, uncounted, mean over `idx` ---------------------

    def _value(self, x, idx):
        raise NotImplementedError

    def _grad(self, x, idx):
        raise NotImplementedError

    def _hvp(self, x, v, idx):
        raise NotImplementedError

    def constants(self):
        """ProblemConstants (L_H, U_H, U_g, f_low) of the
        objective; the solver reads its defaults from here."""
        raise ValueError("problem constants are required")

    # -- counted evaluation surface ---------------------------------------

    def full_index_set(self):
        """arange(n), the same read-only array on every call."""
        return self._full_index

    def _index_set(self, index_set):
        if index_set is self._full_index:
            return index_set
        return check_index_set(index_set, self.n)

    def eval_f(self, x, index_set, ledger=None):
        """Mean of f_i(x) over index_set."""
        x = check_vector(x, "x", self.dim)
        idx = self._index_set(index_set)
        ledger = ledger if ledger is not None else self.ledger
        ledger.f_calls += idx.size
        return float(self._value(x, idx))

    def eval_grad(self, x, index_set, ledger=None):
        x = check_vector(x, "x", self.dim)
        idx = self._index_set(index_set)
        ledger = ledger if ledger is not None else self.ledger
        ledger.grad_calls += idx.size
        return self._grad(x, idx)

    def eval_hvp(self, x, v, index_set):
        x = check_vector(x, "x", self.dim)
        v = check_vector(v, "v", self.dim)
        idx = self._index_set(index_set)
        self.ledger.hv_calls += idx.size
        return self._hvp(x, v, idx)

    # -- audit accessors: exact full-set quantities, ledger-exempt --------

    def audit_f(self, x):
        return self.eval_f(x, self.full_index_set(), ledger=self.audit_ledger)

    def audit_grad(self, x):
        return self.eval_grad(x, self.full_index_set(), ledger=self.audit_ledger)

    def dense_hessian(self, x, index_set=None):
        """Dense mean Hessian over index_set (default: all components),
        uncounted; for audits on small problems.  Validates x and index_set
        as the counted calls do."""
        x = check_vector(x, "x", self.dim)
        idx = self._full_index if index_set is None else self._index_set(index_set)
        return self._dense_hessian(x, idx)

    def _dense_hessian(self, x, idx):
        # Column by column from `_hvp`; problem classes override with
        # closed forms where cheap.
        H = np.empty((self.dim, self.dim))
        eye = np.eye(self.dim)
        for j in range(self.dim):
            H[:, j] = self._hvp(x, eye[j], idx)
        return H


class CallableOracle(ObjectiveOracle):
    """Oracle built from per-component callables.

    `value_fn(x, i)`, `grad_fn(x, i)`, `hvp_fn(x, v, i)` evaluate a single
    component; batches loop.  Convenient for synthetic diagnostics where n
    is small; the NLS problems use vectorized subclasses instead.
    """

    def __init__(self, n, dim, value_fn, grad_fn, hvp_fn):
        super().__init__(n, dim)
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hvp_fn = hvp_fn

    def _value(self, x, idx):
        return sum(self._value_fn(x, int(i)) for i in idx) / idx.size

    def _grad(self, x, idx):
        g = np.zeros(self.dim)
        for i in idx:
            g += self._grad_fn(x, int(i))
        return g / idx.size

    def _hvp(self, x, v, idx):
        out = np.zeros(self.dim)
        for i in idx:
            out += self._hvp_fn(x, v, int(i))
        return out / idx.size


class HessianOperator:
    """Implicit symmetric linear map v -> Hv.

    Symmetry and determinism (for fixed state) are contracts on the wrapped
    callable, not enforced per call; the test suite checks them on every
    problem Hessian.  `n_applies` counts operator applications, which is
    what the iteration caps of the iterative kernels are stated in.
    """

    __slots__ = ("dim", "_apply", "n_applies")

    def __init__(self, dim, apply_fn):
        self.dim = int(dim)
        self._apply = apply_fn
        self.n_applies = 0

    def apply(self, v):
        v = np.asarray(v, dtype=np.float64)
        self.n_applies += 1
        out = np.asarray(self._apply(v), dtype=np.float64)
        if out.shape != (self.dim,):
            raise ValueError(
                "operator returned shape %s, expected (%d,)" % ((out.shape,), self.dim)
            )
        return out

    @classmethod
    def from_matrix(cls, A):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("need a square matrix")
        return cls(A.shape[0], lambda v: A @ v)

    @classmethod
    def from_oracle(cls, oracle, x, index_set):
        """Subsampled (or exact) Hessian of `oracle` at the point x, counted
        into the oracle's ledger.  x and the index set are copied, so later
        changes to the caller's arrays do not reach the operator; the
        oracle's read-only full index set is kept as it is.  The copy keeps
        its dtype, so every product validates the indices as given."""
        x = np.array(x, dtype=np.float64, copy=True)
        full = oracle.full_index_set()
        idx = full if index_set is full else np.array(index_set)
        return cls(oracle.dim, lambda v: oracle.eval_hvp(x, v, idx))
