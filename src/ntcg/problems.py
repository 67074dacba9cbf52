"""Analytic test objectives.

Three nonlinear-least-squares families over rows (a_i, b_i):

  sigmoid / tanh :   f_i(x) = (b_i - phi(<a_i, x>))^2
  welsch         :   f_i(x) = phi(b_i - <a_i, x>),  phi(z) = (1 - e^{-a z^2})/a

plus synthetic diagnostics with known spectra (quadratic bowl, planted
strict saddle).  Gradients and Hessian-vector products are hand-derived
closed forms, so the oracle-call accounting is exact; there is no autodiff
anywhere.

Each problem exposes smoothness/boundedness constants computed from its
data: gradient and Hessian-norm bounds U_g / U_H, which hold for every
component and so for every batch mean, and a Hessian-Lipschitz bound L_H.
For the NLS rows these are the standard per-row formulas maximized over
the data:

  sigmoid: L_H = max 2(|b|+4)||a||^3, U_g = max (|b|+1)||a||/2,
           U_H = max (|b|+2)||a||^2
  tanh:    L_H as sigmoid, U_g = max 2(|b|+1)||a||, U_H = max (|b|+2)||a||^2
  welsch:  L_H = 9 a^{3/2} max ||a_i||^3, U_g = sqrt(2/a) max ||a_i||,
           U_H = 2 max ||a_i||^2

The row norms behind these constants, and the row normalisation of
`synthetic_nls`, are reduced over row blocks of about 1 MiB of float64
(``_validation.row_blocks``), bit-identical to the unblocked formulas.  So
set-up allocates A plus about one block and O(n) vectors: by tracemalloc,
`synthetic_nls(20000, 200)` peaks at A plus 1.2 MB, and `constants_for`
allocates 1.2 MB on that instance and 1.8 MB on a 50000-row CSR holding
1M values.

An NLS evaluation at (x, idx) goes through one per-point state: the row
block, z = A_idx x, the batch labels, and the link terms with the value,
gradient weights and curvature weights built from them on first use, so a
state asked only for f (a line-search trial, an audit value) evaluates the
link but not its derivatives.  The
row block is A itself when idx is arange(n), so full-batch calls copy no
rows; any other index set, a permuted or repeated full-size one included,
takes the copy A[idx] once: a state whose index set a memoized state
already holds shares that state's rows, so the trials of a batch line
search read the gradient batch's block.  The problem memoizes the states of
its last two (x, idx) keys, compared by value, so f, the gradient and every
HVP at one point share z and the weights.  Every ``eval_*`` call still
validates its input and charges the ledger, memo hit or not.

A dense HVP over more than one of the ~1 MiB row blocks runs block by
block: the parts A_B^T (c_B * (A_B v)) are added in block order, so the
second product reads a block that is still in cache.  One 20000 x 200 HVP
falls from about 7.4 to 5.6 ms (OpenBLAS, one thread).  Its bits differ
from the single product A^T (c * (A v)) by about 1e-15 relative and no
longer depend on the BLAS thread count.  One-block batches and CSR data
keep the single product, and the gradient stays unblocked.

``audit_f_many`` values several points on the full set.  On CSR data it
takes one product A @ X per block of points (scipy's csr_matvecs, whose
columns equal csr_matvec's bit for bit), capped so that the block's
products take at most _AUDIT_BLOCK_BYTES; dense data keeps one product per
point, since a BLAS matrix product's columns differ in the last bits from
its matrix-vector products.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ._validation import check_interval, check_matrix, check_vector, row_blocks
from .oracle import ObjectiveOracle

SIGMOID = "sigmoid"
TANH = "tanh"
WELSCH = "welsch"

# Per-point states an NLSProblem keeps: capped CG interleaves products on
# the Hessian batch with evaluations on the gradient batch at one point.
MEMO_SIZE = 2

# The most memory, in bytes, that the products of one CSR audit block take:
# an n x points float64 array.
_AUDIT_BLOCK_BYTES = 8 << 20


@dataclass
class ProblemConstants:
    L_H: float
    U_H: float
    U_g: float
    f_low: float = 0.0


# -- link functions ------------------------------------------------------------
#
# Each link is (phi, phi' from phi, phi'' from phi and phi'), so that a
# state asked only for its value evaluates phi alone.


def _sigmoid_d1(p):
    return p * (1.0 - p)


def _sigmoid_d2(p, d1):
    return d1 * (1.0 - 2.0 * p)


def _tanh_d1(t):
    return 1.0 - t * t


def _tanh_d2(t, d1):
    return -2.0 * t * d1


LINKS = {SIGMOID: (expit, _sigmoid_d1, _sigmoid_d2),
         TANH: (np.tanh, _tanh_d1, _tanh_d2)}


def _row_norms(A):
    """Euclidean norms of A's rows, computed on :func:`row_blocks`.

    Each row reads the same values in the same order as the unblocked
    formulas, so the norms are bit-identical to np.linalg.norm(A, axis=1)
    for a dense A and to np.sqrt(A.multiply(A).sum(axis=1)) for CSR; the
    temporaries take about one block instead of a copy of A.
    """
    if not sp.issparse(A):
        norms = np.empty(A.shape[0])
        for rows in row_blocks(A):
            norms[rows] = np.linalg.norm(A[rows], axis=1)
        return norms
    if not A.has_canonical_format:
        # For operands that are not canonical, scipy's product merges
        # repeated columns and emits each row in reverse order of first
        # appearance.  It decides by the operands it is given, and a block
        # of such an A can be canonical, so such an A is reduced whole.
        return np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())
    sums = np.zeros(A.shape[0])
    for rows in row_blocks(A):
        ptr = A.indptr[rows.start:rows.stop + 1]
        filled, block_sums = _square_sums(A.data[ptr[0]:ptr[-1]], ptr - ptr[0])
        sums[rows.start + filled] = block_sums
    return np.sqrt(sums)


def _square_sums(values, ptr):
    """(rows, sums): the rows of a CSR block that A.multiply(A) leaves
    nonempty and the sums of their squares, as that product and its sum
    over axis 1 form them.  A function of its own, so that one block's
    squares are freed before the next block's are made."""
    squares = values * values
    if not squares.all():  # the product stores no zeros
        kept = squares != 0
        squares = squares[kept]
        ptr = np.concatenate(([0], np.cumsum(kept)))[ptr]
    filled = np.flatnonzero(np.diff(ptr))
    return filled, np.add.reduceat(squares, ptr[filled])


def _hvp_blocks(A):
    """The :func:`row_blocks` of a dense A that spans more than one, which
    an HVP over A runs on; None for CSR or one block, whose HVP stays one
    expression (the loop would cost a few microseconds per product)."""
    if sp.issparse(A):
        return None
    blocks = row_blocks(A)
    return blocks if len(blocks) > 1 else None


class _PointState:
    """What f, the gradient and the HVP of an NLS batch share at one point.

    The row block is A itself for the index set arange(n) and the copy
    A[idx] otherwise (a permuted or repeated full-size set keeps its own
    row order, hence its summation order); `rows`, a state whose key has
    the index set idx, lends its block instead of a new copy.  z = A_idx x
    is computed once, or given: column j of a block product A @ X, which
    equals A @ X[:, j] bit for bit on CSR data.  The link terms and the
    weights are built on first use, each from the ones before it: the
    value (mean loss) needs phi(z) alone, w_i with grad f_i = w_i a_i adds
    phi', and c_i with hess f_i = c_i a_i a_i^T adds phi''.  `hvp_blocks`,
    the row blocks a dense HVP of several blocks runs over
    (:func:`_hvp_blocks`), come with the rows: the problem's for the full
    set, the lender's for borrowed rows.  The key (x, idx) is kept as
    private copies, so a caller who later mutates x in place gets a miss,
    not a stale hit.
    """

    def __init__(self, problem, x, idx, rows=None, z=None):
        self.x = x.copy()
        if rows is not None:
            self.idx, self.A, self._b = rows.idx, rows.A, rows._b
            self.hvp_blocks = rows.hvp_blocks
        else:
            full_idx = problem.full_index_set()
            full = idx is full_idx or (idx.shape == full_idx.shape
                                       and (idx == full_idx).all())
            # The shared full index set is read-only, so it serves as its
            # own key.
            self.idx = full_idx if full else idx.copy()
            self.A = problem.A if full else problem.A[idx]
            self._b = problem.b if full else problem.b[idx]
            self.hvp_blocks = (problem.hvp_blocks if full
                               else _hvp_blocks(self.A))
        self._z = np.asarray(self.A @ x).ravel() if z is None else z
        self._link = problem.link
        self._alpha = problem.alpha

    def has_index_set(self, idx):
        """Whether idx equals the key's index set by value."""
        return (self.idx.shape == idx.shape
                and (self.idx is idx or (self.idx == idx).all()))

    @cached_property
    def _head(self):
        """What the value needs and the derivatives build on: for welsch
        (r, e^{-alpha r^2}) with r = b - z, for sigmoid/tanh (phi(z), the
        residual b - phi(z))."""
        if self._link == WELSCH:
            r = self._b - self._z
            return r, np.exp(-self._alpha * r * r)
        phi = LINKS[self._link][0](self._z)
        return phi, self._b - phi

    @cached_property
    def _d1(self):
        """The welsch loss's derivative in r, or phi'(z)."""
        if self._link == WELSCH:
            r, e = self._head
            return 2.0 * r * e
        return LINKS[self._link][1](self._head[0])

    @cached_property
    def _d2(self):
        """The welsch loss's second derivative in r, or phi''(z)."""
        if self._link == WELSCH:
            r, e = self._head
            return (2.0 - 4.0 * self._alpha * r * r) * e
        return LINKS[self._link][2](self._head[0], self._d1)

    @cached_property
    def value(self):
        if self._link == WELSCH:
            return float(np.mean((1.0 - self._head[1]) / self._alpha))
        resid = self._head[1]
        return float(np.mean(resid * resid))

    @cached_property
    def grad_weights(self):
        return -self._d1 if self._link == WELSCH else -2.0 * self._head[1] * self._d1

    @cached_property
    def curv_weights(self):
        d1, d2 = self._d1, self._d2
        return d2 if self._link == WELSCH else 2.0 * (d1 * d1 - self._head[1] * d2)


class NLSProblem(ObjectiveOracle):
    """Finite-sum nonlinear least squares over rows (a_i, b_i).

    A may be a dense ndarray or a CSR matrix; evaluation over an index
    batch is vectorized either way.  Labels are used exactly as loaded
    (no remapping of {-1, 1} to {0, 1}); they enter the constants through
    |b_i| only.

    f, gradient, HVP and `dense_hessian` read one :class:`_PointState` per
    (x, idx), memoized for the last MEMO_SIZE keys, so A and b must not
    change once the problem has been evaluated.
    """

    def __init__(self, A, b, link=SIGMOID, alpha=1.0):
        A = check_matrix(A, "A")
        b = check_vector(b, "b")
        if A.shape[0] != b.shape[0]:
            raise ValueError("row/label count mismatch")
        if link not in (SIGMOID, TANH, WELSCH):
            raise ValueError("unknown link %r" % (link,))
        if link == WELSCH:
            check_interval(alpha, "welsch alpha", 0.0, math.inf)
        super().__init__(A.shape[0], A.shape[1])
        self.A = A
        self.b = b
        self.link = link
        self.alpha = float(alpha)
        self.hvp_blocks = _hvp_blocks(A)  # those of the full set
        self._memo = []  # most recent first

    # -- per-point state ------------------------------------------------------

    def _state(self, x, idx):
        """The :class:`_PointState` of (x, idx), from the memo when one of
        the last MEMO_SIZE keys matches by value; a new state borrows the
        rows of a memoized one on the same index set."""
        memo = self._memo
        rows = None
        for i, state in enumerate(memo):
            if state.has_index_set(idx):
                # x is validated, so it has the key's shape.
                if (state.x == x).all():
                    if i:
                        memo.insert(0, memo.pop(i))
                    return state
                rows = state
        state = _PointState(self, x, idx, rows=rows)
        self._memo = [state] + memo[:MEMO_SIZE - 1]
        return state

    def audit_f_many(self, points):
        """[audit_f(x) for x in points], bit for bit and with the same audit
        ledger count; on CSR data one product A @ X per block of points
        whose products fit _AUDIT_BLOCK_BYTES.  The memo is left as it was."""
        if not sp.issparse(self.A):
            return super().audit_f_many(points)
        xs = [check_vector(x, "x", self.dim) for x in points]
        full = self.full_index_set()
        per_block = max(1, _AUDIT_BLOCK_BYTES // (8 * self.n))
        values = []
        for start in range(0, len(xs), per_block):
            block = xs[start:start + per_block]
            Z = self.A @ np.column_stack(block)
            for j, x in enumerate(block):
                self.audit_ledger.f_calls += self.n
                values.append(_PointState(self, x, full, z=Z[:, j]).value)
        return values

    # -- oracle primitives (means over idx) ----------------------------------

    def _value(self, x, idx):
        return self._state(x, idx).value

    def _grad(self, x, idx):
        state = self._state(x, idx)
        return np.asarray(state.A.T @ state.grad_weights).ravel() / idx.size

    def _hvp(self, x, v, idx):
        """A_idx^T (c * (A_idx v)) / |idx|; over the state's `hvp_blocks`,
        when it has them, the sum of A_B^T (c_B * (A_B v)) in block order,
        each block read twice while it is still in cache."""
        # Both products of a dense or CSR row block with a 1-D vector are
        # 1-D ndarrays already.
        state = self._state(x, idx)
        A, c = state.A, state.curv_weights
        if state.hvp_blocks is None:
            return A.T @ (c * (A @ v)) / idx.size
        parts = (A[rows].T @ (c[rows] * (A[rows] @ v)) for rows in state.hvp_blocks)
        total = next(parts)
        for part in parts:
            total += part
        return total / idx.size

    def _dense_hessian(self, x, idx):
        state = self._state(x, idx)
        Ai, c = state.A, state.curv_weights
        if sp.issparse(Ai):
            H = np.asarray((Ai.multiply(c[:, None])).T @ Ai.todense())
        else:
            H = (c[:, None] * Ai).T @ Ai
        return np.asarray(H) / idx.size

    def constants(self):
        """Smoothness and boundedness constants from the table formulas in
        the module docstring."""
        norms = _row_norms(self.A)
        absb = np.abs(self.b)
        if self.link in (SIGMOID, TANH):
            L_H = float(np.max(2.0 * (absb + 4.0) * norms**3))
            U_H = float(np.max((absb + 2.0) * norms**2))
            if self.link == SIGMOID:
                U_g = float(np.max((absb + 1.0) * norms / 2.0))
            else:
                U_g = float(np.max(2.0 * (absb + 1.0) * norms))
        else:
            a = self.alpha
            max_norm = float(np.max(norms))
            L_H = 9.0 * a**1.5 * max_norm**3
            U_g = math.sqrt(2.0 / a) * max_norm
            U_H = 2.0 * max_norm**2
        # Squared residuals and the welsch loss are both nonnegative.
        return ProblemConstants(L_H=L_H, U_H=U_H, U_g=U_g, f_low=0.0)


def constants_for(problem):
    """Smoothness and boundedness constants of `problem`; the same as
    ``problem.constants()``."""
    return problem.constants()


# -- synthetic diagnostics ---------------------------------------------------


class QuadraticProblem(ObjectiveOracle):
    """f(x) = 0.5 x^T D x for a fixed diagonal D, as a single component."""

    def __init__(self, diag):
        diag = check_vector(np.asarray(diag, dtype=float), "diag")
        super().__init__(1, diag.shape[0])
        self.diag = diag

    def _value(self, x, idx):
        return 0.5 * float(x @ (self.diag * x))

    def _grad(self, x, idx):
        return self.diag * x

    def _hvp(self, x, v, idx):
        return self.diag * v

    def _dense_hessian(self, x, idx):
        return np.diag(self.diag)

    def constants(self):
        """Constants whose gradient bounds hold on the ball ||x|| <= 10."""
        top = float(np.max(np.abs(self.diag)))
        f_low = 0.0 if np.all(self.diag >= 0) else -math.inf
        return ProblemConstants(L_H=0.0, U_H=top, U_g=top * 10.0, f_low=f_low)


class SaddleProblem(ObjectiveOracle):
    """Strict saddle with a quartic bowl keeping it bounded below.

    f(x) = 0.5 x^T D x + (gamma/4) ||x||^4 with D = diag(-mu, 1, ..., 1).
    The origin is a stationary point with lambda_min(hess f) = -mu; the
    global minimum value is -mu^2 / (4 gamma).
    """

    def __init__(self, dim, mu=1.0, gamma=1.0):
        if dim < 2:
            raise ValueError("need dim >= 2")
        if mu <= 0 or gamma <= 0:
            raise ValueError("mu and gamma must be positive")
        super().__init__(1, dim)
        self.mu = float(mu)
        self.gamma = float(gamma)
        self.diag = np.ones(dim)
        self.diag[0] = -mu

    def _value(self, x, idx):
        return 0.5 * float(x @ (self.diag * x)) + 0.25 * self.gamma * float(
            (x @ x) ** 2
        )

    def _grad(self, x, idx):
        return self.diag * x + self.gamma * (x @ x) * x

    def _hvp(self, x, v, idx):
        return self.diag * v + self.gamma * ((x @ x) * v + 2.0 * (x @ v) * x)

    def _dense_hessian(self, x, idx):
        return (
            np.diag(self.diag)
            + self.gamma * ((x @ x) * np.eye(self.dim) + 2.0 * np.outer(x, x))
        )

    def constants(self):
        """Constants valid on the ball ||x|| <= default_radius(), which
        covers the sublevel set of f(x0) for start points with ||x0|| <= 1,
        inflated so that line-search trial points x + alpha*d stay inside.
        """
        mu, gamma, R = self.mu, self.gamma, self.default_radius()
        return ProblemConstants(
            L_H=6.0 * gamma * R,
            U_H=max(self.mu, 1.0) + 3.0 * gamma * R**2,
            U_g=max(self.mu, 1.0) * R + gamma * R**3,
            f_low=-(mu**2) / (4.0 * gamma),
        )

    def default_radius(self):
        # f >= -mu/2 r^2 + gamma/4 r^4, so f <= f0 confines ||x|| to a
        # computable ball; inflate generously for trial points.
        f0 = 0.5 + 0.25 * self.gamma  # value bound for ||x0|| <= 1
        # solve gamma/4 r^4 - mu/2 r^2 - f0 = 0 for r^2
        disc = math.sqrt((self.mu / 2.0) ** 2 + self.gamma * f0)
        r2 = (self.mu / 2.0 + disc) / (self.gamma / 2.0)
        return 2.0 * math.sqrt(r2)


def synthetic_nls(n, dim, link=SIGMOID, seed=0):
    """Random NLS instance with controlled row norms and binary labels.

    Rows are uniform on the unit sphere scaled by a uniform factor in
    [0.5, 1]; labels follow a planted linear rule through the link, so the
    instance is learnable but not separable.  A welsch instance has
    alpha = 1.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, dim))
    A /= _row_norms(A)[:, None]
    A *= rng.uniform(0.5, 1.0, size=(n, 1))
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
    return NLSProblem(A, b, link=link)
