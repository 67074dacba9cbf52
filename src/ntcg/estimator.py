"""Estimator-style wrappers so the solver composes with pipeline tooling.

Both estimators minimize a finite-sum NLS objective with the
negative-curvature-aware Newton-CG driver.  They follow the usual
fit/predict surface with ``get_params``/``set_params`` implemented
directly (no hard dependency on scikit-learn, but ``sklearn.base.clone``
works against them).
"""

import inspect
import warnings

import numpy as np
from scipy.special import expit

from . import solver
from ._validation import check_matrix, check_X_y
from .problems import SIGMOID, TANH, WELSCH, NLSProblem


class _ParamsMixin:
    """Constructor-argument introspection, sklearn style: every __init__
    parameter is stored verbatim under its own name."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    "invalid parameter %r for %s" % (key, type(self).__name__)
                )
            setattr(self, key, value)
        return self


class _BaseNewtonCG(_ParamsMixin):
    _link = None

    def _fit_problem(self, X, y, link, alpha=1.0):
        X, y = check_X_y(X, y)
        problem = NLSProblem(X, y, link=link, alpha=alpha)
        policy, variant, config = solver.preset(
            "inexact-full-eval" if self.subsample else "full", problem.n,
            eps_g=self.eps, max_outer_iters=self.max_iter,
            skip_small_step_block=self.skip_small_step_block, seed=self.seed,
        )
        report = solver.run(problem, config, policy=policy, variant=variant,
                            x0=np.zeros(problem.dim))
        if report.termination == solver.TERM_CONTRACT_VIOLATION:
            warnings.warn(
                "solver run ended in %s after %d iterations; coef_ is its "
                "last iterate" % (report.termination, report.iterations),
                RuntimeWarning,
                stacklevel=3,
            )
        self.coef_ = report.x_final
        self.report_ = report
        self.n_iter_ = report.iterations
        self.n_features_in_ = X.shape[1]
        return self

    def _check_fitted(self):
        if not hasattr(self, "coef_"):
            raise RuntimeError("call fit before predict")

    def decision_function(self, X):
        self._check_fitted()
        X = check_matrix(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError("X has %d features, but the estimator was fitted "
                             "with %d" % (X.shape[1], self.n_features_in_))
        return np.asarray(X @ self.coef_).ravel()


class SquaredLossClassifier(_BaseNewtonCG):
    """Binary classification by squared loss on a bounded link.

    link="sigmoid" expects labels in {0, 1}; link="tanh" expects {-1, 1}.
    The squared loss makes the objective nonconvex, which is exactly what
    the underlying solver is for.

    Parameters mirror the solver defaults: eps is the first-order
    tolerance, subsample switches to batched gradient/Hessian estimates.
    After fit: coef_, n_iter_, report_ (the full run trace).
    """

    def __init__(self, link=SIGMOID, eps=1e-3, max_iter=500, subsample=False,
                 skip_small_step_block=True, seed=0):
        self.link = link
        self.eps = eps
        self.max_iter = max_iter
        self.subsample = subsample
        self.skip_small_step_block = skip_small_step_block
        self.seed = seed

    def fit(self, X, y):
        if self.link not in (SIGMOID, TANH):
            raise ValueError("link must be 'sigmoid' or 'tanh'")
        return self._fit_problem(X, y, self.link)

    def predict_proba(self, X):
        z = self.decision_function(X)
        p = expit(z) if self.link == SIGMOID else 0.5 * (np.tanh(z) + 1.0)
        return np.column_stack([1.0 - p, p])

    def predict(self, X):
        p = self.predict_proba(X)[:, 1]
        if self.link == SIGMOID:
            return (p >= 0.5).astype(float)
        return np.where(p >= 0.5, 1.0, -1.0)


class WelschRegressor(_BaseNewtonCG):
    """Robust linear regression under the bounded exponential loss
    (1 - exp(-alpha z^2)) / alpha of the residual.

    Large residuals saturate, so outliers stop influencing the fit; the
    price is nonconvexity, handled by the second-order solver.
    """

    def __init__(self, alpha=1.0, eps=1e-3, max_iter=500, subsample=False,
                 skip_small_step_block=True, seed=0):
        self.alpha = alpha
        self.eps = eps
        self.max_iter = max_iter
        self.subsample = subsample
        self.skip_small_step_block = skip_small_step_block
        self.seed = seed

    def fit(self, X, y):
        return self._fit_problem(X, y, WELSCH, alpha=self.alpha)

    def predict(self, X):
        return self.decision_function(X)
