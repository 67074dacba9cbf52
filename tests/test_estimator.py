import numpy as np
import pytest

from ntcg import SquaredLossClassifier, WelschRegressor, synthetic_nls


def classification_data(seed=0, n=150, d=5, labels=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    w = rng.standard_normal(d)
    y = np.where(X @ w > 0, labels[1], labels[0])
    return X, y


class TestSquaredLossClassifier:
    def test_fit_improves_training_loss(self):
        X, y = classification_data()
        clf = SquaredLossClassifier(eps=1e-2, max_iter=100)
        clf.fit(X, y)
        records = clf.report_.records
        assert records[-1].f_value < records[0].f_value
        assert clf.coef_.shape == (5,)
        assert clf.n_iter_ == len(records)

    def test_predict_labels_and_accuracy(self):
        X, y = classification_data(seed=1)
        clf = SquaredLossClassifier(eps=1e-2, max_iter=150).fit(X, y)
        pred = clf.predict(X)
        assert set(np.unique(pred)) <= {0.0, 1.0}
        assert np.mean(pred == y) > 0.8

    def test_tanh_link_predicts_signed_labels(self):
        X, y = classification_data(seed=2, labels=(-1.0, 1.0))
        clf = SquaredLossClassifier(link="tanh", eps=1e-2, max_iter=150).fit(X, y)
        assert set(np.unique(clf.predict(X))) <= {-1.0, 1.0}

    def test_predict_proba_shape_and_range(self):
        X, y = classification_data(seed=3)
        clf = SquaredLossClassifier(eps=1e-2, max_iter=60).fit(X, y)
        proba = clf.predict_proba(X)
        assert proba.shape == (len(y), 2)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            SquaredLossClassifier().predict(np.zeros((2, 3)))

    def test_bad_link_rejected(self):
        X, y = classification_data(seed=4)
        with pytest.raises(ValueError):
            SquaredLossClassifier(link="welsch").fit(X, y)

    def test_input_validation(self):
        clf = SquaredLossClassifier()
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3, 2)), np.zeros(5))
        with pytest.raises(ValueError):
            clf.fit(np.full((3, 2), np.nan), np.zeros(3))

    def test_subsampled_mode_runs(self):
        X, y = classification_data(seed=5, n=400)
        clf = SquaredLossClassifier(eps=5e-2, max_iter=40, subsample=True, seed=3)
        clf.fit(X, y)
        assert hasattr(clf, "report_")

    def test_subsampled_mode_uses_preset_batches(self):
        # Same batches as the inexact-full-eval CLI preset: ceil(0.05 n)
        # gradient and ceil(0.01 n) Hessian rows, i.e. 53 and 11 at n=1050.
        X, y = classification_data(seed=5, n=1050)
        clf = SquaredLossClassifier(eps=1e-3, max_iter=1, subsample=True).fit(X, y)
        (record,) = clf.report_.records
        assert record.grad_calls == 53
        assert record.hv_calls > 0 and record.hv_calls % 11 == 0

    def test_contract_violation_warns_and_keeps_coef(self):
        problem = synthetic_nls(1200, 8, seed=5)
        clf = SquaredLossClassifier(max_iter=200, subsample=True)
        with pytest.warns(RuntimeWarning, match="ContractViolation after 128"):
            clf.fit(problem.A, problem.b)
        assert clf.report_.termination == "ContractViolation"
        assert clf.n_iter_ == 128
        np.testing.assert_array_equal(clf.coef_, clf.report_.x_final)


class TestWelschRegressor:
    def test_robust_to_gross_outliers(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((200, 4))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        w_true = np.array([1.0, -2.0, 0.5, 0.0])
        y = X @ w_true + 0.01 * rng.standard_normal(200)
        y[:10] += 50.0  # gross outliers saturate the loss
        reg = WelschRegressor(alpha=1.0, eps=1e-3, max_iter=200).fit(X, y)
        clean = slice(10, None)
        resid = reg.predict(X[clean]) - y[clean]
        assert np.sqrt(np.mean(resid**2)) < 0.2

    def test_predict_is_linear(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 3)) * 0.5
        y = X @ np.array([1.0, 0.0, -1.0])
        reg = WelschRegressor(eps=1e-2, max_iter=80).fit(X, y)
        np.testing.assert_allclose(reg.predict(X), X @ reg.coef_)


@pytest.mark.parametrize("make", [SquaredLossClassifier, WelschRegressor])
def test_predict_rejects_a_different_feature_count(make):
    X, y = classification_data(seed=8, n=40, d=3)
    est = make(eps=1e-2, max_iter=20).fit(X, y)
    with pytest.raises(ValueError, match="X has 4 features, but the estimator "
                                         "was fitted with 3"):
        est.predict(np.ones((2, 4)))
    assert est.predict(np.ones((2, 3))).shape == (2,)


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        clf = SquaredLossClassifier(link="tanh", eps=1e-4, max_iter=7,
                                    subsample=True, seed=9)
        params = clf.get_params()
        other = SquaredLossClassifier().set_params(**params)
        assert other.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            SquaredLossClassifier().set_params(bogus=1)

    def test_sklearn_clone_compatibility(self):
        base = pytest.importorskip("sklearn.base")
        clf = SquaredLossClassifier(eps=1e-4, seed=5)
        cloned = base.clone(clf)
        assert cloned.get_params() == clf.get_params()
        reg = base.clone(WelschRegressor(alpha=2.0))
        assert reg.alpha == 2.0

    @pytest.mark.filterwarnings("ignore:.*__sklearn_tags__.*:DeprecationWarning")
    def test_sklearn_cross_val_smoke(self):
        # duck-typed estimators draw a tags deprecation warning from newer
        # sklearn; clone/fit/score still work, which is what matters here
        model_selection = pytest.importorskip("sklearn.model_selection")
        X, y = classification_data(seed=8, n=90)
        clf = SquaredLossClassifier(eps=5e-2, max_iter=30)
        scores = model_selection.cross_val_score(
            clf, X, y, cv=3, scoring="accuracy", error_score="raise"
        )
        assert len(scores) == 3
