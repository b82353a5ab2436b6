"""Tests for the random forest ensemble."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier, roc_auc_score
from repro.ml.forest import _PREDICT_CHUNK_ROWS as C


def _noisy_nonlinear(rng, n=800):
    X = rng.normal(size=(n, 5))
    logit = 2.0 * ((X[:, 0] > 0) & (X[:, 1] > 0)) + X[:, 2]
    p = 1 / (1 + np.exp(-logit + 0.5))
    y = (rng.random(n) < p).astype(int)
    return X, y


class TestForest:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_proba_bounds_and_shape(self, rng):
        X, y = _noisy_nonlinear(rng)
        rf = RandomForestClassifier(20, max_depth=5, random_state=0).fit(X, y)
        p = rf.predict_proba(X[:100])
        assert p.shape == (100,)
        assert ((p >= 0) & (p <= 1)).all()

    def test_deterministic_given_seed(self, rng):
        X, y = _noisy_nonlinear(rng, n=300)
        a = RandomForestClassifier(10, max_depth=4, random_state=7).fit(X, y)
        b = RandomForestClassifier(10, max_depth=4, random_state=7).fit(X, y)
        assert np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_seeds_differ(self, rng):
        X, y = _noisy_nonlinear(rng, n=300)
        a = RandomForestClassifier(10, max_depth=4, random_state=1).fit(X, y)
        b = RandomForestClassifier(10, max_depth=4, random_state=2).fit(X, y)
        assert not np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_beats_single_tree_generalization(self, rng):
        Xtr, ytr = _noisy_nonlinear(rng, n=600)
        Xte, yte = _noisy_nonlinear(rng, n=600)
        tree = DecisionTreeClassifier(max_depth=None, random_state=0).fit(Xtr, ytr)
        rf = RandomForestClassifier(60, max_depth=None, random_state=0).fit(Xtr, ytr)
        auc_tree = roc_auc_score(yte, tree.predict_proba(Xte))
        auc_rf = roc_auc_score(yte, rf.predict_proba(Xte))
        assert auc_rf >= auc_tree - 0.01  # typically strictly better

    def test_ensemble_average_of_trees(self, rng):
        X, y = _noisy_nonlinear(rng, n=200)
        rf = RandomForestClassifier(8, max_depth=3, random_state=0).fit(X, y)
        manual = np.mean([t.predict_proba(X[:20]) for t in rf.trees_], axis=0)
        assert np.allclose(rf.predict_proba(X[:20]), manual)

    def test_importances_normalized_and_informative(self, rng):
        X = rng.normal(size=(600, 6))
        y = (X[:, 3] > 0).astype(int)
        rf = RandomForestClassifier(40, max_depth=4, random_state=0).fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)
        assert np.argmax(rf.feature_importances_) == 3

    def test_no_bootstrap_mode(self, rng):
        X, y = _noisy_nonlinear(rng, n=200)
        rf = RandomForestClassifier(
            5, max_depth=3, bootstrap=False, random_state=0
        ).fit(X, y)
        assert len(rf.trees_) == 5

    def test_tiny_training_set_with_degenerate_resamples(self):
        # 3 samples: bootstrap will often draw single-class resamples; the
        # fallback must keep the ensemble valid.
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        rf = RandomForestClassifier(30, random_state=0).fit(X, y)
        p = rf.predict_proba(X)
        assert ((p >= 0) & (p <= 1)).all()


def _per_tree_fold(rf, X):
    """Reference: per-tree probabilities added in fit order from zeros."""
    acc = np.zeros(X.shape[0])
    for tree in rf.trees_:
        acc += tree.predict_proba(X)
    return acc / len(rf.trees_)


def _assert_bits_equal(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBitExactScoring:
    """The packed forest equals the sequential per-tree fold bit for bit.

    Fit-order accumulation is what keeps the scores bit-identical; a
    pairwise sum (``np.sum`` on a one-row chunk) or a sum in deepest-first
    pack order differs in the last ulp, which ``np.allclose`` would miss.
    """

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(11)
        X, y = _noisy_nonlinear(rng, n=500)
        rf = RandomForestClassifier(
            30, max_depth=None, min_samples_leaf=3, random_state=4
        ).fit(X, y)
        Xq = rng.normal(size=(max(3 * C + 5, 600), X.shape[1]))
        return rf, Xq, _per_tree_fold(rf, Xq)

    def test_trees_have_mixed_depths(self, fitted):
        rf, _, _ = fitted
        # The deepest-first pack reorders trees only if depths differ.
        depths = [t.max_depth_ for t in rf.trees_]
        assert len(set(depths)) > 2
        assert depths != sorted(depths, reverse=True)

    @pytest.mark.parametrize("rows", [1, 2, C - 1, C, C + 1, 3 * C + 5])
    def test_batch_equals_per_tree_fold(self, fitted, rows):
        rf, Xq, ref = fitted
        _assert_bits_equal(rf.predict_proba(Xq[:rows]), ref[:rows])

    def test_single_row_calls_equal_per_tree_fold(self, fitted):
        rf, Xq, ref = fitted
        got = np.concatenate([rf.predict_proba(Xq[i : i + 1]) for i in range(600)])
        _assert_bits_equal(got, ref[:600])
