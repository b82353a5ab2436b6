"""Tests for the high-level FailurePredictor API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FailurePredictor, build_prediction_dataset
from repro.core import predictor as predictor_mod
from repro.core.pipeline import ModelSpec
from repro.ml import LogisticRegression, RandomForestClassifier


class TestFit:
    def test_fit_and_score_trace(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        probs = pred.predict_proba_records(medium_trace.records)
        assert probs.shape == (len(medium_trace.records),)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_invalid_lookahead(self):
        with pytest.raises(ValueError):
            FailurePredictor(lookahead=0)

    def test_unfitted_raises(self, medium_trace):
        with pytest.raises(RuntimeError):
            FailurePredictor().predict_proba_records(medium_trace.records)

    def test_scaled_spec_rejected(self, medium_trace):
        spec = ModelSpec("LR", lambda: LogisticRegression(), scale=True, log1p=True)
        with pytest.raises(ValueError, match="raw-feature"):
            FailurePredictor(model_spec=spec).fit(medium_trace)

    def test_age_partitioned_fit(self, medium_trace):
        pred = FailurePredictor(lookahead=3, age_partitioned=True, seed=0).fit(
            medium_trace
        )
        probs = pred.predict_proba_records(medium_trace.records)
        assert np.isfinite(probs).all()
        # Both partitions produce importances.
        young = pred.feature_importances_for("young")
        old = pred.feature_importances_for("old")
        assert len(young) == len(old) > 0

    def test_unknown_partition(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        with pytest.raises(KeyError):
            pred.feature_importances_for("young")


class TestScores:
    def test_failure_days_score_above_background(self, medium_trace):
        """In-sample sanity: positives should get much higher scores."""
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        ds = build_prediction_dataset(medium_trace, lookahead=1)
        probs = pred.predict_proba_dataset(ds)
        assert probs[ds.y == 1].mean() > probs[ds.y == 0].mean() + 0.3

    def test_risk_report_one_row_per_drive(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        report = pred.risk_report(medium_trace.records)
        assert len(report.drive_id) == medium_trace.records.n_drives()
        top = report.top(5)
        assert len(top.drive_id) == 5
        assert (np.diff(top.probability) <= 0).all()

    def test_flagged_threshold(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        report = pred.risk_report(medium_trace.records)
        strict = report.flagged(0.95)
        loose = report.flagged(0.05)
        assert len(strict) <= len(loose)

    def test_feature_importances_sorted(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        imps = pred.feature_importances()
        vals = [v for _, v in imps]
        assert vals == sorted(vals, reverse=True)
        assert abs(sum(vals) - 1.0) < 1e-6


class TestCrossValidate:
    def test_cv_returns_sane_auc(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0)
        res = pred.cross_validate(medium_trace, n_splits=4)
        assert 0.6 < res.mean_auc <= 1.0


class TestSerialOneBlock:
    """A serial ``predict_proba_matrix`` scores the matrix as one block."""

    @pytest.fixture(scope="class", params=[False, True], ids=["all", "by_age"])
    def scored(self, request, medium_trace):
        pred = FailurePredictor(
            lookahead=3, age_partitioned=request.param, seed=0
        ).fit(medium_trace)
        ds = build_prediction_dataset(medium_trace, lookahead=3)
        young = ds.age_days <= pred.infancy_days
        # Interleave young and old rows so every shard of the pooled path
        # holds both partitions.
        rows = np.stack(
            [np.flatnonzero(young)[:400], np.flatnonzero(~young)[:400]], axis=1
        ).ravel()
        return pred, ds.X[rows], ds.age_days[rows]

    @pytest.mark.parametrize("n", [1, 2, 3, 257, 800])
    def test_one_forest_call_per_model(self, scored, monkeypatch, n):
        pred, X, age = scored
        calls = []
        original = RandomForestClassifier.predict_proba

        def counting(model, rows):
            calls.append(id(model))
            return original(model, rows)

        monkeypatch.setattr(RandomForestClassifier, "predict_proba", counting)
        pred.predict_proba_matrix(X[:n], age[:n], workers=1)
        young = age[:n] <= pred.infancy_days
        if pred.age_partitioned:
            used = [
                pred._models[key]
                for key, rows in (("young", young), ("old", ~young))
                if rows.any()
            ]
        else:
            used = [pred._models["all"]]
        assert sorted(calls) == sorted(id(m) for m in used)

    def test_bitwise_equal_to_pooled_path(self, scored):
        pred, X, age = scored
        serial = pred.predict_proba_matrix(X, age, workers=1)
        pooled = pred.predict_proba_matrix(X, age, workers=2)
        np.testing.assert_array_equal(
            serial.view(np.uint64), pooled.view(np.uint64)
        )

    def test_empty_matrix(self, scored):
        pred, X, age = scored
        out = pred.predict_proba_matrix(X[:0], age[:0], workers=1)
        assert out.shape == (0,)

    def test_scored_matrix_not_pinned(self, scored, monkeypatch):
        pred, X, age = scored
        monkeypatch.setattr(predictor_mod, "_score_state", None)
        pred.predict_proba_matrix(X, age, workers=1)
        assert predictor_mod._score_state is None
