"""Classifiers, the training pipelines, and model persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritag import (
    ClassifierSettings,
    FeatureSchema,
    knn_predict,
    knn_train,
    load_pipeline,
    rf_predict,
    rf_train,
    save_pipeline,
    svm_predict,
    svm_train,
    train_baseline_pipeline,
    train_tag_pipeline,
)
from veritag.errors import ConfigError, DataError, InvariantError
from veritag.featureset import standardize_apply, standardize_fit
from veritag.models.baseline import BaselineFeaturizer, baseline_text, document_texts
from veritag.models.svm import LinearSvmModel
from veritag.markup import Article


def _separated_set(n=200, gap=2.0, seed=0):
    """Linearly separable 2-D blobs with a wide margin."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(loc=(-gap, 0.0), scale=0.3, size=(half, 2))
    b = rng.normal(loc=(+gap, 0.0), scale=0.3, size=(half, 2))
    X = np.vstack([a, b])
    y = np.array([0] * half + [1] * half)
    return X, y


def _xor_set(n=400, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestSvm:
    def test_separable_reaches_full_accuracy(self):
        X, y = _separated_set()
        model = svm_train(X, y, C=0.1)
        predictions = svm_predict(model, X)[0].tolist()
        assert predictions == y.tolist()

    def test_bit_reproducible(self):
        X, y = _separated_set(seed=3)
        a = svm_train(X, y, C=0.5)
        b = svm_train(X, y, C=0.5)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_label_swap_negates_parameters(self):
        # the dual trajectory mirrors exactly under y -> 1-y
        X, y = _separated_set(seed=4)
        a = svm_train(X, y, C=0.5)
        b = svm_train(X, 1 - y, C=0.5)
        assert np.array_equal(a.weights, -b.weights)
        assert a.bias == -b.bias

    def test_margin_sign_decides_class(self):
        X, y = _separated_set(seed=5)
        model = svm_train(X, y, C=0.1)
        classes, margins = svm_predict(model, X)
        assert np.array_equal(classes == 1, margins > 0.0)

    def test_pass_cap_warns_once(self, caplog):
        X, y = _xor_set(n=60, seed=1)
        with caplog.at_level("WARNING", logger="veritag"):
            capped = svm_train(X, y, C=100.0, max_passes=1)
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1
        assert "1-pass cap" in warnings[0] and "relative duality gap" in warnings[0]
        weights, bias = _reference_svm_train(X, y, C=100.0, max_passes=1)
        assert capped.weights.tobytes() == weights.tobytes() and capped.bias == bias
        caplog.clear()
        with caplog.at_level("WARNING", logger="veritag"):
            svm_train(X, y, C=100.0)
        assert caplog.records == []

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            svm_train(np.ones((4, 2)), np.zeros(4, dtype=int), C=0.1)

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            svm_train(np.ones((3, 2)), np.array([0, 1, 2]), C=0.1)

    def test_nonpositive_cost_rejected(self):
        X, y = _separated_set(n=20)
        with pytest.raises(DataError):
            svm_train(X, y, C=0.0)

    def test_wrong_width_prediction_rejected(self):
        X, y = _separated_set(n=20)
        model = svm_train(X, y, C=0.1)
        with pytest.raises(DataError):
            svm_predict(model, np.ones((1, 5)))


def _reference_svm_train(X, y, C=0.1, tol=1e-4, max_passes=10_000):
    """The dual coordinate descent loop that visits every coordinate on every
    pass, kept verbatim as the reference for svm_train: (weights, bias)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n, d = X.shape
    t = np.where(y == 1, 1.0, -1.0)
    Xa = np.hstack([X, np.ones((n, 1))])  # bias component
    q = (Xa * Xa).sum(axis=1)  # Q_ii, >= 1 thanks to the bias column
    alpha = np.zeros(n)
    w = np.zeros(d + 1)

    def primal() -> float:
        margins = 1.0 - t * (Xa @ w)
        return 0.5 * float(w @ w) + C * float(np.clip(margins, 0.0, None).sum())

    def dual() -> float:
        return float(alpha.sum()) - 0.5 * float(w @ w)

    prev_dual = dual()
    for _ in range(max_passes):
        for i in range(n):
            g = t[i] * (w @ Xa[i]) - 1.0
            a_new = min(max(alpha[i] - g / q[i], 0.0), C)
            delta = a_new - alpha[i]
            if delta != 0.0:
                alpha[i] = a_new
                w += delta * t[i] * Xa[i]
        p = primal()
        dl = dual()
        if dl < prev_dual - 1e-9 * max(1.0, abs(prev_dual)):
            raise InvariantError("dual objective decreased during training")
        prev_dual = dl
        if p - dl <= tol * max(1.0, abs(p)):
            break
    return w[:-1].copy(), float(w[-1])


def _assert_matches_reference(X, y, C, max_passes=10_000):
    model = svm_train(X, y, C=C, max_passes=max_passes)
    weights, bias = _reference_svm_train(X, y, C=C, max_passes=max_passes)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias == bias


@st.composite
def _svm_problems(draw):
    """Small training sets with the degenerate shapes a solver can trip on:
    duplicate rows (also under the other label), constant and all-zero
    columns, and points mirrored through the origin under the other label."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    if draw(st.booleans()):
        X = np.round(X)  # many ties
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    X[:, 0] += draw(st.floats(0.0, 3.0)) * (2 * y - 1)  # some class signal
    if d > 1 and draw(st.booleans()):
        X[:, rng.integers(1, d)] = draw(st.floats(-5.0, 5.0))
    if d > 1 and draw(st.booleans()):
        X[:, rng.integers(1, d)] = 0.0
    if draw(st.booleans()):
        picks = rng.integers(0, n, size=draw(st.integers(1, 10)))
        X = np.vstack([X, X[picks]])
        y = np.concatenate([y, np.where(rng.random(picks.size) < 0.5, y[picks], 1 - y[picks])])
    if draw(st.booleans()):
        picks = rng.integers(0, len(y), size=draw(st.integers(1, 10)))
        X = np.vstack([X, -X[picks]])
        y = np.concatenate([y, 1 - y[picks]])
    return X, y


class TestSvmMatchesReference:
    """svm_train skips visits only where a bound proves the update is zero,
    so its weights and bias are those of the loop that visits every
    coordinate, to the last bit."""

    @given(_svm_problems(), st.sampled_from([1e-3, 0.1, 1.0, 100.0]))
    @settings(max_examples=150, deadline=None)
    def test_generated_problems(self, problem, C):
        X, y = problem
        _assert_matches_reference(X, y, C, max_passes=300)

    @pytest.mark.parametrize("C", [1e-3, 0.1, 1.0, 100.0])
    def test_standardized_160_by_97(self, C):
        # the shape of a TAG training set: 97 features of mixed scale with
        # integer-valued and constant columns, and 15% flipped labels, so
        # the larger costs take hundreds of passes
        rng = np.random.default_rng(97)
        y = rng.integers(0, 2, size=160)
        X = rng.normal(size=(160, 97)) * rng.random(97) * 2
        X += 0.3 * (2 * y - 1)[:, None] * rng.random(97)
        X[:, :20] = np.round(X[:, :20] * 2)
        X[:, 20:23] = 1.5
        y = np.where(rng.random(160) < 0.15, 1 - y, y)
        Z = standardize_apply(standardize_fit(X), X)
        _assert_matches_reference(Z, y, C)


class TestKnn:
    def test_k1_self_prediction_is_exact(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        model = knn_train(X, y, k=1)
        assert knn_predict(model, X)[0].tolist() == y.tolist()

    def test_vote_tie_breaks_by_summed_distance(self):
        # class 1 point is nearer, so the 1-1 vote tie goes to class 1
        X = np.array([[0.0], [1.9]])
        y = np.array([0, 1])
        model = knn_train(X, y, k=2)
        assert knn_predict(model, np.array([[1.0]]))[0].tolist() == [1]

    def test_exact_tie_takes_lower_class_id(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        model = knn_train(X, y, k=2)
        (cls,), (score,) = knn_predict(model, np.array([[1.0]]))
        assert cls == 0
        assert score == 0.5

    def test_training_order_irrelevant(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        perm = rng.permutation(30)
        a = knn_train(X, y, k=5)
        b = knn_train(X[perm], y[perm], k=5)
        queries = rng.normal(size=(20, 2))
        for got, want in zip(knn_predict(a, queries), knn_predict(b, queries), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_k_bounds(self):
        X = np.ones((3, 1))
        y = np.array([0, 1, 0])
        with pytest.raises(DataError):
            knn_train(X, y, k=0)
        with pytest.raises(DataError):
            knn_train(X, y, k=4)


def _reference_knn_predict(model, x):
    """knn_predict as it was before it took a matrix, kept as the reference:
    one query, every training point sorted by (distance, coordinates,
    label); (class, vote fraction)."""
    diffs = model.points - x
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    order = sorted(
        range(len(dists)),
        key=lambda i: (dists[i], tuple(model.points[i]), int(model.labels[i])),
    )
    votes: dict[int, int] = {}
    summed: dict[int, float] = {}
    for i in order[: model.k]:
        c = int(model.labels[i])
        votes[c] = votes.get(c, 0) + 1
        summed[c] = summed.get(c, 0.0) + float(dists[i])
    winner = min(votes, key=lambda c: (-votes[c], summed[c], c))
    return winner, votes[winner] / model.k


@st.composite
def knn_problems(draw):
    """Points on a coarse integer grid, so that many distances tie, with
    signed zeros, 2 or 3 classes, and duplicated points carrying another
    label; queries on the grid, halfway between grid points and off it;
    k from 1 to n."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    points = np.where(rng.random((n, d)) < 0.3, -points, points)
    labels = rng.integers(0, n_classes, size=n)
    labels[:2] = (0, 1)
    for i in range(draw(st.integers(0, n // 2))):
        points[n - 1 - i] = points[i]
        labels[n - 1 - i] = (labels[i] + 1) % n_classes
    queries = np.vstack([
        points[: draw(st.integers(0, n))],
        rng.integers(-2, 3, size=(3, d)) + 0.5,
        rng.normal(size=(3, d)),
    ])
    return knn_train(points, labels, k=draw(st.integers(1, n))), queries


class TestKnnMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(knn_problems())
    def test_classes_and_scores(self, problem):
        model, queries = problem
        classes, scores = knn_predict(model, queries)
        assert classes.dtype == np.int64 and scores.dtype == np.float64
        assert list(zip(classes.tolist(), scores.tolist())) == [
            _reference_knn_predict(model, x) for x in queries
        ]


class TestSvmMargins:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(0, 40))
    def test_each_margin_is_the_per_row_dot(self, seed, d, n):
        rng = np.random.default_rng(seed)
        model = LinearSvmModel(weights=rng.normal(size=d), bias=float(rng.normal()), cost=0.1)
        X = rng.normal(size=(n, d)) * rng.random(d) * 10
        classes, margins = svm_predict(model, X)
        expected = np.array([float(model.weights @ x + model.bias) for x in X], dtype=np.float64)
        assert margins.tobytes() == expected.tobytes()
        assert classes.dtype == np.int64
        assert classes.tolist() == [int(m > 0.0) for m in expected.tolist()]

    def test_zero_margin_goes_to_class_0(self):
        model = LinearSvmModel(weights=np.array([1.0, -1.0]), bias=0.0, cost=0.1)
        classes, margins = svm_predict(model, np.array([[2.0, 2.0], [2.0, 1.0]]))
        assert classes.tolist() == [0, 1]
        assert margins.tolist() == [0.0, 1.0]


_TRAIN_AND_PREDICT = {
    "svm": (lambda X, y: svm_train(X, y, C=0.1), svm_predict),
    "knn": (lambda X, y: knn_train(X, y, k=3), knn_predict),
    "rf": (lambda X, y: rf_train(X, y, n_trees=5, seed=0), rf_predict),
}


class TestPredictShapes:
    @pytest.mark.parametrize("name", sorted(_TRAIN_AND_PREDICT))
    def test_zero_rows_give_two_empty_arrays(self, name):
        train, predict = _TRAIN_AND_PREDICT[name]
        pipeline, X3, _ = _tag_pipeline(classifier=name)
        for classes, scores in (
            predict(train(*_separated_set(n=20)), np.empty((0, 2))),
            pipeline.predict_matrix(np.empty((0, 3))),
        ):
            assert classes.dtype == np.int64 and classes.shape == (0,)
            assert scores.dtype == np.float64 and scores.shape == (0,)

    @pytest.mark.parametrize("name", sorted(_TRAIN_AND_PREDICT))
    @pytest.mark.parametrize("shape", [(4, 1), (4, 5), (2,), (1, 2, 2)])
    def test_wrong_width_names_both_widths(self, name, shape):
        train, predict = _TRAIN_AND_PREDICT[name]
        model = train(*_separated_set(n=20))
        with pytest.raises(DataError, match=rf"shape \({shape[0]},.*expects 2 features"):
            predict(model, np.ones(shape))
        pipeline, _, _ = _tag_pipeline(classifier=name)
        with pytest.raises(DataError, match=rf"shape \({shape[0]},.*expects 3 features"):
            pipeline.predict_matrix(np.ones(shape))


class TestRandomForest:
    def test_xor_generalizes(self):
        X, y = _xor_set()
        model = rf_train(X[:300], y[:300], n_trees=100, seed=0)
        held_out = rf_predict(model, X[300:])[0]
        accuracy = float(np.mean(held_out == y[300:]))
        assert accuracy > 0.9

    def test_bit_reproducible(self):
        X, y = _xor_set(n=120, seed=6)
        a = rf_train(X, y, n_trees=30, seed=7)
        b = rf_train(X, y, n_trees=30, seed=7)
        assert a.trees == b.trees

    def test_seed_changes_forest(self):
        X, y = _xor_set(n=120, seed=6)
        a = rf_train(X, y, n_trees=30, seed=7)
        b = rf_train(X, y, n_trees=30, seed=8)
        assert a.trees != b.trees

    def test_vote_fraction_bounds(self):
        X, y = _xor_set(n=80, seed=10)
        model = rf_train(X, y, n_trees=15, seed=0)
        classes, scores = rf_predict(model, X)
        assert set(classes.tolist()) <= {0, 1}
        assert np.all((0.0 < scores) & (scores <= 1.0))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            rf_train(np.ones((5, 2)), np.zeros(5, dtype=int), n_trees=3, seed=0)


def _tag_pipeline(seed=0, classifier="svm"):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(
        names=("R.W", "R.STC", "R.SY"), granularity="HC", groups=("R",), pruning="none"
    )
    y = rng.integers(0, 2, size=60)
    X = np.column_stack([y * 3.0 + rng.normal(0, 0.1, 60),
                         rng.normal(size=60),
                         rng.normal(size=60)])
    settings = ClassifierSettings(name=classifier, c=0.5, k=3, trees=20, seed=0)
    return train_tag_pipeline(X, y, schema, settings), X, y


class TestTagPipeline:
    def test_predicts_training_data(self):
        pipeline, X, y = _tag_pipeline()
        predicted, _ = pipeline.predict_matrix(X)
        assert float(np.mean(predicted == y)) > 0.95

    def test_standardizer_is_fitted(self):
        pipeline, X, _ = _tag_pipeline()
        assert pipeline.standardizer.mean.shape == (3,)

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ConfigError):
            ClassifierSettings(name="perceptron", c=1.0, k=3, trees=5, seed=0)

    @pytest.mark.parametrize("featurizer", [True, False], ids=["both", "neither"])
    def test_needs_exactly_one_of_schema_and_featurizer(self, demo_dictionary, featurizer):
        pipeline, _, _ = _tag_pipeline()
        texts = _texts("HC", demo_dictionary)
        parts = (
            {"featurizer": BaselineFeaturizer.fit(texts, "HC", demo_dictionary, min_df=2)}
            if featurizer else {"schema": None}
        )
        with pytest.raises(ConfigError, match="exactly one of a schema and a featurizer"):
            dataclasses.replace(pipeline, **parts)

    def test_matrix_schema_mismatch_rejected(self):
        schema = FeatureSchema(names=("R.W",), granularity="HC", groups=("R",), pruning="none")
        settings = ClassifierSettings(name="svm", c=1.0, k=3, trees=5, seed=0)
        with pytest.raises(DataError):
            train_tag_pipeline(np.ones((4, 2)), np.array([0, 1, 0, 1]), schema, settings)

    @pytest.mark.parametrize("name", ["svm", "knn", "rf"])
    def test_labels_other_than_0_and_1_are_refused(self, name):
        # a model file holds classes 0 and 1, so any other label would give
        # a model that cannot be loaded
        schema = FeatureSchema(names=("R.W",), granularity="HC", groups=("R",), pruning="none")
        settings = ClassifierSettings(name=name, c=1.0, k=1, trees=2, seed=0)
        with pytest.raises(DataError, match="labels must be 0/1"):
            train_tag_pipeline(np.arange(4.0)[:, None], np.array([0, 2, 0, 2]), schema, settings)


_ARTICLES = [
    Article(headline="Budget approved", content="The council approved the budget. Taxes fall."),
    Article(headline="Budget rejected", content="The council rejected the budget. Taxes rise."),
    Article(headline="Storm warning", content="A storm arrives tonight. Schools close early."),
    Article(headline="Storm passes", content="The storm passed the coast. Schools reopen."),
]


def _texts(granularity, dictionary, articles=_ARTICLES):
    """The articles as the baseline reads them at the granularity."""
    return [baseline_text(a, granularity, dictionary) for a in articles]


class TestBaselinePipeline:
    def test_trains_and_predicts(self, demo_dictionary):
        y = np.array([0, 0, 1, 1])
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        texts = _texts("HC", demo_dictionary)
        pipeline = train_baseline_pipeline(texts, y, "HC", demo_dictionary, settings, min_df=1)
        assert pipeline.kind == "baseline"
        X = pipeline.featurizer.transform_many(texts)
        predicted, _ = pipeline.predict_matrix(X)
        assert predicted.shape == (4,)

    def test_training_tokenizes_each_article_once(self, demo_dictionary, monkeypatch):
        import veritag.models.baseline as baseline

        tokenize, calls = baseline.tokenize, []
        monkeypatch.setattr(baseline, "tokenize", lambda text: calls.append(text) or tokenize(text))
        y = np.array([0, 0, 1, 1])
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        texts = _texts("HC", demo_dictionary)
        train_baseline_pipeline(texts, y, "HC", demo_dictionary, settings, min_df=1)
        assert len(calls) == len(_ARTICLES)

    def test_training_fits_through_fit(self, demo_dictionary, monkeypatch):
        fit, fits = BaselineFeaturizer.fit, []
        monkeypatch.setattr(
            BaselineFeaturizer, "fit", lambda *args: fits.append(fit(*args)) or fits[-1]
        )
        y = np.array([0, 0, 1, 1])
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        texts = _texts("HC", demo_dictionary)
        pipeline = train_baseline_pipeline(texts, y, "HC", demo_dictionary, settings, min_df=1)
        assert len(fits) == 1 and fits[0] is pipeline.featurizer

    def test_min_df_filters_vocabulary(self, demo_dictionary):
        featurizer = BaselineFeaturizer.fit(_texts("HC", demo_dictionary), "HC", demo_dictionary, 2)
        # "budget" appears in two documents, "tonight" in one
        assert "budget" in featurizer.vocabulary
        assert "tonight" not in featurizer.vocabulary

    def test_idf_formula(self, demo_dictionary):
        featurizer = BaselineFeaturizer.fit(_texts("HC", demo_dictionary), "HC", demo_dictionary, 1)
        # "budget" document frequency is 2 of 4
        assert featurizer.idf["budget"] == pytest.approx(np.log(5.0 / 3.0) + 1.0)

    def test_empty_corpus_rejected(self, demo_dictionary):
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        with pytest.raises(DataError):
            train_baseline_pipeline([], np.array([]), "HC", demo_dictionary, settings, min_df=2)


def _reference_baseline(train, test, granularity, dictionary, min_df):
    """The per-row baseline featurizer as it was before texts were prepared
    once per article: (vocabulary, idf, rows of test)."""
    from veritag.featureset import granularity_text
    from veritag.linguistics import (
        READABILITY_FEATURES, dictionary_scores, readability_features, tokenize,
    )

    def ngrams(tokens):
        tokens = [t.lower() for t in tokens]
        return tokens + [" ".join(tokens[i : i + 2]) for i in range(len(tokens) - 1)]

    def tokenized(article):
        return tokenize(granularity_text(article, granularity))

    df: dict[str, int] = {}
    for doc in map(tokenized, train):
        for term in set(ngrams(doc.tokens)):
            df[term] = df.get(term, 0) + 1
    vocabulary = tuple(sorted(t for t, c in df.items() if c >= min_df))
    idf = {t: math.log((1 + len(train)) / (1 + df[t])) + 1.0 for t in vocabulary}
    columns = {t: i for i, t in enumerate(vocabulary)}
    rows = []
    for doc in map(tokenized, test):
        tfidf = np.zeros(len(vocabulary))
        for term in ngrams(doc.tokens):
            if term in columns:
                tfidf[columns[term]] += 1.0
        tfidf *= np.array([idf[t] for t in vocabulary], dtype=np.float64)
        norm = math.sqrt(float(tfidf @ tfidf))
        if norm > 0.0:
            tfidf /= norm
        scores = dictionary_scores(doc.tokens, dictionary)
        readability = readability_features(doc)
        rows.append(np.concatenate([
            tfidf,
            np.array([scores[c] for c in dictionary.categories]),
            np.array([readability[r] for r in READABILITY_FEATURES]),
        ]))
    return vocabulary, idf, np.stack(rows)


class TestBaselineMatchesReference:
    @pytest.mark.parametrize("granularity", ["H", "C", "HC"])
    @pytest.mark.parametrize("min_df", [1, 2])
    def test_rows_and_vocabulary_bytes(
        self, demo_docs, drift_docs, demo_dictionary, granularity, min_df
    ):
        from veritag.markup import extract_article, parse_html

        for docs in (demo_docs, drift_docs):
            articles = [extract_article(parse_html(d.html)) for d in docs]
            vocabulary, idf, X = _reference_baseline(
                articles[::2], articles, granularity, demo_dictionary, min_df
            )
            texts = _texts(granularity, demo_dictionary, articles)
            featurizer = BaselineFeaturizer.fit(texts[::2], granularity, demo_dictionary, min_df)
            assert featurizer.vocabulary == vocabulary
            assert featurizer.idf == idf
            assert featurizer.transform_many(texts).tobytes() == X.tobytes()
            assert featurizer.transform_many(texts[1:2]).tobytes() == X[1].tobytes()
            train = texts[::2]
            assert featurizer.transform_many(train).tobytes() == X[::2].tobytes()

    def test_texts_share_one_string_per_word(self, demo_docs, demo_dictionary):
        tokens = [
            t for texts in document_texts(demo_docs, ["H", "HC"], demo_dictionary)
            for text in texts for t in text.tokens
        ]
        assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)


class TestPersistence:
    @pytest.mark.parametrize("classifier", ["svm", "knn", "rf"])
    def test_tag_round_trip_predicts_identically(self, tmp_path, classifier):
        pipeline, X, _ = _tag_pipeline(seed=1, classifier=classifier)
        path = tmp_path / "model.bin"
        save_pipeline(pipeline, path)
        loaded = load_pipeline(path)
        original = pipeline.predict_matrix(X)
        restored = loaded.predict_matrix(X)
        assert np.array_equal(original[0], restored[0])
        assert np.array_equal(original[1], restored[1])

    def test_baseline_round_trip(self, tmp_path, demo_dictionary):
        y = np.array([0, 0, 1, 1])
        settings = ClassifierSettings(name="knn", c=1.0, k=1, trees=5, seed=0)
        texts = _texts("HC", demo_dictionary)
        pipeline = train_baseline_pipeline(texts, y, "HC", demo_dictionary, settings, min_df=1)
        path = tmp_path / "model.bin"
        save_pipeline(pipeline, path)
        loaded = load_pipeline(path)
        assert loaded.featurizer.vocabulary == pipeline.featurizer.vocabulary
        X = loaded.featurizer.transform_many(texts)
        assert loaded.predict_matrix(X)[0].shape == (4,)

    def test_columns_follow_the_files_vocabulary(self, tmp_path, demo_dictionary):
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        texts = _texts("HC", demo_dictionary)
        pipeline = train_baseline_pipeline(
            texts, np.array([0, 0, 1, 1]), "HC", demo_dictionary, settings, min_df=1
        )
        path = tmp_path / "model.bin"
        save_pipeline(pipeline, path)
        body = json.loads(path.read_text())
        # the checksum hashes keys sorted, so it still holds
        idf = body["payload"]["featurizer"]["idf"]
        body["payload"]["featurizer"]["idf"] = dict(reversed(idf.items()))
        path.write_text(json.dumps(body))
        loaded = load_pipeline(path).featurizer
        assert loaded.vocabulary == pipeline.featurizer.vocabulary
        expected = pipeline.featurizer.transform_many(texts)
        assert loaded.transform_many(texts).tobytes() == expected.tobytes()

    def test_kind_follows_the_parts_before_and_after_loading(self, tmp_path, demo_dictionary):
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        tag, _, _ = _tag_pipeline()
        baseline = train_baseline_pipeline(
            _texts("HC", demo_dictionary), np.array([0, 0, 1, 1]), "HC", demo_dictionary,
            settings, min_df=1,
        )
        for pipeline, kind in ((tag, "tag"), (baseline, "baseline")):
            save_pipeline(pipeline, tmp_path / "model.bin")
            assert pipeline.kind == load_pipeline(tmp_path / "model.bin").kind == kind

    def test_saved_bytes_are_stable(self, tmp_path):
        pipeline, _, _ = _tag_pipeline(seed=2)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_pipeline(pipeline, a)
        save_pipeline(pipeline, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        pipeline, _, _ = _tag_pipeline(seed=2)
        path = tmp_path / "model.bin"
        save_pipeline(pipeline, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataError, match="corrupt"):
            load_pipeline(path)

    def test_payload_tampering_rejected(self, tmp_path):
        pipeline, _, _ = _tag_pipeline(seed=2)
        path = tmp_path / "model.bin"
        save_pipeline(pipeline, path)
        body = json.loads(path.read_text())
        body["payload"]["classifier"]["bias"] = 99.0
        path.write_text(json.dumps(body))
        with pytest.raises(DataError, match="checksum"):
            load_pipeline(path)

    def test_version_gate(self, tmp_path):
        pipeline, _, _ = _tag_pipeline(seed=2)
        path = tmp_path / "model.bin"
        save_pipeline(pipeline, path)
        body = json.loads(path.read_text())
        body["format_version"] = 99
        body.pop("checksum")
        import hashlib

        body["checksum"] = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        path.write_text(json.dumps(body))
        with pytest.raises(DataError, match="version"):
            load_pipeline(path)

    def test_version_1_forest_refused(self):
        path = Path(__file__).parent / "data" / "rf_pipeline_v1.json"
        body = json.loads(path.read_text())
        assert body["format_version"] == 1
        assert body["payload"]["classifier"]["type"] == "rf"
        with pytest.raises(DataError, match="version"):
            load_pipeline(path)

    def test_forest_round_trip_keeps_flat_trees(self, tmp_path):
        pipeline, _, _ = _tag_pipeline(seed=1, classifier="rf")
        save_pipeline(pipeline, tmp_path / "model.bin")
        assert load_pipeline(tmp_path / "model.bin").classifier == pipeline.classifier

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_pipeline(tmp_path / "absent.bin")


class _Deadline(BaseException):
    """Raised by an alarm: not an ``Exception``, so no handler swallows it."""


def _expire(signum, frame):
    raise _Deadline("load or predict did not finish in 10 s")


# values of each JSON type that a mutation swaps in for another type's
_SWAPS = (None, True, 0, -1, 2.5, 10**6, "x", [], [0], {}, {"a": 1})


def _write_with_checksum(body: dict, path: Path) -> None:
    """Write a model body whose checksum is recomputed after an edit."""
    import hashlib

    canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body["checksum"] = hashlib.sha256(canonical).hexdigest()
    path.unlink(missing_ok=True)  # a new file: truncating one can be slow
    path.write_text(json.dumps(body), encoding="utf-8")


class TestMutatedModelPayload:
    """A model file whose payload was edited and whose checksum was then
    recomputed either loads and predicts, or is a DataError, in bounded time."""

    @pytest.fixture(scope="class")
    def bodies(self, demo_docs, resources, tmp_path_factory):
        from veritag import build_schema, extract_document, vectors_to_matrix
        from veritag.featureset import document_labels

        schema = build_schema("HC", ("N", "L", "R", "W"), resources.dictionary)
        vectors = [extract_document(d, schema, resources.dictionary, resources.tagger,
                                    resources.ad_domains) for d in demo_docs]
        X, y, _ = vectors_to_matrix(vectors)
        pipelines = {
            name: train_tag_pipeline(X, y, schema, ClassifierSettings(name=name, trees=3))
            for name in ("svm", "knn", "rf")
        }
        (texts,) = document_texts(demo_docs, ["HC"], resources.dictionary)
        pipelines["baseline-svm"] = train_baseline_pipeline(
            texts, document_labels(demo_docs), "HC", resources.dictionary, ClassifierSettings(),
            min_df=2,
        )
        path = tmp_path_factory.mktemp("models") / "model.bin"
        out = {}
        for name, pipeline in pipelines.items():
            save_pipeline(pipeline, path)
            out[name] = json.loads(path.read_text(encoding="utf-8"))
        return out, path

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_loads_and_predicts_or_is_a_data_error(self, bodies, data):
        import copy
        import signal

        models, path = bodies
        body = copy.deepcopy(models[data.draw(st.sampled_from(sorted(models)))])
        del body["checksum"]
        parent, key = body, "payload"
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
            node = parent[key]
            parent, key = node, data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))
            ))
        value = parent[key]
        mutation = data.draw(st.sampled_from(["drop", "swap", "shorten"]))
        if mutation == "drop" and parent is not body:
            del parent[key]
        elif mutation == "shorten" and isinstance(value, list) and value:
            parent[key] = value[: data.draw(st.integers(0, len(value) - 1))]
        else:
            parent[key] = data.draw(st.sampled_from(
                [v for v in _SWAPS if type(v) is not type(value)]
            ))
        _write_with_checksum(body, path)

        previous = signal.signal(signal.SIGALRM, _expire)
        signal.alarm(10)
        try:
            pipeline = load_pipeline(path)
            width = pipeline.standardizer.mean.size
            classes, _ = pipeline.predict_matrix(np.zeros((2, width)))
            if (featurizer := pipeline.featurizer) is not None:
                texts = _texts(featurizer.granularity, featurizer.dictionary)
                pipeline.predict_matrix(featurizer.transform_many(texts))
            assert set(classes.tolist()) <= {0, 1}
        except DataError:
            pass
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("model, edit", [
        ("svm", {"classifier_name": "rf"}),
        ("baseline-svm", {"classifier_name": "knn"}),
        ("svm", {"model_type": "baseline-pipeline"}),
        ("baseline-svm", {"model_type": "tag-pipeline"}),
    ], ids=["svm-named-rf", "baseline-named-knn", "tag-as-baseline", "baseline-as-tag"])
    def test_fields_that_disagree_are_refused(self, bodies, demo_corpus_dir, model, edit):
        from veritag.cli import main

        models, path = bodies
        body = json.loads(json.dumps(models[model]))
        del body["checksum"]
        if "classifier_name" in edit:
            body["payload"].update(edit)
        else:
            body.update(edit)
        _write_with_checksum(body, path)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            load_pipeline(path)
        assert main(["predict", "--model", str(path), "--corpus", str(demo_corpus_dir)]) == 2
