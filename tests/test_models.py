"""Classifiers, the training pipelines, and model persistence."""

from __future__ import annotations

import json
import math
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
        predictions = [svm_predict(model, x)[0] for x in X]
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
        model = svm_train(X, y)
        cls, margin = svm_predict(model, X[0])
        assert (cls == 1) == (margin > 0.0)

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
            svm_train(np.ones((4, 2)), np.zeros(4, dtype=int))

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            svm_train(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_nonpositive_cost_rejected(self):
        X, y = _separated_set(n=20)
        with pytest.raises(DataError):
            svm_train(X, y, C=0.0)

    def test_wrong_width_prediction_rejected(self):
        X, y = _separated_set(n=20)
        model = svm_train(X, y)
        with pytest.raises(DataError):
            svm_predict(model, np.ones(5))


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
        assert all(knn_predict(model, x)[0] == c for x, c in zip(X, y))

    def test_vote_tie_breaks_by_summed_distance(self):
        # class 1 point is nearer, so the 1-1 vote tie goes to class 1
        X = np.array([[0.0], [1.9]])
        y = np.array([0, 1])
        model = knn_train(X, y, k=2)
        assert knn_predict(model, np.array([1.0]))[0] == 1

    def test_exact_tie_takes_lower_class_id(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        model = knn_train(X, y, k=2)
        cls, score = knn_predict(model, np.array([1.0]))
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
        for x in queries:
            assert knn_predict(a, x) == knn_predict(b, x)

    def test_k_bounds(self):
        X = np.ones((3, 1))
        y = np.array([0, 1, 0])
        with pytest.raises(DataError):
            knn_train(X, y, k=0)
        with pytest.raises(DataError):
            knn_train(X, y, k=4)


class TestRandomForest:
    def test_xor_generalizes(self):
        X, y = _xor_set()
        model = rf_train(X[:300], y[:300], n_trees=100, seed=0)
        held_out = [rf_predict(model, x)[0] for x in X[300:]]
        accuracy = float(np.mean(np.array(held_out) == y[300:]))
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
        cls, score = rf_predict(model, X[0])
        assert cls in (0, 1)
        assert 0.0 < score <= 1.0

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            rf_train(np.ones((5, 2)), np.zeros(5, dtype=int), n_trees=3, seed=0)


def _tag_pipeline(seed=0, classifier="svm"):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(
        names=("R.W", "R.STC", "R.SY"), granularity="HC", groups=("R",)
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

    def test_matrix_schema_mismatch_rejected(self):
        schema = FeatureSchema(names=("R.W",), granularity="HC", groups=("R",))
        settings = ClassifierSettings(name="svm", c=1.0, k=3, trees=5, seed=0)
        with pytest.raises(DataError):
            train_tag_pipeline(np.ones((4, 2)), np.array([0, 1, 0, 1]), schema, settings)


_ARTICLES = [
    Article(headline="Budget approved", content="The council approved the budget. Taxes fall."),
    Article(headline="Budget rejected", content="The council rejected the budget. Taxes rise."),
    Article(headline="Storm warning", content="A storm arrives tonight. Schools close early."),
    Article(headline="Storm passes", content="The storm passed the coast. Schools reopen."),
]


class TestBaselinePipeline:
    def test_trains_and_predicts(self, demo_dictionary):
        y = np.array([0, 0, 1, 1])
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        pipeline = train_baseline_pipeline(
            _ARTICLES, y, "HC", demo_dictionary, settings, min_df=1
        )
        assert pipeline.kind == "baseline"
        X = pipeline.featurizer.transform_many(_ARTICLES)
        predicted, _ = pipeline.predict_matrix(X)
        assert predicted.shape == (4,)

    def test_training_tokenizes_each_article_once(self, demo_dictionary, monkeypatch):
        import veritag.models.baseline as baseline

        tokenize, calls = baseline.tokenize, []
        monkeypatch.setattr(baseline, "tokenize", lambda text: calls.append(text) or tokenize(text))
        y = np.array([0, 0, 1, 1])
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        train_baseline_pipeline(_ARTICLES, y, "HC", demo_dictionary, settings, min_df=1)
        assert len(calls) == len(_ARTICLES)

    def test_training_fits_through_fit(self, demo_dictionary, monkeypatch):
        from veritag.models.baseline import BaselineFeaturizer

        fit, fits = BaselineFeaturizer.fit, []
        monkeypatch.setattr(
            BaselineFeaturizer, "fit", lambda self, articles: fits.append(self) or fit(self, articles)
        )
        y = np.array([0, 0, 1, 1])
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        pipeline = train_baseline_pipeline(_ARTICLES, y, "HC", demo_dictionary, settings, min_df=1)
        assert fits == [pipeline.featurizer]

    def test_fit_transform_equals_fit_then_transform(self, demo_dictionary):
        from veritag.models.baseline import BaselineFeaturizer

        one = BaselineFeaturizer(granularity="HC", dictionary=demo_dictionary, min_df=1)
        two = BaselineFeaturizer(granularity="HC", dictionary=demo_dictionary, min_df=1)
        X = one.fit_transform(_ARTICLES)
        assert one == two.fit(_ARTICLES)
        assert X.tobytes() == two.transform_many(_ARTICLES).tobytes()

    def test_min_df_filters_vocabulary(self, demo_dictionary):
        from veritag.models.baseline import BaselineFeaturizer

        featurizer = BaselineFeaturizer(
            granularity="HC", dictionary=demo_dictionary, min_df=2
        ).fit(_ARTICLES)
        # "budget" appears in two documents, "tonight" in one
        assert "budget" in featurizer.vocabulary
        assert "tonight" not in featurizer.vocabulary

    def test_idf_formula(self, demo_dictionary):
        from veritag.models.baseline import BaselineFeaturizer

        featurizer = BaselineFeaturizer(
            granularity="HC", dictionary=demo_dictionary, min_df=1
        ).fit(_ARTICLES)
        # "budget" document frequency is 2 of 4
        assert featurizer.idf["budget"] == pytest.approx(np.log(5.0 / 3.0) + 1.0)

    def test_unfitted_transform_rejected(self, demo_dictionary):
        from veritag.models.baseline import BaselineFeaturizer

        featurizer = BaselineFeaturizer(granularity="HC", dictionary=demo_dictionary)
        with pytest.raises(ConfigError):
            featurizer.transform(_ARTICLES[0])

    def test_empty_corpus_rejected(self, demo_dictionary):
        settings = ClassifierSettings(name="svm", c=1.0, k=1, trees=5, seed=0)
        with pytest.raises(DataError):
            train_baseline_pipeline([], np.array([]), "HC", demo_dictionary, settings)


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
        readability = readability_features(doc).as_features()
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
        from veritag.models.baseline import BaselineFeaturizer, baseline_texts

        for docs in (demo_docs, drift_docs):
            articles = [extract_article(parse_html(d.html)) for d in docs]
            train = articles[::2]
            vocabulary, idf, X = _reference_baseline(
                train, articles, granularity, demo_dictionary, min_df
            )
            texts = baseline_texts(articles, granularity, demo_dictionary)
            for fit_on, rows_of in ((train, articles), (texts[::2], texts)):
                featurizer = BaselineFeaturizer(granularity, demo_dictionary, min_df=min_df)
                featurizer.fit(fit_on)
                assert featurizer.vocabulary == vocabulary
                assert featurizer.idf == idf
                assert featurizer.transform_many(rows_of).tobytes() == X.tobytes()
                assert featurizer.transform(rows_of[1]).tobytes() == X[1].tobytes()
                assert featurizer.fit_transform(fit_on).tobytes() == X[::2].tobytes()

    def test_texts_share_one_string_per_word(self, demo_docs, demo_dictionary):
        from veritag.markup import extract_article, parse_html
        from veritag.models.baseline import baseline_texts

        articles = [extract_article(parse_html(d.html)) for d in demo_docs]
        tokens = [t for text in baseline_texts(articles, "HC", demo_dictionary) for t in text.tokens]
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
        pipeline = train_baseline_pipeline(
            _ARTICLES, y, "HC", demo_dictionary, settings, min_df=1
        )
        path = tmp_path / "model.bin"
        save_pipeline(pipeline, path)
        loaded = load_pipeline(path)
        assert loaded.featurizer.vocabulary == pipeline.featurizer.vocabulary
        X = loaded.featurizer.transform_many(_ARTICLES)
        assert loaded.predict_matrix(X)[0].shape == (4,)

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
