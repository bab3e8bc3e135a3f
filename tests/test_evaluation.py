"""Evaluation protocols: folds, the three protocols, term reports, CSV output."""

from __future__ import annotations

import collections
import dataclasses
import json
import sys

import numpy as np
import pytest

import veritag.evaluation
import veritag.featureset
import veritag.models.baseline
from veritag import (
    LABEL_TO_CLASS,
    ConfigError,
    DataError,
    EvalReport,
    InvariantError,
    PipelineSpec,
    RawDocument,
    accuracy,
    apply_paper_pruning,
    build_schema,
    cross_domain_eval,
    extract_article,
    extract_document,
    feature_grid_eval,
    kfold_cv,
    parse_html,
    stratified_folds,
    temporal_eval,
    term_frequency_report,
    train_baseline_pipeline,
    train_tag_pipeline,
)
from veritag.evaluation import (
    TemporalReport,
    TermFrequencyReport,
    write_cross_domain_csv,
    write_cv_report_csv,
    write_grid_csv,
    write_temporal_report_csv,
    write_term_report_csv,
)
from veritag.models.baseline import baseline_text


def _doc(i, year, title, body, label="reliable", site="steady-gazette.example"):
    html = f"<html><head><title>{title}</title></head><body><p>{body}</p></body></html>"
    return RawDocument(
        id=f"c-{i:04d}",
        url=f"https://{site}/x{i}",
        site=site,
        label=label,
        year=year,
        html=html.encode(),
    )


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_half(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            accuracy([0, 1], [0, 1, 1])


class TestStratifiedFolds:
    def test_partition_covers_everything(self):
        y = np.array([0] * 7 + [1] * 5)
        folds = stratified_folds(y, k=3, seed=0)
        assert folds.shape == y.shape
        assert set(np.unique(folds)) <= set(range(3))
        # every row lands in exactly one fold by construction; all folds used
        assert set(np.unique(folds)) == set(range(3))

    def test_per_class_balance_within_one(self):
        y = np.array([0] * 7 + [1] * 5)
        folds = stratified_folds(y, k=3, seed=0)
        for c in (0, 1):
            counts = [np.sum((folds == f) & (y == c)) for f in range(3)]
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        y = np.array([0, 1] * 10)
        a = stratified_folds(y, k=4, seed=7)
        b = stratified_folds(y, k=4, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_assignment(self):
        y = np.array([0, 1] * 10)
        a = stratified_folds(y, k=4, seed=0)
        b = stratified_folds(y, k=4, seed=1)
        assert not np.array_equal(a, b)

    def test_too_few_folds_rejected(self):
        with pytest.raises(ConfigError):
            stratified_folds(np.array([0, 1]), k=1, seed=0)

    def test_more_folds_than_rows_rejected(self):
        with pytest.raises(DataError):
            stratified_folds(np.array([0, 1, 0]), k=4, seed=0)


class TestEvalReportInvariants:
    def test_accuracy_outside_unit_interval_rejected(self):
        with pytest.raises(InvariantError):
            EvalReport((1.5,), {})


class TestKfoldCv:
    def test_demo_corpus_separates_perfectly(self, demo_docs, resources):
        report = kfold_cv(demo_docs, PipelineSpec(), resources, k=5, seed=0)
        assert len(report.fold_accuracies) == 5
        assert report.mean_accuracy == 1.0

    def test_config_echo_covers_run_and_pipeline(self, demo_docs, resources):
        report = kfold_cv(demo_docs, PipelineSpec(), resources, k=5, seed=0)
        assert sorted(report.config) == [
            "classifier", "granularity", "groups", "k", "kind",
            "min_df", "pruning", "seed",
        ]
        assert report.config["k"] == 5
        assert report.config["classifier"]["name"] == "svm"

    def test_single_class_corpus_rejected(self, resources):
        docs = [
            _doc(i, 2016, "quiet day", "The committee met and reviewed the figures.")
            for i in range(5)
        ]
        with pytest.raises(DataError, match="single class"):
            kfold_cv(docs, PipelineSpec(), resources, k=2, seed=0)


class TestTemporalEval:
    def test_drift_corpus_layout_signal_survives_topic_swap(self, drift_docs, resources):
        report = temporal_eval(drift_docs, PipelineSpec(), resources)
        assert report.years == (2016, 2017)
        assert report.cells == {(2016, 2017): 1.0, (2017, 2016): 1.0}
        assert report.train_means == {2016: 1.0, 2017: 1.0}

    def test_baseline_inverts_across_the_swap(self, drift_docs, resources):
        report = temporal_eval(drift_docs, PipelineSpec(kind="baseline"), resources)
        # term evidence points at the wrong class once the vocabulary swaps
        assert report.cells[(2016, 2017)] < 0.5
        assert report.cells[(2017, 2016)] < 0.5

    def test_single_class_year_skipped_with_warning(self, resources, caplog):
        docs = [
            _doc(1, 2016, "quiet year", "The committee met on Monday and reviewed the report."),
            _doc(2, 2016, "still quiet", "Officials reviewed the figures in detail for weeks."),
            _doc(3, 2017, "good news", "The council approved the budget after a public review."),
            _doc(4, 2017, "steady path", "Analysts believe the published results are certain."),
            _doc(5, 2017, "WOW scandal", "You will NOT believe this! SHARE before it gets DELETED!",
                 label="unreliable", site="flash-wire.example"),
            _doc(6, 2017, "HUGE panic", "OMG. Nobody is safe and the PANIC is spreading fast!",
                 label="unreliable", site="flash-wire.example"),
        ]
        with caplog.at_level("WARNING", logger="veritag"):
            report = temporal_eval(docs, PipelineSpec(), resources)
        assert "2016 has a single class; temporal row skipped" in caplog.text
        assert set(report.cells) == {(2017, 2016)}
        assert set(report.train_means) == {2017}

    def test_single_year_rejected(self, resources):
        docs = [
            _doc(1, 2016, "one", "The committee met."),
            _doc(2, 2016, "two", "SHARE this now!", label="unreliable",
                 site="flash-wire.example"),
        ]
        with pytest.raises(DataError, match="at least 2 distinct years"):
            temporal_eval(docs, PipelineSpec(), resources)


class TestCrossDomain:
    def test_all_three_classifiers_reported_in_order(self, demo_docs, resources):
        train = [d for d in demo_docs if d.year == 2016]
        test = [d for d in demo_docs if d.year == 2017]
        results = cross_domain_eval(train, test, PipelineSpec(), resources)
        assert list(results) == ["svm", "knn", "rf"]
        assert results == {"svm": 1.0, "knn": 1.0, "rf": 1.0}

    def test_classifier_subset_honored(self, demo_docs, resources):
        train = [d for d in demo_docs if d.year == 2016]
        test = [d for d in demo_docs if d.year == 2017]
        results = cross_domain_eval(
            train, test, PipelineSpec(), resources, classifiers=("knn",)
        )
        assert list(results) == ["knn"]


class TestFeatureGrid:
    def test_cells_cover_groups_times_granularities(self, demo_docs, resources):
        subset = demo_docs[:8] + demo_docs[-8:]
        reports = feature_grid_eval(
            subset, PipelineSpec(), resources, [("R",), ("N", "R")], k=2, seed=0
        )
        cells = [(r.config["groups"], r.config["granularity"]) for r in reports]
        assert cells == [
            (("R",), "H"), (("R",), "C"), (("R",), "HC"),
            (("N", "R"), "H"), (("N", "R"), "C"), (("N", "R"), "HC"),
        ]
        for report in reports:
            assert len(report.fold_accuracies) == 2
            assert 0.0 <= report.mean_accuracy <= 1.0


def _mixed(demo_docs, drift_docs):
    """Half of each bundled corpus: pages the protocols do not all get right."""
    return demo_docs[:10] + drift_docs[:12] + demo_docs[-10:] + drift_docs[-12:]


def _count_parses(monkeypatch):
    """Count parse_html calls wherever the protocols look it up."""
    calls = []
    for module in (veritag.featureset, veritag.evaluation, veritag.models.baseline):
        original = module.parse_html

        def counted(html, _original=original):
            calls.append(html)
            return _original(html)

        monkeypatch.setattr(module, "parse_html", counted)
    return calls


def _count_calls(monkeypatch, *names):
    """Count calls of veritag functions, wherever a module binds them, and
    of methods given as Class.method."""
    counts = collections.Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in names:
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(veritag, cls_name)
            monkeypatch.setattr(cls, attr, counting(name, getattr(cls, attr)))
            continue
        original = getattr(veritag.linguistics, name)
        wrapped = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("veritag") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    return counts


class TestExtractOnce:
    @pytest.mark.parametrize("pruning", ["none", "paper"])
    def test_grid_equals_kfold_cv_cell_by_cell(
        self, demo_docs, drift_docs, resources, pruning
    ):
        docs = _mixed(demo_docs, drift_docs)
        spec = PipelineSpec(pruning=pruning)
        group_sets = [("R",), ("L", "W"), ("N",), ("N", "L", "R", "W")]
        reports = feature_grid_eval(docs, spec, resources, group_sets, k=3, seed=1)
        expected = [
            kfold_cv(
                docs,
                dataclasses.replace(spec, groups=groups, granularity=granularity),
                resources,
                k=3,
                seed=1,
            )
            for groups in group_sets
            for granularity in ("H", "C", "HC")
        ]
        assert [(r.fold_accuracies, r.mean_accuracy, r.config) for r in reports] == [
            (r.fold_accuracies, r.mean_accuracy, r.config) for r in expected
        ]
        assert len({r.fold_accuracies for r in reports}) > 1

    def test_baseline_grid_equals_kfold_cv_cell_by_cell(
        self, demo_docs, drift_docs, resources, monkeypatch
    ):
        docs = _mixed(demo_docs, drift_docs)
        spec = PipelineSpec(kind="baseline")
        group_sets = [("R",), ("L", "W"), ("N", "L", "R", "W")]
        expected = [
            kfold_cv(
                docs,
                dataclasses.replace(spec, groups=groups, granularity=granularity),
                resources,
                k=3,
                seed=1,
            )
            for groups in group_sets
            for granularity in ("H", "C", "HC")
        ]
        fits = []
        train = veritag.evaluation.train_baseline_pipeline
        monkeypatch.setattr(
            veritag.evaluation, "train_baseline_pipeline",
            lambda *args, **kwargs: fits.append(args[2]) or train(*args, **kwargs),
        )
        # one process, so every fit reaches the counter
        reports = feature_grid_eval(docs, spec, resources, group_sets, k=3, seed=1, jobs=1)
        assert reports == expected
        assert sorted(fits) == sorted(["H", "C", "HC"] * 3)  # one 3-fold cv per granularity

    @pytest.mark.parametrize(
        "spec",
        [PipelineSpec(pruning="paper"), PipelineSpec(kind="baseline", granularity="C")],
    )
    def test_cross_domain_equals_a_fresh_fit_per_classifier(
        self, demo_docs, drift_docs, resources, spec
    ):
        train = demo_docs[:20] + drift_docs[:24]
        test = demo_docs[20:] + drift_docs[24:]
        y_train = np.array([LABEL_TO_CLASS[d.label] for d in train])
        y_test = np.array([LABEL_TO_CLASS[d.label] for d in test])
        expected = {}
        for name in ("svm", "knn", "rf"):
            settings = dataclasses.replace(spec.classifier, name=name)
            if spec.kind == "tag":
                schema = apply_paper_pruning(
                    build_schema(spec.granularity, spec.groups, resources.dictionary)
                )
                X = np.stack(
                    [
                        extract_document(
                            d, schema, resources.dictionary, resources.tagger,
                            resources.ad_domains,
                        ).values
                        for d in train
                    ]
                )
                pipeline = train_tag_pipeline(X, y_train, schema, settings)
            else:
                texts = [
                    baseline_text(
                        extract_article(parse_html(d.html)), spec.granularity,
                        resources.dictionary,
                    )
                    for d in train
                ]
                pipeline = train_baseline_pipeline(
                    texts, y_train, spec.granularity, resources.dictionary, settings
                )
            predictions, _ = pipeline.predict_documents(
                test, resources.dictionary, resources.tagger, resources.ad_domains
            )
            expected[name] = accuracy(predictions, y_test)
        assert cross_domain_eval(train, test, spec, resources) == expected

    @pytest.mark.parametrize("kind", ["tag", "baseline"])
    def test_grid_parses_each_page_at_most_once_per_granularity(
        self, demo_docs, resources, monkeypatch, kind
    ):
        """Tighter than the name: one page-major pass parses each page
        exactly once for all three granularities."""
        docs = demo_docs[:6] + demo_docs[-6:]
        calls = _count_parses(monkeypatch)
        feature_grid_eval(  # one process, so every parse reaches the counter
            docs, PipelineSpec(kind=kind), resources,
            [("N",), ("L",), ("R",), ("W",), ("N", "L", "R", "W")], k=2, jobs=1,
        )
        assert sorted(calls) == sorted(d.html for d in docs)

    def test_grid_refuses_a_cell_without_groups(self, demo_docs, resources, monkeypatch):
        calls = _count_parses(monkeypatch)
        with pytest.raises(ConfigError, match="at least one feature group"):
            feature_grid_eval(demo_docs, PipelineSpec(), resources, [("R",), ()], k=2)
        assert calls == []

    def test_grid_refuses_a_cell_with_a_repeated_group(self, demo_docs, resources, monkeypatch):
        calls = _count_parses(monkeypatch)
        with pytest.raises(ConfigError, match="twice"):
            feature_grid_eval(demo_docs, PipelineSpec(), resources, [("R",), ("N", "R", "N")], k=2)
        assert calls == []

    @pytest.mark.parametrize("protocol", ["cv", "temporal"])
    def test_baseline_featurizes_each_article_once(
        self, demo_docs, drift_docs, resources, monkeypatch, protocol
    ):
        docs = _mixed(demo_docs, drift_docs)
        calls = _count_calls(monkeypatch, "tokenize", "dictionary_scores", "readability_features")
        fits = _count_calls(monkeypatch, "BaselineFeaturizer.fit")
        spec = PipelineSpec(kind="baseline")
        # one process, so every fit reaches the counter
        if protocol == "cv":
            kfold_cv(docs, spec, resources, k=3, seed=1, jobs=1)
            assert fits["BaselineFeaturizer.fit"] == 3
        else:
            report = temporal_eval(docs, spec, resources, jobs=1)
            assert fits["BaselineFeaturizer.fit"] == len(report.train_means) > 1
        assert calls == {
            "tokenize": len(docs), "dictionary_scores": len(docs),
            "readability_features": len(docs),
        }

    @pytest.mark.parametrize("kind", ["tag", "baseline"])
    def test_cross_domain_parses_each_page_once(
        self, demo_docs, resources, monkeypatch, kind
    ):
        train = [d for d in demo_docs if d.year == 2016]
        test = [d for d in demo_docs if d.year == 2017]
        calls = _count_parses(monkeypatch)
        # one process, so every parse reaches the counter
        cross_domain_eval(train, test, PipelineSpec(kind=kind), resources, jobs=1)
        assert sorted(calls) == sorted(d.html for d in train + test)


@pytest.mark.parametrize("classifier", ["svm", "knn", "rf", "baseline-svm"])
def test_reports_do_not_depend_on_jobs(demo_docs, drift_docs, resources, classifier):
    docs = _mixed(demo_docs, drift_docs)
    if classifier == "baseline-svm":
        spec = PipelineSpec(kind="baseline")
    else:
        spec = PipelineSpec(classifier=dataclasses.replace(
            PipelineSpec().classifier, name=classifier, trees=7
        ))
    runs = [
        (
            kfold_cv(docs, spec, resources, k=3, seed=1, jobs=jobs),
            temporal_eval(docs, spec, resources, jobs=jobs),
            feature_grid_eval(
                docs, spec, resources, [("R",), ("N", "L", "R", "W")], k=3, seed=1, jobs=jobs
            ),
            cross_domain_eval(docs[::2], docs[1::2], spec, resources, jobs=jobs),
        )
        for jobs in (1, 2, 64)  # 64 is capped at the usable CPUs
    ]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    # the grid holds different numbers, so a swapped fold or cell shows
    assert len({a for r in runs[0][2] for a in r.fold_accuracies}) > 1


class TestTermFrequencyReport:
    def test_counts_and_lexicographic_tie_break(self):
        docs = [_doc(1, 2016, "alpha", "alpha beta. beta alpha gamma.")]
        report = term_frequency_report(docs, n_top=4)
        # count desc, then term asc among the count-1 bigrams
        assert report.per_year[2016] == [
            ("alpha", 3), ("beta", 2), ("alpha alpha", 1), ("alpha beta", 1),
        ]

    def test_grams_containing_stopwords_dropped(self):
        docs = [_doc(1, 2017, "alpha", "The alpha won the game.")]
        report = term_frequency_report(docs, n_top=10)
        assert report.per_year[2017] == [
            ("alpha", 2), ("alpha won", 1), ("game", 1), ("won", 1),
        ]

    def test_years_reported_separately(self):
        docs = [
            _doc(1, 2016, "alpha", "alpha beta."),
            _doc(2, 2017, "gamma", "gamma delta."),
        ]
        report = term_frequency_report(docs, n_top=10)
        assert set(report.per_year) == {2016, 2017}
        assert all(t[0] != "gamma" for t in report.per_year[2016])

    def test_top_n_truncates(self):
        docs = [_doc(1, 2016, "alpha", "alpha beta. beta alpha gamma.")]
        report = term_frequency_report(docs, n_top=2)
        assert report.per_year[2016] == [("alpha", 3), ("beta", 2)]

    def test_custom_stopword_list(self):
        docs = [_doc(1, 2016, "alpha", "alpha beta.")]
        report = term_frequency_report(
            docs, n_top=10, stopword_list=frozenset({"alpha"})
        )
        assert report.per_year[2016] == [("beta", 1)]


class TestCsvWriters:
    def test_cv_csv_bytes(self, tmp_path):
        report = EvalReport((1.0, 0.5), {"k": 2, "seed": 0})
        path = tmp_path / "cv.csv"
        write_cv_report_csv(path, report)
        assert path.read_bytes() == (
            b'# config: {"k": 2, "seed": 0}\n'
            b"fold,accuracy\r\n"
            b"1,1\r\n"
            b"2,0.5\r\n"
            b"mean,0.75\r\n"
        )

    def test_temporal_csv_bytes(self, tmp_path):
        report = TemporalReport(
            years=(2016, 2017),
            cells={(2017, 2016): 1.0, (2016, 2017): 0.25},
            train_means={2017: 1.0, 2016: 0.25},
            config={"a": 1},
        )
        path = tmp_path / "temporal.csv"
        write_temporal_report_csv(path, report)
        assert path.read_bytes() == (
            b'# config: {"a": 1}\n'
            b"train_year,test_year,accuracy\r\n"
            b"2016,2017,0.25\r\n"
            b"2017,2016,1\r\n"
            b"2016,mean,0.25\r\n"
            b"2017,mean,1\r\n"
        )

    def test_cross_domain_csv_bytes(self, tmp_path):
        path = tmp_path / "cross.csv"
        write_cross_domain_csv(path, {"svm": 0.7, "knn": 0.6}, {"seed": 1})
        assert path.read_bytes() == (
            b'# config: {"seed": 1}\n'
            b"classifier,accuracy\r\n"
            b"svm,0.7\r\n"
            b"knn,0.6\r\n"
        )

    def test_grid_csv_derives_shared_config(self, tmp_path):
        r1 = EvalReport(
            (1.0, 0.5),
            {"k": 2, "seed": 0, "kind": "tag", "groups": ("N", "R"), "granularity": "H"},
        )
        r2 = EvalReport(
            (1.0, 1.0),
            {"k": 2, "seed": 0, "kind": "tag", "groups": ("R",), "granularity": "HC"},
        )
        path = tmp_path / "grid.csv"
        write_grid_csv(path, [r1, r2])
        assert path.read_bytes() == (
            b'# config: {"k": 2, "kind": "tag", "seed": 0}\n'
            b"groups,granularity,fold_1,fold_2,mean\r\n"
            b"N-R,H,1,0.5,0.75\r\n"
            b"R,HC,1,1,1\r\n"
        )

    def test_term_report_csv_bytes(self, tmp_path):
        report = TermFrequencyReport(per_year={2016: [("alpha", 3), ("beta", 2)]})
        path = tmp_path / "terms.csv"
        write_term_report_csv(path, report, {"top": 2, "seed": 0})
        assert path.read_bytes() == (
            b'# config: {"seed": 0, "top": 2}\n'
            b"year,rank,term,count\r\n"
            b"2016,1,alpha,3\r\n"
            b"2016,2,beta,2\r\n"
        )

    def test_config_comment_parses_back_as_json(self, tmp_path):
        report = EvalReport((1.0,), {"k": 1, "seed": 3})
        path = tmp_path / "cv.csv"
        write_cv_report_csv(path, report)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("# config: ")
        assert json.loads(first[len("# config: "):]) == {"k": 1, "seed": 3}

    def test_rewrite_is_byte_identical(self, tmp_path, demo_docs, resources):
        report = kfold_cv(demo_docs[:8] + demo_docs[-8:], PipelineSpec(),
                          resources, k=2, seed=0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cv_report_csv(a, report)
        write_cv_report_csv(b, report)
        assert a.read_bytes() == b.read_bytes()
