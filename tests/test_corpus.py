"""Corpus manifests, balanced sampling, and the topic filter."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritag import (
    PoliticalFilterModel,
    RawDocument,
    apply_political_filter,
    balanced_sample,
    extract_article,
    granularity_text,
    load_manifest,
    load_topic_corpus,
    parse_html,
    tokenize,
    train_political_filter,
)
from veritag.errors import ConfigError, DataError


class TestLoadManifest:
    def test_demo_corpus_loads(self, demo_corpus_dir):
        manifest = load_manifest(demo_corpus_dir)
        assert len(manifest.entries) == 40
        assert set(manifest.site_labels.values()) == {"reliable", "unreliable"}
        years = {e.year for e in manifest.entries}
        assert years == {2016, 2017}

    def test_documents_load_html(self, demo_corpus_dir):
        manifest = load_manifest(demo_corpus_dir)
        doc = manifest.load_document(manifest.entries[0])
        assert doc.html.startswith(b"<")

    def _write_corpus(self, tmp_path, records, site_labels):
        (tmp_path / "site_labels.json").write_text(json.dumps(site_labels))
        lines = [json.dumps(r) for r in records]
        (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        return tmp_path

    def _record(self, **overrides):
        record = {
            "id": "x-1",
            "url": "https://site.example/a",
            "site": "site.example",
            "label": "reliable",
            "year": 2016,
            "html_path": "pages/x-1.html",
        }
        record.update(overrides)
        return record

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_manifest(tmp_path)

    def test_duplicate_id(self, tmp_path):
        root = self._write_corpus(
            tmp_path,
            [self._record(), self._record()],
            {"site.example": "reliable"},
        )
        with pytest.raises(DataError, match="duplicate id"):
            load_manifest(root)

    def test_invalid_label(self, tmp_path):
        root = self._write_corpus(
            tmp_path, [self._record(label="fake")], {"site.example": "reliable"}
        )
        with pytest.raises(DataError, match="label"):
            load_manifest(root)

    def test_label_conflicts_with_site(self, tmp_path):
        root = self._write_corpus(
            tmp_path, [self._record(label="unreliable")], {"site.example": "reliable"}
        )
        with pytest.raises(DataError, match="conflicts"):
            load_manifest(root)

    def test_unknown_site(self, tmp_path):
        root = self._write_corpus(
            tmp_path, [self._record(site="other.example")],
            {"site.example": "reliable", "other.example": "reliable"},
        )
        # known site passes; now drop it from the labels file
        root = self._write_corpus(
            tmp_path, [self._record(site="other.example")], {"site.example": "reliable"}
        )
        with pytest.raises(DataError, match="not in"):
            load_manifest(root)

    def test_uppercase_site_rejected(self, tmp_path):
        root = self._write_corpus(
            tmp_path, [self._record(site="Site.Example")],
            {"Site.Example": "reliable"},
        )
        with pytest.raises(DataError, match="site"):
            load_manifest(root)

    def test_year_out_of_range(self, tmp_path):
        root = self._write_corpus(
            tmp_path, [self._record(year=1800)], {"site.example": "reliable"}
        )
        with pytest.raises(DataError, match="year"):
            load_manifest(root)

    def test_year_range_parameter(self, tmp_path):
        root = self._write_corpus(
            tmp_path, [self._record(year=2016)], {"site.example": "reliable"}
        )
        with pytest.raises(DataError, match="year"):
            load_manifest(root, year_range=(2017, 2020))

    def test_error_names_line_number(self, tmp_path):
        root = self._write_corpus(
            tmp_path,
            [self._record(), self._record(id="x-2", year="nope")],
            {"site.example": "reliable"},
        )
        with pytest.raises(DataError, match="manifest.jsonl:2"):
            load_manifest(root)

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_html_path_outside_the_corpus_refused(self, tmp_path, where):
        outside = tmp_path / "outside.html"
        outside.write_bytes(b"<p>outside</p>")
        root = tmp_path / "corpus"
        root.mkdir()
        html_path = str(outside) if where == "absolute" else "../outside.html"
        self._write_corpus(
            root, [self._record(), self._record(id="x-2", html_path=html_path)],
            {"site.example": "reliable"},
        )
        with pytest.raises(DataError, match=r"manifest\.jsonl:2: html_path .* inside the corpus"):
            load_manifest(root)

    def test_nested_html_path_loads(self, tmp_path):
        (tmp_path / "pages" / "sub").mkdir(parents=True)
        (tmp_path / "pages" / "sub" / "x.html").write_bytes(b"<p>x</p>")
        root = self._write_corpus(
            tmp_path, [self._record(html_path="pages/sub/x.html")], {"site.example": "reliable"}
        )
        manifest = load_manifest(root)
        assert manifest.load_document(manifest.entries[0]).html == b"<p>x</p>"

    @pytest.mark.parametrize("link", ["page", "pages-directory"])
    def test_symlinked_page_inside_the_corpus_loads(self, tmp_path, link):
        """A link inside the corpus directory is its owner's choice, such
        as a sampled corpus linking ``pages`` to its source's; the
        ``html_path`` text itself still may not leave the corpus."""
        source = tmp_path / "source" / "pages"
        source.mkdir(parents=True)
        (source / "x.html").write_bytes(b"<p>x</p>")
        root = tmp_path / "corpus"
        if link == "page":
            (root / "pages").mkdir(parents=True)
            (root / "pages" / "x.html").symlink_to(source / "x.html")
        else:
            root.mkdir()
            (root / "pages").symlink_to(source, target_is_directory=True)
        labels = {"site.example": "reliable"}
        self._write_corpus(root, [self._record(html_path="pages/x.html")], labels)
        manifest = load_manifest(root)
        assert manifest.load_document(manifest.entries[0]).html == b"<p>x</p>"
        self._write_corpus(root, [self._record(html_path="../source/pages/x.html")], labels)
        with pytest.raises(DataError, match=r"manifest\.jsonl:1: html_path .* inside the corpus"):
            load_manifest(root)

    def test_missing_html_file_fails_at_load(self, tmp_path):
        root = self._write_corpus(
            tmp_path, [self._record()], {"site.example": "reliable"}
        )
        manifest = load_manifest(root)
        with pytest.raises(DataError, match="cannot read"):
            manifest.load_document(manifest.entries[0])


def _docs(site_years):
    docs = []
    for i, (site, year) in enumerate(site_years):
        docs.append(
            RawDocument(
                id=f"d-{i:03d}",
                url=f"https://{site}/p{i}",
                site=site,
                label="reliable",
                year=year,
                html=b"<html></html>",
            )
        )
    return docs


class TestBalancedSample:
    def test_cap_enforced_per_site_year(self):
        docs = _docs([("a.example", 2016)] * 10 + [("b.example", 2016)] * 3)
        kept = balanced_sample(docs, cap_per_site_year=5, seed=0)
        by_group = {}
        for d in kept:
            by_group.setdefault((d.site, d.year), []).append(d)
        assert len(by_group[("a.example", 2016)]) == 5
        assert len(by_group[("b.example", 2016)]) == 3

    def test_deterministic(self):
        docs = _docs([("a.example", 2016)] * 20)
        a = [d.id for d in balanced_sample(docs, 7, seed=5)]
        b = [d.id for d in balanced_sample(docs, 7, seed=5)]
        assert a == b

    def test_seed_changes_selection(self):
        docs = _docs([("a.example", 2016)] * 30)
        a = {d.id for d in balanced_sample(docs, 5, seed=1)}
        b = {d.id for d in balanced_sample(docs, 5, seed=2)}
        assert a != b

    def test_input_order_irrelevant(self):
        docs = _docs([("a.example", 2016)] * 12 + [("b.example", 2017)] * 12)
        forward = balanced_sample(docs, 4, seed=3)
        backward = balanced_sample(list(reversed(docs)), 4, seed=3)
        assert [d.id for d in forward] == [d.id for d in backward]

    def test_output_sorted(self):
        docs = _docs([("b.example", 2017), ("a.example", 2016), ("a.example", 2017)])
        kept = balanced_sample(docs, 5, seed=0)
        keys = [(d.site, d.year, d.id) for d in kept]
        assert keys == sorted(keys)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ConfigError):
            balanced_sample(_docs([("a.example", 2016)]), 0, seed=0)

    @given(st.integers(1, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sample_is_subset(self, cap, seed):
        docs = _docs([("a.example", 2016)] * 14 + [("b.example", 2017)] * 6)
        kept = balanced_sample(docs, cap, seed)
        all_ids = {d.id for d in docs}
        assert {d.id for d in kept} <= all_ids
        assert len({d.id for d in kept}) == len(kept)


class TestPoliticalFilter:
    def _model(self):
        pairs = [
            ("the senate passed the vote on the budget bill", "politics"),
            ("the governor signed the election law", "politics"),
            ("congress debated the tax reform vote", "politics"),
            ("the actress walked the red carpet premiere", "celebrity"),
            ("the singer released a new album tour", "celebrity"),
            ("fans greeted the star at the awards gala", "celebrity"),
        ]
        return train_political_filter(pairs)

    def test_frozen_score(self):
        model = self._model()
        decision = apply_political_filter(model, "senate vote")
        assert decision.score == pytest.approx(0.9969595711705566, abs=1e-12)
        assert decision.is_political

    def test_threshold_flips_decision(self):
        model = self._model()
        keep = apply_political_filter(model, "senate vote", threshold=0.999)
        assert not keep.is_political

    def test_celebrity_text_scores_low(self):
        model = self._model()
        decision = apply_political_filter(model, "album premiere carpet")
        assert decision.score < 0.5

    def test_single_topic_rejected(self):
        with pytest.raises(DataError):
            train_political_filter([("a b c", "politics"), ("d e", "politics")])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_political_filter([])

    def test_topic_fixture_round_trip(self, topic_fixture_path):
        pairs = load_topic_corpus(topic_fixture_path)
        assert len(pairs) == 10
        model = train_political_filter(pairs)
        assert "politics" in model.classes

    def test_the_census_gives_the_hand_counted_model_and_scores(
        self, topic_fixture_path, demo_docs, drift_docs, tmp_path
    ):
        pairs = load_topic_corpus(topic_fixture_path)
        model = train_political_filter(pairs)
        reference = _reference_filter(pairs)
        model.save(tmp_path / "model.json")
        reference.save(tmp_path / "reference.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
        texts = [
            granularity_text(extract_article(parse_html(doc.html)), "HC")
            for doc in demo_docs + drift_docs
        ]
        assert [apply_political_filter(model, text).score for text in texts] == [
            _reference_score(reference, text) for text in texts
        ]


def _hand_counts(text: str) -> dict[str, int]:
    """Lowercased term counts, in first-occurrence order, one token at a time."""
    counts: dict[str, int] = {}
    for t in [t.lower() for t in tokenize(text).tokens]:
        counts[t] = counts.get(t, 0) + 1
    return counts


def _reference_filter(pairs) -> PoliticalFilterModel:
    """The topic model fitted from hand-counted terms, summed in the same
    order as ``train_political_filter``."""
    classes = tuple(sorted({topic for _, topic in pairs}))
    docs = [(_hand_counts(text), topic) for text, topic in pairs]
    df: dict[str, int] = {}
    for counts, _ in docs:
        for t in counts:
            df[t] = df.get(t, 0) + 1
    vocabulary = tuple(sorted(df))
    idf = {t: math.log((1 + len(docs)) / (1 + df[t])) + 1.0 for t in vocabulary}
    mass: dict[str, dict[str, float]] = {c: {} for c in classes}
    for counts, topic in docs:
        for t, n in counts.items():
            mass[topic][t] = mass[topic].get(t, 0.0) + (1.0 + math.log(n)) * idf[t]
    likelihoods: dict[str, dict[str, float]] = {t: {} for t in vocabulary}
    for c in classes:
        denom = sum(mass[c].values()) + len(vocabulary)
        for t in vocabulary:
            likelihoods[t][c] = math.log((mass[c].get(t, 0.0) + 1.0) / denom)
    topics = [topic for _, topic in pairs]
    return PoliticalFilterModel(
        classes=classes,
        class_log_priors={c: math.log(topics.count(c) / len(docs)) for c in classes},
        feature_log_likelihoods=likelihoods,
        idf=idf,
        vocabulary=vocabulary,
    )


def _reference_score(model: PoliticalFilterModel, text: str) -> float:
    """The posterior of ``politics`` from hand-counted terms."""
    scores = dict(model.class_log_priors)
    for t, n in _hand_counts(text).items():
        if t in model.idf:
            weight = (1.0 + math.log(n)) * model.idf[t]
            for c in model.classes:
                scores[c] += weight * model.feature_log_likelihoods[t][c]
    top = max(scores.values())
    exps = {c: math.exp(s - top) for c, s in scores.items()}
    return exps["politics"] / sum(exps.values())
