"""Feature schema construction, extraction, standardization, and IO."""

from __future__ import annotations

import json
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritag import (
    PENN_TABLE_TAGS,
    FeatureSchema,
    FeatureVector,
    RawDocument,
    apply_paper_pruning,
    build_schema,
    extract_document,
    granularity_text,
    read_feature_csv,
    read_schema,
    standardize_apply,
    standardize_fit,
    vectors_to_matrix,
    write_feature_csv,
    write_schema,
)
from veritag.errors import ConfigError, DataError
from veritag.featureset import MARKUP_KEEP, PRUNE_BY_GRANULARITY, extract_vectors
from veritag.linguistics import READABILITY_FEATURES
from veritag.markup import Article

_PAGE = """
<html><head><title>Budget Vote Tonight</title>
<meta name="author" content="Pat Jones"></head>
<body><article>
<p>The council voted on the budget. Many members were sad.</p>
<p>A final decision arrives soon.</p>
</article></body></html>
"""


def _doc(html: str | bytes = _PAGE, doc_id: str = "d-1") -> RawDocument:
    return RawDocument(
        id=doc_id,
        url="https://news.example/a",
        site="news.example",
        label="reliable",
        year=2016,
        html=html if isinstance(html, bytes) else html.encode(),
    )


# Markup pieces, out-of-range and NUL character references, invalid UTF-8,
# NUL, BOM and U+2028, for byte soups no page generator would write.
_SOUP_PIECES = (
    b"<html>", b"<head>", b"<title>", b"</title>", b"<body>", b"<article>", b"</article>",
    b"<p>", b"</p>", b"<div>", b"</div>", b"<h1>", b"<script>", b"</script>", b"<!--", b"-->",
    b"<![CDATA[", b"]]>", b'<meta property="og:title" content="', b'<a href="http://ads.example/x">',
    b'<img src="//[::1">', b'<span class="byline">', b'">', b"&#x110000;", b"&#0;", b"&amp;",
    b"&", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\xef\xbb\xbf",
    "\u2028".encode(), b"The council voted. ", b"Sad news! ", b"1999", b" ", b"\n",
)


class TestBuildSchema:
    def test_full_schema_size_with_demo_dictionary(self, demo_dictionary):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        assert len(schema.names) == 97

    def test_group_blocks_in_order(self, demo_dictionary):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        prefixes = [n.split(".", 1)[0] for n in schema.names]
        boundary = [prefixes.index(g) for g in ("N", "L", "R", "W")]
        assert boundary == sorted(boundary)

    def test_morphological_names(self):
        schema = build_schema("H", ("N",))
        assert schema.names == tuple("N." + t for t in PENN_TABLE_TAGS)

    def test_readability_names(self):
        schema = build_schema("C", ("R",))
        assert schema.names == tuple("R." + r for r in READABILITY_FEATURES)

    def test_markup_names_constant_across_granularity(self):
        names = {g: build_schema(g, ("W",)).names for g in ("H", "C", "HC")}
        assert names["H"] == names["C"] == names["HC"]
        assert "W.ADS" in names["H"]
        assert "W.AU" in names["H"]

    def test_psychological_group_needs_dictionary(self):
        with pytest.raises(ConfigError):
            build_schema("HC", ("L",), None)

    def test_invalid_granularity(self):
        with pytest.raises(ConfigError):
            build_schema("X", ("N",))

    def test_invalid_group(self):
        with pytest.raises(ConfigError):
            build_schema("HC", ("N", "Q"))

    def test_duplicate_names_rejected(self):
        from veritag.errors import InvariantError

        with pytest.raises(InvariantError):
            FeatureSchema(names=("N.DT", "N.DT"), granularity="H", groups=("N",))


class TestGranularityText:
    def test_headline_only(self):
        article = Article(headline="Head", content="Body text.")
        assert granularity_text(article, "H") == "Head"

    def test_content_only(self):
        article = Article(headline="Head", content="Body text.")
        assert granularity_text(article, "C") == "Body text."

    def test_both_joined_by_newline(self):
        article = Article(headline="Head", content="Body text.")
        assert granularity_text(article, "HC") == "Head\nBody text."


class TestExtractDocument:
    def test_vector_matches_schema_width(self, demo_dictionary, resources):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        vector = extract_document(
            _doc(), schema, demo_dictionary, resources.tagger, resources.ad_domains
        )
        assert vector.values.shape == (97,)
        assert vector.doc_id == "d-1"
        assert vector.label == 0

    def test_author_flag_extracted(self, demo_dictionary):
        schema = build_schema("HC", ("W",))
        vector = extract_document(_doc(), schema)
        assert dict(zip(schema.names, vector.values))["W.AU"] == 1.0

    def test_morphological_counts_from_content(self):
        schema = build_schema("C", ("N",))
        values = dict(zip(schema.names, extract_document(_doc(), schema).values))
        # content: two sentences of plain prose, determiner-heavy
        assert values["N.DT"] >= 2
        assert sum(values.values()) > 0

    def test_pruned_schema_extracts_subset_consistently(self, demo_dictionary):
        full = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        pruned = apply_paper_pruning(full)
        doc = _doc()
        full_values = dict(
            zip(full.names, extract_document(doc, full, demo_dictionary).values)
        )
        pruned_values = dict(
            zip(pruned.names, extract_document(doc, pruned, demo_dictionary).values)
        )
        for name, value in pruned_values.items():
            assert value == full_values[name]

    def test_extract_document_carries_id_and_label(self):
        schema = build_schema("HC", ("R",))
        vector = extract_document(_doc(doc_id="a"), schema)
        assert (vector.doc_id, vector.label) == ("a", 0)

    def test_many_schemas_from_one_parse_equal_one_schema_each(
        self, demo_docs, drift_docs, demo_dictionary, resources, monkeypatch
    ):
        import veritag.featureset

        schemas = [
            build_schema("H", ("N", "R"), demo_dictionary),
            build_schema("C", ("L", "W"), demo_dictionary),
            build_schema("HC", ("W",), demo_dictionary),
            apply_paper_pruning(build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)),
            build_schema("C", ("N",), demo_dictionary),
        ]
        parse, parses = veritag.featureset.parse_html, []
        for doc in demo_docs[::5] + drift_docs[::5]:
            expected = [
                extract_document(doc, s, demo_dictionary, resources.tagger, resources.ad_domains)
                for s in schemas
            ]
            monkeypatch.setattr(
                veritag.featureset, "parse_html", lambda html: parses.append(html) or parse(html)
            )
            got = extract_vectors(
                doc, schemas, demo_dictionary, resources.tagger, resources.ad_domains
            )
            monkeypatch.setattr(veritag.featureset, "parse_html", parse)
            assert [v.values.tobytes() for v in got] == [v.values.tobytes() for v in expected]
            assert [(v.doc_id, v.label) for v in got] == [(v.doc_id, v.label) for v in expected]
            assert parses == [doc.html]
            parses.clear()

    def test_one_megabyte_page_with_a_large_vocabulary(self, demo_dictionary, resources):
        # tens of thousands of distinct words, capitalized openers, digits,
        # links and markup: every group must still give finite values
        rng = random.Random(11)
        letters = string.ascii_lowercase + "éß"
        sentences, size = [], 0
        while size < 1_050_000:
            words = ["".join(rng.choices(letters, k=rng.randint(2, 12)))
                     for _ in range(rng.randint(4, 25))]
            words[0] = words[0].capitalize()
            if rng.random() < 0.2:
                words.append(str(rng.randint(0, 10**6)))
            if rng.random() < 0.05:
                words.append(f'<a href="https://ads{rng.randint(0, 9)}.example/x">www.x.org/{words[1]}</a>')
            sentences.append(" ".join(words) + rng.choice(".!?"))
            size += len(sentences[-1]) + 2
        body = "".join(f"<p>{' '.join(sentences[i:i + 5])}</p>" for i in range(0, len(sentences), 5))
        html = ("<html><head><title>A Very Large Page</title></head><body><article><h1>A Very "
                "Large Page</h1>" + body + "</article></body></html>")
        assert len(html.encode()) >= 1_000_000
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        vector = extract_document(
            _doc(html), schema, demo_dictionary, resources.tagger, resources.ad_domains
        )
        values = dict(zip(schema.names, vector.values))
        assert np.all(np.isfinite(vector.values))
        assert values["R.W"] > 100_000 and values["R.LX"] > 10_000


    @given(st.lists(st.sampled_from(_SOUP_PIECES), max_size=60).map(b"".join))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_give_finite_features_or_a_data_error(
        self, demo_dictionary, resources, html
    ):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        try:
            vector = extract_document(
                _doc(html), schema, demo_dictionary, resources.tagger, resources.ad_domains
            )
        except DataError:
            return
        assert vector.values.shape == (len(schema.names),)
        assert np.all(np.isfinite(vector.values))

class TestPaperPruning:
    def test_markup_keep_set(self, demo_dictionary):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        pruned = apply_paper_pruning(schema)
        kept_w = {n.split(".", 1)[1] for n in pruned.names if n.startswith("W.")}
        assert kept_w == set(MARKUP_KEEP)

    def test_hc_listed_names_removed(self, demo_dictionary):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        pruned = apply_paper_pruning(schema)
        for entry in PRUNE_BY_GRANULARITY["HC"]:
            for name in pruned.names:
                group, base = name.split(".", 1)
                assert not (base == entry or base.startswith(entry + ".")), name

    def test_nothing_else_removed(self, demo_dictionary):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        pruned = apply_paper_pruning(schema)
        removed = set(schema.names) - set(pruned.names)
        for name in removed:
            group, base = name.split(".", 1)
            listed = any(
                base == e or base.startswith(e + ".")
                for e in PRUNE_BY_GRANULARITY["HC"]
            )
            w_dropped = group == "W" and not any(
                base == k or base.startswith(k + ".") for k in MARKUP_KEEP
            )
            assert listed or w_dropped, name

    def test_order_preserved(self, demo_dictionary):
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        pruned = apply_paper_pruning(schema)
        positions = [schema.names.index(n) for n in pruned.names]
        assert positions == sorted(positions)

    def test_absent_entry_warns_not_fails(self, caplog):
        # the H prune list names readability/markup/dictionary entries
        # that an N-only schema cannot contain
        schema = build_schema("H", ("N",))
        with caplog.at_level("WARNING", logger="veritag"):
            pruned = apply_paper_pruning(schema)
        assert "not present" in caplog.text
        assert len(pruned.names) < len(schema.names)


class TestStandardizer:
    def test_fit_needs_two_rows(self):
        with pytest.raises(DataError):
            standardize_fit(np.ones((1, 3)))

    def test_zero_variance_column_maps_to_zero(self):
        X = np.array([[1.0, 5.0], [3.0, 5.0]])
        params = standardize_fit(X)
        Z = standardize_apply(params, X)
        assert np.allclose(Z[:, 1], 0.0)

    def test_standardized_columns_are_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        X = rng.normal(5.0, 3.0, size=(50, 4))
        Z = standardize_apply(standardize_fit(X), X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


class TestFeatureCsv:
    def _vectors(self, schema):
        return [
            FeatureVector(doc_id="a", values=np.arange(len(schema.names), dtype=float), label=0),
            FeatureVector(doc_id="b", values=np.ones(len(schema.names)) * 0.125, label=1),
        ]

    def test_round_trip(self, tmp_path):
        schema = build_schema("H", ("R",))
        path = tmp_path / "features.csv"
        vectors = self._vectors(schema)
        write_feature_csv(path, schema, vectors)
        loaded, names = read_feature_csv(path, schema)
        assert names == list(schema.names)
        assert [v.doc_id for v in loaded] == ["a", "b"]
        assert [v.label for v in loaded] == [0, 1]
        for original, read_back in zip(vectors, loaded):
            assert np.allclose(original.values, read_back.values)

    def test_header_mismatch_rejected(self, tmp_path):
        schema = build_schema("H", ("R",))
        other = build_schema("H", ("N",))
        path = tmp_path / "features.csv"
        write_feature_csv(path, schema, self._vectors(schema))
        with pytest.raises(DataError):
            read_feature_csv(path, other)

    @pytest.mark.parametrize(
        "text", ["", "a,label\n", 'doc_id,H.R.W,label\nx,"' + "9" * 200_000 + '",1\n'],
        ids=["empty", "no-doc-id", "field-over-csv-limit"],
    )
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "features.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError):
            read_feature_csv(path)

    def test_width_mismatch_rejected(self, tmp_path):
        schema = build_schema("H", ("R",))
        bad = [FeatureVector(doc_id="a", values=np.ones(3))]
        with pytest.raises(DataError):
            write_feature_csv(tmp_path / "x.csv", schema, bad)


class TestSchemaIo:
    def test_round_trip(self, tmp_path, demo_dictionary):
        schema = apply_paper_pruning(
            build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        )
        path = tmp_path / "schema.json"
        write_schema(path, schema)
        assert read_schema(path) == schema

    def test_version_gate(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"format_version": 99, "names": [], "granularity": "H", "groups": []}')
        with pytest.raises(DataError, match="version"):
            read_schema(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{nope")
        with pytest.raises(DataError):
            read_schema(path)

    @pytest.mark.parametrize("payload", [
        [],
        {"format_version": 1},
        {"format_version": 1, "names": "N.NN", "granularity": "H", "groups": ["N"]},
        {"format_version": 1, "names": [1], "granularity": "H", "groups": ["N"]},
        {"format_version": 1, "names": [], "granularity": ["H"], "groups": []},
        {"format_version": 1, "names": [], "granularity": "H", "groups": [], "pruning": 0},
        {"format_version": 1, "names": ["N.NN", "N.NN"], "granularity": "H", "groups": ["N"]},
        {"format_version": 1, "names": ["W.AU"], "granularity": "H", "groups": ["N"]},
        {"format_version": 1, "names": [], "granularity": "X", "groups": []},
    ], ids=["list", "no-names", "names-string", "name-number", "granularity-list",
            "pruning-number", "duplicate-names", "name-outside-groups", "bad-granularity"])
    def test_malformed_schema_is_a_data_error(self, tmp_path, payload):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            read_schema(path)


class TestVectorsToMatrix:
    def test_stacks_in_order(self):
        vectors = [
            FeatureVector(doc_id="a", values=np.array([1.0, 2.0]), label=0),
            FeatureVector(doc_id="b", values=np.array([3.0, 4.0]), label=1),
        ]
        X, y, ids = vectors_to_matrix(vectors)
        assert X.shape == (2, 2)
        assert list(y) == [0, 1]
        assert ids == ["a", "b"]

    def test_unlabeled_gives_none(self):
        vectors = [FeatureVector(doc_id="a", values=np.array([1.0]))]
        X, y, ids = vectors_to_matrix(vectors)
        assert y is None
