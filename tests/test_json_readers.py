"""Every input-file reader reports a missing, unreadable or malformed file
as bad input.

``json.loads`` raises ``RecursionError``, not ``JSONDecodeError``, on deep
nesting, and decoding a non-UTF-8 file raises ``UnicodeDecodeError``; a
reader that let either escape would turn a bad file into an internal error
(exit 3) instead of a data or config error.
"""

from __future__ import annotations

import json

import pytest

from veritag.config import load_config
from veritag.corpus import PoliticalFilterModel, load_manifest, load_topic_corpus
from veritag.errors import ConfigError, DataError
from veritag.featureset import read_feature_csv, read_schema
from veritag.linguistics import load_dictionary
from veritag.linguistics.tagger import PerceptronTagger
from veritag.models.persistence import load_pipeline
from veritag.resources import load_wordlist

DEEP = b"[" * 100_000
NOT_UTF8 = b'{"id": "\xff"}\n'
LABELS = json.dumps({"a.example": "reliable"}).encode()


def _file(tmp_path, content, name="input.json"):
    """A file holding ``content``, or a path to no file when it is None."""
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    return path


def _corpus(tmp_path, labels, manifest):
    _file(tmp_path, labels, "site_labels.json")
    _file(tmp_path, manifest, "manifest.jsonl")
    return tmp_path


# reader name -> (read a file of the given bytes, error for bad bytes,
# error for a missing file)
JSON_READERS = {
    "model": (lambda tmp, b: load_pipeline(_file(tmp, b)), DataError, DataError),
    "config": (lambda tmp, b: load_config(_file(tmp, b)), ConfigError, ConfigError),
    "schema": (lambda tmp, b: read_schema(_file(tmp, b)), DataError, DataError),
    "filter model": (
        lambda tmp, b: PoliticalFilterModel.load(_file(tmp, b)), DataError, DataError,
    ),
    "tagger weights": (
        lambda tmp, b: PerceptronTagger.load(_file(tmp, b)), DataError, ConfigError,
    ),
    "topic corpus": (
        lambda tmp, b: load_topic_corpus(_file(tmp, b, "topics.jsonl")), DataError, DataError,
    ),
    "site labels": (lambda tmp, b: load_manifest(_corpus(tmp, b, b"")), DataError, DataError),
    "manifest line": (
        lambda tmp, b: load_manifest(_corpus(tmp, LABELS, b and b"\n" + b + b"\n")),
        DataError, DataError,
    ),
}
READERS = {
    **JSON_READERS,
    "feature csv": (
        lambda tmp, b: read_feature_csv(_file(tmp, b, "features.csv")), DataError, DataError,
    ),
    "dictionary": (
        lambda tmp, b: load_dictionary(_file(tmp, b, "words.dic")), DataError, DataError,
    ),
    "word list": (
        lambda tmp, b: load_wordlist(path=_file(tmp, b, "ad_domains.txt")), DataError, DataError,
    ),
}


@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_deep_nesting_is_bad_input(reader, tmp_path):
    read, error, _ = JSON_READERS[reader]
    with pytest.raises(error):
        read(tmp_path, DEEP)


@pytest.mark.parametrize("content", [NOT_UTF8, None], ids=["not-utf8", "missing"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_unreadable_file_is_bad_input(reader, content, tmp_path):
    read, error, missing_error = READERS[reader]
    with pytest.raises(missing_error if content is None else error):
        read(tmp_path, content)


_TAGGER = {"kind": "perceptron-tagger", "format_version": 1, "classes": ["NN"],
           "known_words": ["cat"], "weights": {"bias": {"NN": 1.0}}}
_FILTER = {"kind": "political-filter", "format_version": 1, "classes": ["a", "b"],
           "class_log_priors": {"a": -0.6931471805599453, "b": -0.6931471805599453},
           "feature_log_likelihoods": {"vote": {"a": -1.0, "b": -2.0}},
           "idf": {"vote": 1.0}, "vocabulary": ["vote"]}


@pytest.mark.parametrize(
    "load, payload",
    [
        (PerceptronTagger.load, {**_TAGGER, "classes": "NN"}),
        (PerceptronTagger.load, {**_TAGGER, "known_words": None}),
        (PerceptronTagger.load, {**_TAGGER, "weights": [1.0]}),
        (PerceptronTagger.load, {**_TAGGER, "weights": {"bias": {"NN": "heavy"}}}),
        (PoliticalFilterModel.load, {**_FILTER, "vocabulary": {"vote": 0}}),
        (PoliticalFilterModel.load, {**_FILTER, "idf": {"vote": "high"}}),
        (PoliticalFilterModel.load, {**_FILTER, "feature_log_likelihoods": {"vote": 1.0}}),
        (PoliticalFilterModel.load, {**_FILTER, "class_log_priors": {"a": 0.0, "b": 0.0}}),
        (PoliticalFilterModel.load, {**_FILTER, "class_log_priors": {"a": 1e308}}),
        (PoliticalFilterModel.load, {**_FILTER, "vocabulary": ["vote", "vote"]}),
    ],
    ids=[
        "tagger-classes", "tagger-known-words", "tagger-weights", "tagger-weight-value",
        "filter-vocabulary", "filter-idf", "filter-likelihoods", "filter-priors-sum",
        "filter-prior-overflow", "filter-duplicate-term",
    ],
)
def test_wrong_shape_is_bad_input(load, payload, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError):
        load(path)


@pytest.mark.parametrize("load, payload", [(PerceptronTagger.load, _TAGGER),
                                           (PoliticalFilterModel.load, _FILTER)])
def test_well_formed_payload_loads(load, payload, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    load(path)


def test_jsonl_splits_only_at_line_ends(tmp_path):
    # str.splitlines would also split inside these strings
    texts = ["vote tax", "a\x85b", "c\x1cd\x1ee"]
    lines = [json.dumps({"text": t, "topic": "p"}, ensure_ascii=False) for t in texts]
    path = _file(tmp_path, "\r\n".join(lines).encode("utf-8"), "topics.jsonl")
    assert load_topic_corpus(path) == [(t, "p") for t in texts]
