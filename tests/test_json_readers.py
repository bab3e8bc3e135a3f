"""Every input-file reader reports a missing, unreadable or malformed file
as bad input.

``json.loads`` raises ``RecursionError``, not ``JSONDecodeError``, on deep
nesting, and decoding a non-UTF-8 file raises ``UnicodeDecodeError``; a
reader that let either escape would turn a bad file into an internal error
(exit 3) instead of a data or config error.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import veritag
from veritag.config import load_config
from veritag.corpus import load_manifest
from veritag.errors import ConfigError, DataError, is_number, is_number_map
from veritag.featureset import (
    FeatureSchema, StandardizerParams, read_feature_csv, read_schema, write_schema,
)
from veritag.linguistics import load_dictionary
from veritag.models import LinearSvmModel, TrainedPipeline
from veritag.models.persistence import load_pipeline, save_pipeline
from veritag.political import PoliticalFilterModel, load_topic_corpus
from veritag.resources import load_wordlist

SRC = Path(veritag.__file__).resolve().parent

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


_FILTER = {"kind": "political-filter", "format_version": 1, "classes": ["politics", "b"],
           "class_log_priors": {"politics": -0.6931471805599453, "b": -0.6931471805599453},
           "feature_log_likelihoods": {"vote": {"politics": -1.0, "b": -2.0}},
           "idf": {"vote": 1.0}, "vocabulary": ["vote"]}


@pytest.mark.parametrize(
    "load, payload",
    [
        (PoliticalFilterModel.load, {**_FILTER, "vocabulary": {"vote": 0}}),
        (PoliticalFilterModel.load, {**_FILTER, "idf": {"vote": "high"}}),
        (PoliticalFilterModel.load, {**_FILTER, "feature_log_likelihoods": {"vote": 1.0}}),
        (PoliticalFilterModel.load, {**_FILTER, "class_log_priors": {"politics": 0.0, "b": 0.0}}),
        (PoliticalFilterModel.load, {**_FILTER, "class_log_priors": {"politics": 1e308, "b": 0.0}}),
        (PoliticalFilterModel.load, {**_FILTER, "vocabulary": ["vote", "vote"]}),
        (PoliticalFilterModel.load, {**_FILTER, "idf": {"vote": math.nan}}),
        (PoliticalFilterModel.load, {**_FILTER, "idf": {"vote": True}}),
        (PoliticalFilterModel.load, {**_FILTER, "idf": {"vote": 1.0, "tax": 1.0}}),
        (PoliticalFilterModel.load,
         {**_FILTER, "feature_log_likelihoods": {"vote": {"politics": -1.0}}}),
        (PoliticalFilterModel.load, {**_FILTER, "classes": ["politics", "b", "c"]}),
        (PoliticalFilterModel.load, {**_FILTER, "classes": []}),
        (PoliticalFilterModel.load, {**_FILTER, "classes": ["politics", "b", "politics"]}),
        (PoliticalFilterModel.load, {
            **_FILTER, "idf": {"vote": 1.0, "tax": 1.0}, "feature_log_likelihoods": {
                "vote": {"politics": -1.0, "b": -2.0}, "tax": {"politics": -2.0, "b": -1.0},
            },
        }),
        (PoliticalFilterModel.load, {**_FILTER, "vocabulary": ["vote", "tax"]}),
        (PoliticalFilterModel.load, {**_FILTER, "feature_log_likelihoods": {
            "vote": {"politics": -1.0, "b": -2.0}, "zzz": {"politics": -1.0, "b": -2.0},
        }}),
        (PoliticalFilterModel.load, {
            **_FILTER, "feature_log_likelihoods": {"vote": {"politics": -1.0, "b": -2.0, "c": 5.0}},
        }),
    ],
    ids=[
        "filter-vocabulary", "filter-idf", "filter-likelihoods", "filter-priors-sum",
        "filter-prior-overflow", "filter-duplicate-term", "filter-idf-nan", "filter-idf-bool",
        "filter-term-without-likelihoods", "filter-term-lacking-a-class",
        "filter-class-without-prior", "filter-no-classes", "filter-repeated-class",
        "filter-vocabulary-lacks-a-term", "filter-vocabulary-extra-term",
        "filter-likelihood-extra-term", "filter-likelihood-extra-class",
    ],
)
def test_wrong_shape_is_bad_input(load, payload, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError):
        load(path)


@pytest.mark.parametrize("load, payload", [(PoliticalFilterModel.load, _FILTER)])
def test_well_formed_payload_loads(load, payload, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    load(path)


@pytest.mark.parametrize("value", [0, -2, 1.5, -1e308, 2**1000])
def test_a_finite_number_is_a_number(value):
    assert is_number(value) and is_number_map({"x": value})


@pytest.mark.parametrize(
    "value", [True, False, math.nan, math.inf, -math.inf, 10**400, "1", None, [1.0]],
    ids=["true", "false", "nan", "inf", "-inf", "10**400", "string", "none", "list"],
)
def test_bools_non_finite_and_non_numbers_are_refused(value):
    assert not is_number(value)
    assert not is_number_map({"x": 1.0, "y": value})


def test_jsonl_splits_only_at_line_ends(tmp_path):
    # str.splitlines would also split inside these strings
    texts = ["vote tax", "a\x85b", "c\x1cd\x1ee"]
    lines = [json.dumps({"text": t, "topic": "p"}, ensure_ascii=False) for t in texts]
    path = _file(tmp_path, "\r\n".join(lines).encode("utf-8"), "topics.jsonl")
    assert load_topic_corpus(path) == [(t, "p") for t in texts]


_SCHEMA = FeatureSchema(names=("R.FK",), granularity="HC", groups=("R",), pruning="none")


def _write_model(path):
    save_pipeline(TrainedPipeline(
        classifier_name="svm",
        classifier=LinearSvmModel(weights=np.ones(1), bias=0.5, cost=0.1),
        standardizer=StandardizerParams(mean=np.zeros(1), stddev=np.ones(1)), schema=_SCHEMA,
    ), path)


# format -> (write a well-formed file, load one, the fields it must have);
# a model's fields are those of its payload, behind the checksum
VERSIONED = {
    "model": (_write_model, load_pipeline, (
        "kind", "classifier_name", "classifier", "standardizer", "schema", "metadata",
    )),
    "schema": (lambda path: write_schema(path, _SCHEMA), read_schema, (
        "format_version", "names", "granularity", "groups",
    )),
    "filter model": (lambda path: path.write_text(json.dumps(_FILTER)), PoliticalFilterModel.load, (
        "kind", "format_version", "classes", "class_log_priors", "feature_log_likelihoods",
        "idf", "vocabulary",
    )),
}


@pytest.mark.parametrize("fmt", sorted(VERSIONED))
def test_each_versioned_format_loads_when_well_formed(fmt, tmp_path):
    write, load, _ = VERSIONED[fmt]
    write(tmp_path / "input.json")
    load(tmp_path / "input.json")


@pytest.mark.parametrize("fmt, key", [
    (fmt, key) for fmt, (_, _, keys) in sorted(VERSIONED.items()) for key in keys
])
def test_every_field_is_named(fmt, key, tmp_path):
    write, load, _ = VERSIONED[fmt]
    path = tmp_path / "input.json"
    write(path)
    body = json.loads(path.read_text(encoding="utf-8"))
    if fmt == "model":
        del body["payload"][key]
        del body["checksum"]
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
        body["checksum"] = hashlib.sha256(canonical).hexdigest()
    else:
        del body[key]
    path.write_text(json.dumps(body), encoding="utf-8")
    with pytest.raises(DataError) as refused:
        load(path)
    field = f"payload.{key}" if fmt == "model" else key
    assert str(refused.value) == f"{path}: {fmt} field {field} is missing or malformed"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _format_version_reads(tree):
    """The lines of each "format_version" string that is not a key of a
    dict display, where a file is written."""
    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "format_version"
        and id(node) not in keys
    )


class TestOneFieldChecker:
    """No reader can grow its own envelope or field checks: a format version
    is read by ``errors.read_format`` and by the model loader alone, whose
    envelope checks the checksum first, and ``errors.Fields`` is the one
    field checker."""

    def test_format_version_is_read_only_by_the_shared_envelope_and_the_model_loader(self):
        readers = [module for module, tree in _modules() if _format_version_reads(tree)]
        assert readers == ["errors.py", "models/persistence.py"]

    def test_no_module_keeps_its_own_field_checker(self):
        checkers = [
            (module, node.name)
            for module, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and re.fullmatch("_?Fields", node.name)
        ]
        assert checkers == [("errors.py", "Fields")]

    def test_the_scan_sees_a_read_and_skips_a_write(self):
        tree = ast.parse('v = payload.get("format_version")\nw = {"format_version": 1}\n')
        assert _format_version_reads(tree) == [1]
