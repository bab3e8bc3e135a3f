"""Every JSON reader reports a file nested too deep to decode as bad input.

``json.loads`` raises ``RecursionError``, not ``JSONDecodeError``, on deep
nesting; a reader that let it escape would turn a corrupt file into an
internal error (exit 3) instead of a data or config error.
"""

from __future__ import annotations

import json

import pytest

from veritag.config import load_config
from veritag.corpus import PoliticalFilterModel, load_manifest, load_topic_corpus
from veritag.errors import ConfigError, DataError
from veritag.featureset import read_schema
from veritag.linguistics.tagger import PerceptronTagger
from veritag.models.persistence import load_pipeline

DEEP = "[" * 100_000


def _file(tmp_path, name="deep.json"):
    path = tmp_path / name
    path.write_text(DEEP, encoding="utf-8")
    return path


def _corpus(tmp_path, labels: str, manifest: str):
    (tmp_path / "site_labels.json").write_text(labels, encoding="utf-8")
    (tmp_path / "manifest.jsonl").write_text(manifest, encoding="utf-8")
    return tmp_path


READERS = {
    "model": (lambda tmp: load_pipeline(_file(tmp)), DataError),
    "config": (lambda tmp: load_config(_file(tmp)), ConfigError),
    "schema": (lambda tmp: read_schema(_file(tmp)), DataError),
    "filter model": (lambda tmp: PoliticalFilterModel.load(_file(tmp)), DataError),
    "tagger weights": (lambda tmp: PerceptronTagger.load(_file(tmp)), DataError),
    "topic corpus": (lambda tmp: load_topic_corpus(_file(tmp, "topics.jsonl")), DataError),
    "site labels": (
        lambda tmp: load_manifest(_corpus(tmp, DEEP, "")), DataError,
    ),
    "manifest line": (
        lambda tmp: load_manifest(
            _corpus(tmp, json.dumps({"a.example": "reliable"}), DEEP + "\n")
        ),
        DataError,
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_deep_nesting_is_bad_input(reader, tmp_path):
    read, error = READERS[reader]
    with pytest.raises(error):
        read(tmp_path)
