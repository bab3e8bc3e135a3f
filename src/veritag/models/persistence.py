"""Pipeline save/load: versioned JSON envelope with an integrity checksum.

Envelope: {format_version, model_type, schema_hash, payload, checksum},
where checksum is the SHA-256 of the canonical JSON of the other four
fields. Floats survive the JSON round trip exactly, so a reloaded pipeline
predicts bit-identically. The payload is checked field by field as it is
decoded: a file whose checksum holds but whose payload is malformed is a
DataError naming the file, and every tree of a loaded forest ends.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..config import GRANULARITIES
from ..errors import (
    DataError, Fields, is_int, is_number, is_number_map, is_str_list, parse_json, read_input,
)
from ..featureset import StandardizerParams, decode_schema, encode_schema
from ..linguistics import READABILITY_FEATURES, CategoryDictionary
from .baseline import BaselineFeaturizer
from .forest import RandomForestModel
from .neighbors import KnnModel
from .pipeline import TrainedPipeline
from .svm import LinearSvmModel

MODEL_FORMAT_VERSION = 2


def _encode_classifier(model) -> dict:
    if isinstance(model, LinearSvmModel):
        return {
            "type": "svm",
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "cost": model.cost,
        }
    if isinstance(model, KnnModel):
        return {
            "type": "knn",
            "k": model.k,
            "points": model.points.tolist(),
            "labels": model.labels.tolist(),
        }
    if isinstance(model, RandomForestModel):
        return {
            "type": "rf",
            "trees": model.trees,
            "seed": model.seed,
            "n_classes": model.n_classes,
            "n_features": model.n_features,
        }
    raise DataError(f"cannot serialize model type {type(model).__name__}")


def _encode_payload(pipeline: TrainedPipeline) -> dict:
    payload = {
        "kind": pipeline.kind,
        "classifier_name": pipeline.classifier_name,
        "classifier": _encode_classifier(pipeline.classifier),
        "standardizer": {
            "mean": pipeline.standardizer.mean.tolist(),
            "stddev": pipeline.standardizer.stddev.tolist(),
        },
        "metadata": pipeline.metadata,
    }
    if pipeline.kind == "tag":
        assert pipeline.schema is not None
        payload["schema"] = encode_schema(pipeline.schema)
    else:
        f = pipeline.featurizer
        assert f is not None
        payload["featurizer"] = {
            "granularity": f.granularity,
            "min_df": f.min_df,
            "vocabulary": list(f.vocabulary),
            "idf": f.idf,
            "dictionary": {
                "categories": list(f.dictionary.categories),
                "patterns": [[p, list(cats)] for p, cats in f.dictionary.patterns],
            },
        }
    return payload


def _is_numbers(value: object) -> bool:
    """A non-empty JSON array of finite numbers."""
    return isinstance(value, list) and bool(value) and all(map(is_number, value))


def _is_pattern(entry: object) -> bool:
    """A dictionary pattern: [text, [category index, ...]]."""
    return (
        isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
        and isinstance(entry[1], list) and all(is_int(c, 0) for c in entry[1])
    )


def _is_tree(tree: object, n_features: int, n_classes: int) -> bool:
    """Whether a loaded tree has the layout ``_grow`` gives, so that every
    prediction walks down to a leaf: each split reads one of ``n_features``
    columns at a numeric threshold and numbers both children after itself,
    and each leaf (feature -1) holds ``n_classes`` counts."""
    keys = ("feature", "threshold", "left", "right", "counts", "decrease")
    if not (isinstance(tree, dict) and sorted(tree) == sorted(keys)):
        return False
    columns = [tree[k] for k in keys]
    n = len(columns[0]) if isinstance(columns[0], list) else 0
    if n == 0 or not all(isinstance(c, list) and len(c) == n for c in columns):
        return False
    for node, (f, threshold, left, right, counts, _) in enumerate(zip(*columns)):
        if f == -1:
            ok = _is_numbers(counts) and len(counts) == n_classes
        else:
            ok = (
                is_int(f, 0, n_features) and is_number(threshold)
                and is_int(left, node + 1, n) and is_int(right, node + 1, n)
            )
        if not ok:
            return False
    return True


def _decode_classifier(field: Fields, width: int):
    """The classifier of a model whose rows hold ``width`` features."""
    kind = field("type", lambda v: v in ("svm", "knn", "rf"))
    if kind == "svm":
        weights = field("weights", lambda v: _is_numbers(v) and len(v) == width)
        return LinearSvmModel(
            weights=np.array(weights, dtype=np.float64),
            bias=float(field("bias", is_number)),
            cost=float(field("cost", is_number)),
        )
    if kind == "knn":
        points = field("points", lambda v: isinstance(v, list) and bool(v) and all(
            _is_numbers(p) and len(p) == width for p in v
        ))
        labels = field("labels", lambda v: isinstance(v, list) and len(v) == len(points)
                       and all(is_int(c, 0, 2) for c in v))
        return KnnModel(
            k=field("k", lambda v: is_int(v, 1, len(points) + 1)),
            points=np.array(points, dtype=np.float64),
            labels=np.array(labels, dtype=np.int64),
        )
    n_classes = field("n_classes", lambda v: is_int(v, 2, 3))
    return RandomForestModel(
        trees=field("trees", lambda v: isinstance(v, list) and bool(v) and all(
            _is_tree(tree, width, n_classes) for tree in v
        )),
        seed=field("seed", is_int),
        n_classes=n_classes,
        n_features=field("n_features", lambda v: v == width and is_int(v)),
    )


def _decode_featurizer(field: Fields, width: int) -> BaselineFeaturizer:
    entries = field.object("dictionary")
    patterns = entries("patterns", lambda v: isinstance(v, list) and all(map(_is_pattern, v)))
    try:
        dictionary = CategoryDictionary(
            categories=list(entries("categories", is_str_list)),
            patterns=[(p, tuple(cats)) for p, cats in patterns],
        )
    except DataError as exc:
        raise DataError(f"{field.path}: model dictionary: {exc}") from exc
    vocabulary = field("vocabulary", lambda v: is_str_list(v) and len(set(v)) == len(v))
    idf = field("idf", lambda v: is_number_map(v) and v.keys() == set(vocabulary))
    if len(vocabulary) + len(dictionary.categories) + len(READABILITY_FEATURES) != width:
        raise DataError(f"{field.path}: model featurizer rows are not {width} features wide")
    return BaselineFeaturizer(
        granularity=field("granularity", lambda v: v in GRANULARITIES),
        dictionary=dictionary,
        min_df=field("min_df", lambda v: is_int(v, 1)),
        vocabulary=tuple(vocabulary),
        idf={term: float(v) for term, v in idf.items()},
        fitted=True,
    )


def _decode_payload(field: Fields) -> TrainedPipeline:
    kind = field("kind", lambda v: v in ("tag", "baseline"))
    standardizer = field.object("standardizer")
    mean = standardizer("mean", _is_numbers)
    stddev = standardizer("stddev", lambda v: _is_numbers(v) and len(v) == len(mean))
    width = len(mean)
    schema = featurizer = None
    if kind == "tag":
        schema = decode_schema(field("schema", lambda v: isinstance(v, dict)), field.path)
        if len(schema.names) != width:
            raise DataError(f"{field.path}: model schema names {len(schema.names)} "
                            f"features, its standardizer {width}")
    else:
        featurizer = _decode_featurizer(field.object("featurizer"), width)
    classifier = field.object("classifier")
    return TrainedPipeline(
        classifier_name=field("classifier_name", lambda v: v == classifier("type")),
        classifier=_decode_classifier(classifier, width),
        standardizer=StandardizerParams(
            mean=np.array(mean, dtype=np.float64), stddev=np.array(stddev, dtype=np.float64)
        ),
        schema=schema,
        featurizer=featurizer,
        metadata=dict(field("metadata", lambda v: isinstance(v, dict))),
    )


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_pipeline(pipeline: TrainedPipeline, path: str | Path) -> None:
    body = {
        "format_version": MODEL_FORMAT_VERSION,
        "model_type": f"{pipeline.kind}-pipeline",
        "schema_hash": pipeline.schema_hash(),
        "payload": _encode_payload(pipeline),
    }
    body["checksum"] = hashlib.sha256(_canonical(body)).hexdigest()
    Path(path).write_text(json.dumps(body), encoding="utf-8")


def load_pipeline(path: str | Path) -> TrainedPipeline:
    body = parse_json(read_input(path, "model file"), f"corrupt model file {path}")
    if not isinstance(body, dict) or "checksum" not in body:
        raise DataError(f"corrupt model file {path}: missing checksum")
    recorded = body.pop("checksum")
    if hashlib.sha256(_canonical(body)).hexdigest() != recorded:
        raise DataError(f"corrupt model file {path}: checksum mismatch")
    version = body.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"{path}: model format version {version!r} is not supported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    field = Fields(body, path, "model")
    pipeline = _decode_payload(field.object("payload"))
    field("model_type", lambda v: v == f"{pipeline.kind}-pipeline")
    if pipeline.schema_hash() != body.get("schema_hash"):
        raise DataError(f"{path}: schema hash does not match payload")
    return pipeline
