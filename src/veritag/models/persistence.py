"""Pipeline save/load: versioned JSON envelope with an integrity checksum.

Envelope: {format_version, model_type, schema_hash, payload, checksum},
where checksum is the SHA-256 of the canonical JSON of the other four
fields. Floats survive the JSON round trip exactly, so a reloaded pipeline
predicts bit-identically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..errors import DataError, parse_json, read_input
from ..featureset import FeatureSchema, StandardizerParams
from ..linguistics import CategoryDictionary
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


def _decode_classifier(data: dict):
    kind = data.get("type")
    if kind == "svm":
        return LinearSvmModel(
            weights=np.array(data["weights"], dtype=np.float64),
            bias=float(data["bias"]),
            cost=float(data["cost"]),
        )
    if kind == "knn":
        return KnnModel(
            k=int(data["k"]),
            points=np.array(data["points"], dtype=np.float64),
            labels=np.array(data["labels"], dtype=np.int64),
        )
    if kind == "rf":
        return RandomForestModel(
            trees=data["trees"],
            seed=int(data["seed"]),
            n_classes=int(data["n_classes"]),
            n_features=int(data["n_features"]),
        )
    raise DataError(f"unknown classifier type {kind!r} in model file")


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
        payload["schema"] = {
            "names": list(pipeline.schema.names),
            "granularity": pipeline.schema.granularity,
            "groups": list(pipeline.schema.groups),
            "pruning": pipeline.schema.pruning,
        }
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


def _decode_payload(payload: dict) -> TrainedPipeline:
    standardizer = StandardizerParams(
        mean=np.array(payload["standardizer"]["mean"], dtype=np.float64),
        stddev=np.array(payload["standardizer"]["stddev"], dtype=np.float64),
    )
    classifier = _decode_classifier(payload["classifier"])
    kind = payload["kind"]
    schema = None
    featurizer = None
    if kind == "tag":
        s = payload["schema"]
        schema = FeatureSchema(
            names=tuple(s["names"]),
            granularity=s["granularity"],
            groups=tuple(s["groups"]),
            pruning=s.get("pruning", "none"),
        )
    else:
        f = payload["featurizer"]
        dictionary = CategoryDictionary(
            categories=list(f["dictionary"]["categories"]),
            patterns=[(p, tuple(cats)) for p, cats in f["dictionary"]["patterns"]],
        )
        featurizer = BaselineFeaturizer(
            granularity=f["granularity"],
            dictionary=dictionary,
            min_df=int(f["min_df"]),
            vocabulary=tuple(f["vocabulary"]),
            idf={k: float(v) for k, v in f["idf"].items()},
            fitted=True,
        )
    return TrainedPipeline(
        kind=kind,
        classifier_name=payload["classifier_name"],
        classifier=classifier,
        standardizer=standardizer,
        schema=schema,
        featurizer=featurizer,
        metadata=dict(payload.get("metadata", {})),
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
    if body.get("model_type") not in ("tag-pipeline", "baseline-pipeline"):
        raise DataError(f"{path}: unknown model type {body.get('model_type')!r}")
    pipeline = _decode_payload(body["payload"])
    if pipeline.schema_hash() != body.get("schema_hash"):
        raise DataError(f"{path}: schema hash does not match payload")
    return pipeline
