"""Per-document TAG feature vectors: schema, extraction, pruning, scaling.

Feature names follow ``group.name[.subcategory]`` with group ∈ {N, L, R, W}.
Granularity picks the text the linguistic groups see (headline, content, or
both joined by a newline); the web-markup group always sees the whole page.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import LABEL_TO_CLASS, RawDocument
from .errors import ConfigError, DataError, InvariantError
from .linguistics import (
    PENN_TABLE_TAGS,
    READABILITY_FEATURES,
    CategoryDictionary,
    Tagger,
    dictionary_scores,
    morphological_features,
    readability_features,
    tokenize,
)
from .markup import (
    Article,
    WebMarkupFeatures,
    extract_article,
    markup_features,
    parse_html,
)

MARKUP_GROUP_ORDER = WebMarkupFeatures.GROUP_ORDER

log = logging.getLogger("veritag")

GRANULARITIES = ("H", "C", "HC")
GROUPS = ("N", "L", "R", "W")

# Published pruning lists keyed by granularity, plus the retained
# web-markup set. An entry matches a feature when the name minus its group
# prefix equals the entry or extends it with a dotted subcategory.
PRUNE_BY_GRANULARITY: dict[str, tuple[str, ...]] = {
    "H": ("FOW", "IN", "JJR", "PRP$", "TO", "VBD", "VBG", "VBZ", "WP$",
          "MSI", "CW", "TT", "FW.semicolon", "BP.ingest", "RL.time",
          "PC.home"),
    "C": ("DT", "PDT", "RBR", "RP", "OG", "UH"),
    "HC": ("DT", "JJS", "PDT", "POS", "RBR", "RBS", "UH", "WRB"),
}
MARKUP_KEEP = ("IT", "AVT", "AU", "LKT", "ADS", "ST", "BT")

CSV_FLOAT_FORMAT = "%.9g"

SCHEMA_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FeatureSchema:
    names: tuple[str, ...]
    granularity: str
    groups: tuple[str, ...]
    pruning: str = "none"

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"invalid granularity {self.granularity!r}")
        bad = [g for g in self.groups if g not in GROUPS]
        if bad:
            raise ConfigError(f"invalid feature groups {bad}")
        if len(set(self.names)) != len(self.names):
            raise InvariantError("duplicate feature names in schema")
        for name in self.names:
            group = name.split(".", 1)[0]
            if group not in self.groups:
                raise InvariantError(
                    f"feature {name!r} outside schema groups {self.groups}"
                )
        if not (
            self.pruning in ("none", "paper")
            or self.pruning.startswith("computed:")
        ):
            raise ConfigError(f"invalid pruning mode {self.pruning!r}")

    def index_of(self, name: str) -> int:
        return self.names.index(name)


def build_schema(
    granularity: str,
    groups: Sequence[str],
    dictionary: CategoryDictionary | None = None,
) -> FeatureSchema:
    """Full (unpruned) schema for the requested groups, in N, L, R, W order."""
    ordered = tuple(g for g in GROUPS if g in groups)
    if set(groups) - set(ordered):
        raise ConfigError(f"invalid feature groups {sorted(set(groups) - set(GROUPS))}")
    if "L" in ordered and dictionary is None:
        raise ConfigError("psychological group requires a category dictionary")
    names: list[str] = []
    for g in ordered:
        if g == "N":
            names.extend("N." + tag for tag in PENN_TABLE_TAGS)
        elif g == "L":
            assert dictionary is not None
            names.extend("L." + c for c in dictionary.categories)
        elif g == "R":
            names.extend("R." + r for r in READABILITY_FEATURES)
        else:
            names.extend("W." + m for m in MARKUP_GROUP_ORDER)
            names.append("W.ADS")
            names.append("W.AU")
    return FeatureSchema(names=tuple(names), granularity=granularity, groups=ordered)


@dataclass(frozen=True)
class FeatureVector:
    doc_id: str
    values: np.ndarray
    label: int | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvariantError("feature values must be a flat vector")
        if not np.all(np.isfinite(values)):
            raise InvariantError(f"non-finite feature value for doc {self.doc_id!r}")
        object.__setattr__(self, "values", values)


def granularity_text(article: Article, granularity: str) -> str:
    if granularity == "H":
        return article.headline
    if granularity == "C":
        return article.content
    return article.headline + "\n" + article.content


def extract_document(
    doc: RawDocument,
    schema: FeatureSchema,
    dictionary: CategoryDictionary | None = None,
    tagger: Tagger | None = None,
    ad_domains: frozenset[str] | None = None,
) -> FeatureVector:
    """Parse a raw page and compute the schema's features for it. Only the
    schema's granularity and groups are computed."""
    if "L" in schema.groups and dictionary is None:
        raise ConfigError("psychological group requires a category dictionary")

    tree = parse_html(doc.html)
    by_name: dict[str, float] = {}
    if any(g in schema.groups for g in ("N", "L", "R")):
        text = granularity_text(extract_article(tree), schema.granularity)
        tokenized = tokenize(text)
        if "N" in schema.groups:
            counts = morphological_features(
                tokenized.tokens, tagger, sentences=tokenized.sentences
            )
            for tag, count in counts.items():
                by_name["N." + tag] = float(count)
        if "L" in schema.groups:
            assert dictionary is not None
            for cat, pct in dictionary_scores(tokenized.tokens, dictionary).items():
                by_name["L." + cat] = pct
        if "R" in schema.groups:
            for rname, val in readability_features(tokenized).as_features().items():
                by_name["R." + rname] = val
    if "W" in schema.groups:
        markup = markup_features(tree, ad_domains)
        for gname, count in markup.tag_group_counts.items():
            by_name["W." + gname] = float(count)
        by_name["W.ADS"] = float(markup.ads_count)
        by_name["W.AU"] = float(markup.author_present)

    try:
        values = np.array([by_name[name] for name in schema.names], dtype=np.float64)
    except KeyError as exc:
        raise InvariantError(f"schema name {exc} not produced by extraction") from exc
    return FeatureVector(doc_id=doc.id, values=values, label=LABEL_TO_CLASS[doc.label])


def _matches(base_name: str, entry: str) -> bool:
    return base_name == entry or base_name.startswith(entry + ".")


def apply_paper_pruning(schema: FeatureSchema) -> FeatureSchema:
    """Drop the published per-granularity feature names and restrict the
    web-markup group to its published retained set. Listed names absent
    from the schema are skipped with a warning."""
    entries = PRUNE_BY_GRANULARITY[schema.granularity]
    hit: dict[str, bool] = {e: False for e in entries}
    kept: list[str] = []
    for name in schema.names:
        group, base = name.split(".", 1)
        drop = False
        for e in entries:
            if _matches(base, e):
                hit[e] = True
                drop = True
        if group == "W" and not any(_matches(base, k) for k in MARKUP_KEEP):
            drop = True
        if not drop:
            kept.append(name)
    for e, seen in hit.items():
        if not seen:
            log.warning(
                "pruning entry %r not present in %s schema; skipped",
                e, schema.granularity,
            )
    return FeatureSchema(
        names=tuple(kept),
        granularity=schema.granularity,
        groups=schema.groups,
        pruning="paper",
    )


def prune_to_names(schema: FeatureSchema, names: Sequence[str], mode: str) -> FeatureSchema:
    """Restrict the schema to the given names, preserving schema order."""
    keep = set(names)
    unknown = keep - set(schema.names)
    if unknown:
        raise DataError(f"names not in schema: {sorted(unknown)}")
    return FeatureSchema(
        names=tuple(n for n in schema.names if n in keep),
        granularity=schema.granularity,
        groups=schema.groups,
        pruning=mode,
    )


@dataclass(frozen=True)
class StandardizerParams:
    mean: np.ndarray
    stddev: np.ndarray

    @property
    def zero_variance(self) -> np.ndarray:
        return self.stddev == 0.0


def standardize_fit(matrix: np.ndarray) -> StandardizerParams:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise DataError("standardizer needs a matrix of at least 2 rows")
    mean = matrix.mean(axis=0)
    stddev = matrix.std(axis=0)
    return StandardizerParams(mean=mean, stddev=stddev)


def standardize_apply(params: StandardizerParams, matrix: np.ndarray) -> np.ndarray:
    """Z-score; zero-variance features map to 0."""
    matrix = np.asarray(matrix, dtype=np.float64)
    safe = np.where(params.stddev == 0.0, 1.0, params.stddev)
    out = (matrix - params.mean) / safe
    if matrix.ndim == 1:
        out = np.where(params.stddev == 0.0, 0.0, out)
    else:
        out[:, params.stddev == 0.0] = 0.0
    if not np.all(np.isfinite(out)):
        raise InvariantError("standardization produced non-finite values")
    return out


def vectors_to_matrix(
    vectors: Sequence[FeatureVector],
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Stack vectors into (X, y, doc_ids); y is None when any label is."""
    if not vectors:
        raise DataError("no feature vectors")
    X = np.stack([v.values for v in vectors])
    ids = [v.doc_id for v in vectors]
    if any(v.label is None for v in vectors):
        return X, None, ids
    y = np.array([v.label for v in vectors], dtype=np.int64)
    return X, y, ids


def write_schema(path: str | Path, schema: FeatureSchema) -> None:
    payload = {
        "format_version": SCHEMA_FORMAT_VERSION,
        "names": list(schema.names),
        "granularity": schema.granularity,
        "groups": list(schema.groups),
        "pruning": schema.pruning,
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def read_schema(path: str | Path) -> FeatureSchema:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"cannot read schema {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a schema must be a JSON object")
    if payload.get("format_version") != SCHEMA_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported schema format version")
    missing = sorted({"names", "granularity", "groups"} - payload.keys())
    if missing:
        raise DataError(f"{path}: schema is missing {missing}")
    names, groups = payload["names"], payload["groups"]
    granularity, pruning = payload["granularity"], payload.get("pruning", "none")
    if not (
        _is_str_list(names) and _is_str_list(groups)
        and isinstance(granularity, str) and isinstance(pruning, str)
    ):
        raise DataError(
            f"{path}: schema names and groups must be lists of strings, "
            "granularity and pruning strings"
        )
    try:
        return FeatureSchema(
            names=tuple(names), granularity=granularity, groups=tuple(groups),
            pruning=pruning,
        )
    except (ConfigError, InvariantError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def write_feature_csv(
    path: str | Path, schema: FeatureSchema, vectors: Sequence[FeatureVector]
) -> None:
    """Feature matrix CSV: doc_id first, schema columns, label last when
    every vector has one. Floats carry 9 significant digits."""
    with_labels = bool(vectors) and all(v.label is not None for v in vectors)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["doc_id", *schema.names]
        if with_labels:
            header.append("label")
        writer.writerow(header)
        for vec in vectors:
            if len(vec.values) != len(schema.names):
                raise DataError(
                    f"vector for {vec.doc_id!r} has {len(vec.values)} values, "
                    f"schema has {len(schema.names)}"
                )
            row = [vec.doc_id, *(CSV_FLOAT_FORMAT % v for v in vec.values)]
            if with_labels:
                row.append(str(vec.label))
            writer.writerow(row)


def read_feature_csv(
    path: str | Path, schema: FeatureSchema | None = None
) -> tuple[list[FeatureVector], list[str]]:
    """Read a feature matrix CSV; returns (vectors, column names)."""
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty feature file") from None
        if not header or header[0] != "doc_id":
            raise DataError(f"{path}: first column must be doc_id")
        has_label = bool(header) and header[-1] == "label"
        names = header[1 : -1 if has_label else len(header)]
        if schema is not None and tuple(names) != schema.names:
            raise DataError(f"{path}: columns do not match the schema")
        vectors = []
        for lineno, row in enumerate(reader, start=2):
            expected = 1 + len(names) + (1 if has_label else 0)
            if len(row) != expected:
                raise DataError(f"{path}:{lineno}: expected {expected} fields")
            try:
                values = np.array([float(v) for v in row[1 : 1 + len(names)]])
                label = int(row[-1]) if has_label else None
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            vectors.append(FeatureVector(doc_id=row[0], values=values, label=label))
    return vectors, names
