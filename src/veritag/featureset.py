"""Per-document TAG feature vectors: schema, extraction, pruning, scaling.

Feature names follow ``group.name[.subcategory]`` with group ∈ {N, L, R, W}.
Granularity picks the text the linguistic groups see (headline, content, or
both joined by a newline); the web-markup group always sees the whole page.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import GRANULARITIES, GROUPS, PRUNINGS, check_groups
from .corpus import CLASS_TO_LABEL, LABEL_TO_CLASS, RawDocument
from .errors import (
    ConfigError, DataError, Fields, InvariantError, is_str_list, read_format, read_input,
    write_csv,
)
from .linguistics import (
    PENN_TABLE_TAGS,
    READABILITY_FEATURES,
    CategoryDictionary,
    RuleTagger,
    dictionary_scores,
    morphological_features,
    readability_features,
    tokenize,
)
from .markup import (
    MARKUP_FEATURES, extract_article, granularity_text, markup_features, parse_html,
)

log = logging.getLogger("veritag")

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

# The feature names of each group but L, whose names are its dictionary's
# categories, in the order the group's function returns them.
GROUP_FEATURES: dict[str, tuple[str, ...]] = {
    "N": PENN_TABLE_TAGS, "R": READABILITY_FEATURES, "W": MARKUP_FEATURES,
}

SCHEMA_FORMAT_VERSION = 1

# the pruning of a schema whose names feature selection computed
COMPUTED_PRUNING = "computed:"


@dataclass(frozen=True)
class FeatureSchema:
    names: tuple[str, ...]
    granularity: str
    groups: tuple[str, ...]
    pruning: str = "none"

    def __post_init__(self) -> None:
        """The one feature-name rule: each name is ``GROUP.NAME`` with
        ``GROUP`` one of the schema's groups and ``NAME`` not empty, and no
        name appears twice. The names are checked before the groups, so a
        schema built from a CSV header names the first bad column."""
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"invalid granularity {self.granularity!r}")
        seen: set[str] = set()
        for name in self.names:
            group, _, base = name.partition(".")
            if group not in self.groups or not base:
                raise InvariantError(
                    f"feature {name!r} is not GROUP.NAME with GROUP one of the schema's "
                    f"groups {list(self.groups)}"
                )
            if name in seen:
                raise InvariantError(f"feature {name!r} appears twice")
            seen.add(name)
        check_groups(self.groups, "a schema's groups")
        if not (
            self.pruning in PRUNINGS
            or self.pruning.startswith(COMPUTED_PRUNING)
        ):
            raise ConfigError(f"invalid pruning mode {self.pruning!r}")

    def index_of(self, name: str) -> int:
        return self.names.index(name)


def build_schema(
    granularity: str,
    groups: Sequence[str],
    dictionary: CategoryDictionary | None = None,
    pruning: str = "none",
) -> FeatureSchema:
    """Schema of the requested groups, in N, L, R, W order: every feature
    they make, or with ``pruning="paper"`` the published paper pruning."""
    if pruning not in PRUNINGS:
        raise ConfigError(f"invalid pruning mode {pruning!r}")
    check_groups(groups, "a schema's groups")
    ordered = tuple(g for g in GROUPS if g in groups)
    if "L" in ordered and dictionary is None:
        raise ConfigError("psychological group requires a category dictionary")
    names = [
        f"{g}.{name}"
        for g in ordered
        for name in (dictionary.categories if g == "L" else GROUP_FEATURES[g])
    ]
    schema = FeatureSchema(names=tuple(names), granularity=granularity, groups=ordered)
    return apply_paper_pruning(schema) if pruning == "paper" else schema


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


def extract_document(
    doc: RawDocument,
    schema: FeatureSchema,
    dictionary: CategoryDictionary | None = None,
    tagger: RuleTagger | None = None,
    ad_domains: frozenset[str] | None = None,
) -> FeatureVector:
    """Parse a raw page and compute the schema's features for it. Only the
    schema's granularity and groups are computed."""
    return extract_vectors(doc, [schema], dictionary, tagger, ad_domains)[0]


def extract_vectors(
    doc: RawDocument,
    schemas: Sequence[FeatureSchema],
    dictionary: CategoryDictionary | None = None,
    tagger: RuleTagger | None = None,
    ad_domains: frozenset[str] | None = None,
) -> list[FeatureVector]:
    """One vector per schema from a single parse, article extraction and
    markup pass over the page. Each granularity's text is tokenized once,
    the N, L and R groups read one census of its tokens, and only the
    groups some schema of that granularity asks for are computed."""
    groups: dict[str, set[str]] = {}
    for schema in schemas:
        groups.setdefault(schema.granularity, set()).update(schema.groups)
    if dictionary is None and any("L" in wanted for wanted in groups.values()):
        raise ConfigError("psychological group requires a category dictionary")

    tree = parse_html(doc.html)
    article = None
    by_name: dict[str, dict[str, float]] = {}
    for granularity, wanted in groups.items():
        values = by_name[granularity] = {}
        if not wanted & {"N", "L", "R"}:
            continue
        if article is None:
            article = extract_article(tree)
        tokenized = tokenize(granularity_text(article, granularity))
        if "N" in wanted:
            values.update(_prefixed("N", morphological_features(
                tokenized.tokens, tagger, tokenized.sentences, tokenized.counts
            )))
        if "L" in wanted:
            assert dictionary is not None
            values.update(_prefixed(
                "L", dictionary_scores(tokenized.tokens, dictionary, tokenized.lowered)
            ))
        if "R" in wanted:
            values.update(_prefixed("R", readability_features(tokenized)))
    if any("W" in wanted for wanted in groups.values()):
        web = _prefixed("W", markup_features(tree, ad_domains))
        for values in by_name.values():
            values.update(web)

    vectors = []
    for schema in schemas:
        values = by_name[schema.granularity]
        try:
            row = np.array([values[name] for name in schema.names], dtype=np.float64)
        except KeyError as exc:
            raise InvariantError(f"schema name {exc} not produced by extraction") from exc
        vectors.append(FeatureVector(doc_id=doc.id, values=row, label=LABEL_TO_CLASS[doc.label]))
    return vectors


def _prefixed(group: str, values: dict[str, float]) -> dict[str, float]:
    """A group function's values keyed by their schema names."""
    return {f"{group}.{name}": value for name, value in values.items()}


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


def prune_to_names(schema: FeatureSchema, names: Sequence[str]) -> FeatureSchema:
    """Restrict the schema to the given names, preserving schema order."""
    keep = set(names)
    unknown = keep - set(schema.names)
    if unknown:
        raise DataError(f"names not in schema: {sorted(unknown)}")
    return FeatureSchema(
        names=tuple(n for n in schema.names if n in keep),
        granularity=schema.granularity,
        groups=schema.groups,
        pruning=COMPUTED_PRUNING,
    )


@dataclass(frozen=True)
class StandardizerParams:
    mean: np.ndarray
    stddev: np.ndarray


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
    out[..., params.stddev == 0.0] = 0.0
    if not np.all(np.isfinite(out)):
        raise InvariantError("standardization produced non-finite values")
    return out


def feature_rows(matrix: np.ndarray, width: int) -> np.ndarray:
    """The matrix as float64 rows of ``width`` features, or a DataError."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != width:
        raise DataError(f"matrix has shape {matrix.shape}, model expects {width} features per row")
    return matrix


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


def document_labels(docs: Sequence[RawDocument]) -> np.ndarray:
    """The class of each page, in order."""
    return np.array([LABEL_TO_CLASS[d.label] for d in docs], dtype=np.int64)


def encode_schema(schema: FeatureSchema) -> dict:
    """The schema's JSON fields, as schema files and tag models store them."""
    return {
        "names": list(schema.names),
        "granularity": schema.granularity,
        "groups": list(schema.groups),
        "pruning": schema.pruning,
    }


def decode_schema(payload: object, where: object) -> FeatureSchema:
    """The schema that ``encode_schema`` gave ``payload``; a DataError
    naming ``where`` for any other value."""
    field = Fields(payload, where, "schema")
    names = field("names", lambda v: is_str_list(v) and bool(v))
    try:
        return FeatureSchema(
            names=tuple(names),
            granularity=field("granularity", lambda v: v in GRANULARITIES),
            groups=tuple(field("groups", is_str_list)),
            pruning=field("pruning", lambda v: isinstance(v, str)) if "pruning" in payload
            else "none",
        )
    except (ConfigError, InvariantError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def write_schema(path: str | Path, schema: FeatureSchema) -> None:
    payload = {"format_version": SCHEMA_FORMAT_VERSION, **encode_schema(schema)}
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def read_schema(path: str | Path) -> FeatureSchema:
    return decode_schema(read_format(path, "schema", None, SCHEMA_FORMAT_VERSION).data, path)


def write_feature_csv(
    path: str | Path, schema: FeatureSchema, vectors: Sequence[FeatureVector]
) -> None:
    """Feature matrix CSV: doc_id first, schema columns, label last when
    every vector has one."""
    with_labels = bool(vectors) and all(v.label is not None for v in vectors)

    def rows() -> Iterator[list]:
        for vec in vectors:
            if len(vec.values) != len(schema.names):
                raise DataError(
                    f"vector for {vec.doc_id!r} has {len(vec.values)} values, "
                    f"schema has {len(schema.names)}"
                )
            row = [vec.doc_id, *vec.values.tolist()]
            yield [*row, vec.label] if with_labels else row

    header = ["doc_id", *schema.names] + (["label"] if with_labels else [])
    write_csv(path, header, rows())


def _csv_rows(path: str | Path) -> Iterator[list[str]]:
    reader = csv.reader(io.StringIO(read_input(path, "feature file"), newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_feature_csv(
    path: str | Path, schema: FeatureSchema | None = None
) -> tuple[list[FeatureVector], list[str]]:
    """Read a feature matrix CSV; returns (vectors, column names)."""
    rows = _csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty feature file")
    if not header or header[0] != "doc_id":
        raise DataError(f"{path}: first column must be doc_id")
    has_label = bool(header) and header[-1] == "label"
    names = header[1 : -1 if has_label else len(header)]
    if schema is not None and tuple(names) != schema.names:
        raise DataError(f"{path}: columns do not match the schema")
    vectors = []
    for lineno, row in enumerate(rows, start=2):
        expected = 1 + len(names) + (1 if has_label else 0)
        if len(row) != expected:
            raise DataError(f"{path}:{lineno}: expected {expected} fields")
        try:
            values = np.array([float(v) for v in row[1 : 1 + len(names)]])
            label = int(row[-1]) if has_label else None
            vector = FeatureVector(doc_id=row[0], values=values, label=label)
        except (ValueError, InvariantError) as exc:  # not a number, or not finite
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if has_label and label not in CLASS_TO_LABEL:
            raise DataError(f"{path}:{lineno}: label {label} is not 0 or 1")
        vectors.append(vector)
    return vectors, names
