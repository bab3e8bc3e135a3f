"""Corpus loading, site-label projection, political filtering, sampling.

A corpus on disk is a directory holding ``manifest.jsonl`` (one metadata
record per line), ``site_labels.json`` (site → label), and the HTML files
the manifest records point at via relative paths.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .errors import (
    ConfigError, DataError, InvariantError, is_number_map, is_str_list, iter_jsonl, read_json,
)
from .linguistics import tokenize

LABELS = ("reliable", "unreliable")
LABEL_TO_CLASS = {"reliable": 0, "unreliable": 1}
CLASS_TO_LABEL = {v: k for k, v in LABEL_TO_CLASS.items()}

POLITICS_TOPIC = "politics"

DEFAULT_YEAR_RANGE = (1990, 2100)

MANIFEST_NAME = "manifest.jsonl"
SITE_LABELS_NAME = "site_labels.json"

FILTER_MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RawDocument:
    id: str
    url: str
    site: str
    label: str
    year: int
    html: bytes


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    url: str
    site: str
    label: str
    year: int
    html_path: str


@dataclass
class CorpusManifest:
    root: Path
    entries: list[ManifestEntry]
    site_labels: dict[str, str]

    def load_html(self, entry: ManifestEntry) -> bytes:
        path = self.root / entry.html_path
        try:
            return path.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read page {entry.id} at {path}: {exc}") from exc

    def load_document(self, entry: ManifestEntry) -> RawDocument:
        return RawDocument(
            id=entry.id,
            url=entry.url,
            site=entry.site,
            label=entry.label,
            year=entry.year,
            html=self.load_html(entry),
        )

    def iter_documents(self) -> Iterator[RawDocument]:
        for entry in self.entries:
            yield self.load_document(entry)


def _check_site(site: str, where: str) -> None:
    if site != site.lower():
        raise DataError(f"{where}: site {site!r} must be lowercase")
    if "/" in site or ":" in site or " " in site:
        raise DataError(f"{where}: site {site!r} must be a bare domain")


def load_manifest(
    path: str | Path, year_range: tuple[int, int] = DEFAULT_YEAR_RANGE
) -> CorpusManifest:
    """Load a corpus directory; errors carry the offending line number."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    labels_path = root / SITE_LABELS_NAME
    if not manifest_path.is_file():
        raise DataError(f"no {MANIFEST_NAME} in {root}")
    if not labels_path.is_file():
        raise DataError(f"no {SITE_LABELS_NAME} in {root}")

    site_labels = read_json(labels_path, "site labels")
    if not isinstance(site_labels, dict):
        raise DataError(f"{labels_path}: expected an object of site → label")
    for site, label in site_labels.items():
        _check_site(site, str(labels_path))
        if label not in LABELS:
            raise DataError(f"{labels_path}: site {site!r} has invalid label {label!r}")

    entries: list[ManifestEntry] = []
    seen_ids: set[str] = set()
    lo, hi = year_range
    for where, record in iter_jsonl(manifest_path, "manifest"):
        missing = {"id", "url", "site", "label", "year", "html_path"} - record.keys()
        if missing:
            raise DataError(f"{where}: missing fields {sorted(missing)}")
        doc_id = str(record["id"])
        if doc_id in seen_ids:
            raise DataError(f"{where}: duplicate id {doc_id!r}")
        seen_ids.add(doc_id)
        site = str(record["site"])
        _check_site(site, where)
        label = record["label"]
        if label not in LABELS:
            raise DataError(f"{where}: invalid label {label!r}")
        if site not in site_labels:
            raise DataError(f"{where}: site {site!r} not in {SITE_LABELS_NAME}")
        if site_labels[site] != label:
            raise DataError(
                f"{where}: label {label!r} conflicts with site label "
                f"{site_labels[site]!r} for {site!r}"
            )
        year = record["year"]
        if not isinstance(year, int) or not lo <= year <= hi:
            raise DataError(f"{where}: year {year!r} outside {lo}..{hi}")
        entries.append(
            ManifestEntry(
                id=doc_id,
                url=str(record["url"]),
                site=site,
                label=label,
                year=year,
                html_path=str(record["html_path"]),
            )
        )
    return CorpusManifest(root=root, entries=entries, site_labels=dict(site_labels))


def _terms(text: str) -> list[str]:
    return [t.lower() for t in tokenize(text).tokens]


@dataclass
class PoliticalFilterModel:
    """Multinomial Naive Bayes over sublinear-tf smooth-idf term weights."""

    classes: tuple[str, ...]
    class_log_priors: dict[str, float]
    feature_log_likelihoods: dict[str, dict[str, float]]
    idf: dict[str, float]
    vocabulary: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.classes:
            total = sum(math.exp(p) for p in self.class_log_priors.values())
            if abs(total - 1.0) > 1e-9:
                raise InvariantError("class priors do not sum to 1")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise InvariantError("duplicate terms in vocabulary")

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": FILTER_MODEL_FORMAT_VERSION,
            "kind": "political-filter",
            "classes": list(self.classes),
            "class_log_priors": self.class_log_priors,
            "feature_log_likelihoods": self.feature_log_likelihoods,
            "idf": self.idf,
            "vocabulary": list(self.vocabulary),
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PoliticalFilterModel":
        payload = read_json(path, "filter model")
        if not isinstance(payload, dict) or payload.get("kind") != "political-filter":
            raise DataError(f"{path}: not a political-filter model file")
        if payload.get("format_version") != FILTER_MODEL_FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported model format version "
                f"{payload.get('format_version')!r}"
            )
        likelihoods = payload.get("feature_log_likelihoods")
        if not (
            is_str_list(payload.get("classes")) and is_str_list(payload.get("vocabulary"))
            and is_number_map(payload.get("class_log_priors"))
            and is_number_map(payload.get("idf"))
            and isinstance(likelihoods, dict) and all(map(is_number_map, likelihoods.values()))
        ):
            raise DataError(
                f"{path}: a filter model needs 'classes' and 'vocabulary' lists of "
                "strings and 'class_log_priors', 'idf' and 'feature_log_likelihoods' "
                "objects of numbers"
            )
        try:
            return cls(
                classes=tuple(payload["classes"]),
                class_log_priors={k: float(v) for k, v in payload["class_log_priors"].items()},
                feature_log_likelihoods={
                    t: {c: float(v) for c, v in per.items()} for t, per in likelihoods.items()
                },
                idf={k: float(v) for k, v in payload["idf"].items()},
                vocabulary=tuple(payload["vocabulary"]),
            )
        except (InvariantError, OverflowError) as exc:
            raise DataError(f"{path}: {exc}") from exc


def load_topic_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Read a JSONL file of {"text", "topic"} records."""
    pairs: list[tuple[str, str]] = []
    for where, record in iter_jsonl(path, "topic corpus"):
        if "text" not in record or "topic" not in record:
            raise DataError(f"{where}: expected object with text and topic")
        pairs.append((str(record["text"]), str(record["topic"])))
    return pairs


def train_political_filter(
    labeled_texts: Sequence[tuple[str, str]], alpha: float = 1.0
) -> PoliticalFilterModel:
    """Fit the topic model on (text, topic) pairs.

    Term weights are sublinear tf (1 + ln count) times smooth idf
    (ln((1+N)/(1+df)) + 1); per-class term mass gets Laplace smoothing.
    """
    if not labeled_texts:
        raise DataError("empty topic-training corpus")
    classes = tuple(sorted({topic for _, topic in labeled_texts}))
    if len(classes) < 2:
        raise DataError("topic-training corpus must contain at least 2 topics")

    docs: list[tuple[dict[str, int], str]] = []
    df: dict[str, int] = {}
    for text, topic in labeled_texts:
        terms = _terms(text)
        if not terms:
            raise DataError("empty text in topic-training corpus")
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for t in counts:
            df[t] = df.get(t, 0) + 1
        docs.append((counts, topic))

    n_docs = len(docs)
    vocabulary = tuple(sorted(df))
    idf = {t: math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in vocabulary}

    class_mass: dict[str, dict[str, float]] = {c: {} for c in classes}
    class_docs: dict[str, int] = {c: 0 for c in classes}
    for counts, topic in docs:
        class_docs[topic] += 1
        mass = class_mass[topic]
        for t, n in counts.items():
            mass[t] = mass.get(t, 0.0) + (1.0 + math.log(n)) * idf[t]

    v = len(vocabulary)
    log_likelihoods: dict[str, dict[str, float]] = {t: {} for t in vocabulary}
    for c in classes:
        mass = class_mass[c]
        denom = sum(mass.values()) + alpha * v
        for t in vocabulary:
            log_likelihoods[t][c] = math.log((mass.get(t, 0.0) + alpha) / denom)

    log_priors = {c: math.log(class_docs[c] / n_docs) for c in classes}
    return PoliticalFilterModel(
        classes=classes,
        class_log_priors=log_priors,
        feature_log_likelihoods=log_likelihoods,
        idf=idf,
        vocabulary=vocabulary,
    )


@dataclass(frozen=True)
class FilterDecision:
    is_political: bool
    score: float
    note: str = ""


def apply_political_filter(
    model: PoliticalFilterModel, text: str, threshold: float = 0.5
) -> FilterDecision:
    """Posterior probability that the text is political; decision at the
    threshold (score ≥ threshold ⇒ political)."""
    if not model.classes or not model.vocabulary:
        raise ConfigError("political filter model is untrained")
    if POLITICS_TOPIC not in model.classes:
        raise ConfigError(f"model has no {POLITICS_TOPIC!r} class")

    terms = _terms(text)
    counts: dict[str, int] = {}
    for t in terms:
        if t in model.idf:
            counts[t] = counts.get(t, 0) + 1

    scores = dict(model.class_log_priors)
    for t, n in counts.items():
        weight = (1.0 + math.log(n)) * model.idf[t]
        per_class = model.feature_log_likelihoods[t]
        for c in model.classes:
            scores[c] += weight * per_class[c]

    top = max(scores.values())
    exps = {c: math.exp(s - top) for c, s in scores.items()}
    total = sum(exps.values())
    posterior = {c: e / total for c, e in exps.items()}
    if abs(sum(posterior.values()) - 1.0) > 1e-9:
        raise InvariantError("posterior does not sum to 1")

    score = posterior[POLITICS_TOPIC]
    note = "empty" if not terms else ""
    return FilterDecision(is_political=score >= threshold, score=score, note=note)


def balanced_sample(
    docs: Sequence[RawDocument], cap_per_site_year: int, seed: int
) -> list[RawDocument]:
    """Seeded uniform sample without replacement of up to the cap from each
    (site, year) group; output sorted by (site, year, id)."""
    if cap_per_site_year < 1:
        raise ConfigError("sampling cap must be ≥ 1")
    groups: dict[tuple[str, int], list[RawDocument]] = {}
    for doc in docs:
        groups.setdefault((doc.site, doc.year), []).append(doc)

    kept: list[RawDocument] = []
    for (site, year), group in groups.items():
        group = sorted(group, key=lambda d: d.id)
        if len(group) <= cap_per_site_year:
            kept.extend(group)
            continue
        digest = hashlib.sha256(f"{seed}:{site}:{year}".encode("utf-8")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        kept.extend(rng.sample(group, cap_per_site_year))
    kept.sort(key=lambda d: (d.site, d.year, d.id))
    return kept
