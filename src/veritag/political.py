"""The topic filter: a multinomial naive Bayes model that scores how
political a page's text is, trained from a JSONL file of
``{"text", "topic"}`` records, and its model file.

Model file: a JSON object ``{format_version, kind: "political-filter",
classes, class_log_priors, feature_log_likelihoods, idf, vocabulary}``.
``classes`` names ``politics`` and no class twice, ``class_log_priors``
has one entry per class, every ``idf`` term has a
``feature_log_likelihoods`` entry with one value per class, and
``vocabulary`` is not empty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import (
    ConfigError, DataError, InvariantError, is_number_map, is_str_list, iter_jsonl, read_format,
)
from .linguistics import tokenize

POLITICS_TOPIC = "politics"

FILTER_MODEL_FORMAT_VERSION = 1


@dataclass
class PoliticalFilterModel:
    """Multinomial Naive Bayes over sublinear-tf smooth-idf term weights."""

    classes: tuple[str, ...]
    class_log_priors: dict[str, float]
    feature_log_likelihoods: dict[str, dict[str, float]]
    idf: dict[str, float]
    vocabulary: tuple[str, ...]

    def __post_init__(self) -> None:
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
        # scoring a page reads every one of these keys, so a file where
        # they disagree is refused here, not at the first page
        field = read_format(path, "filter model", "political-filter", FILTER_MODEL_FORMAT_VERSION)
        classes = field("classes", lambda v: (
            is_str_list(v) and POLITICS_TOPIC in v and len(set(v)) == len(v)
        ))
        names = set(classes)
        priors = field("class_log_priors", lambda v: is_number_map(v) and v.keys() == names)
        idf = field("idf", is_number_map)
        likelihoods = field("feature_log_likelihoods", lambda v: (
            isinstance(v, dict) and all(map(is_number_map, v.values()))
            and all(v.get(term, {}).keys() >= names for term in idf)
        ))
        try:
            return cls(
                classes=tuple(classes),
                class_log_priors={k: float(v) for k, v in priors.items()},
                feature_log_likelihoods={
                    t: {c: float(v) for c, v in per.items()} for t, per in likelihoods.items()
                },
                idf={k: float(v) for k, v in idf.items()},
                vocabulary=tuple(field("vocabulary", lambda v: is_str_list(v) and bool(v))),
            )
        except (InvariantError, OverflowError) as exc:
            raise DataError(f"{path}: {exc}") from exc


def load_topic_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Read a JSONL file of {"text", "topic"} records."""
    pairs: list[tuple[str, str]] = []
    for where, record in iter_jsonl(path, "topic corpus"):
        text, topic = record.get("text"), record.get("topic")
        if not (isinstance(text, str) and isinstance(topic, str)):
            raise DataError(f"{where}: expected object with string text and topic")
        pairs.append((text, topic))
    return pairs


def train_political_filter(labeled_texts: Sequence[tuple[str, str]]) -> PoliticalFilterModel:
    """Fit the topic model on (text, topic) pairs.

    Term weights are sublinear tf (1 + ln count) times smooth idf
    (ln((1+N)/(1+df)) + 1); per-class term mass gets Laplace (add-one) smoothing.
    """
    if not labeled_texts:
        raise DataError("empty topic-training corpus")
    classes = tuple(sorted({topic for _, topic in labeled_texts}))
    if len(classes) < 2:
        raise DataError("topic-training corpus must contain at least 2 topics")
    if POLITICS_TOPIC not in classes:
        raise DataError(f"topic-training corpus has no {POLITICS_TOPIC!r} topic")

    docs: list[tuple[dict[str, int], str]] = []
    df: dict[str, int] = {}
    for text, topic in labeled_texts:
        counts = tokenize(text).lowered
        if not counts:
            raise DataError("empty text in topic-training corpus")
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
        denom = sum(mass.values()) + v
        for t in vocabulary:
            log_likelihoods[t][c] = math.log((mass.get(t, 0.0) + 1.0) / denom)

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


def apply_political_filter(
    model: PoliticalFilterModel, text: str, threshold: float = 0.5
) -> FilterDecision:
    """Posterior probability that the text is political; decision at the
    threshold (score ≥ threshold ⇒ political)."""
    if POLITICS_TOPIC not in model.classes:
        raise ConfigError(f"model has no {POLITICS_TOPIC!r} class")

    scores = dict(model.class_log_priors)
    for t, n in tokenize(text).lowered.items():
        if t not in model.idf:  # a term the model never saw weighs nothing
            continue
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
    return FilterDecision(is_political=score >= threshold, score=score)
