"""The trainable averaged-perceptron POS tagger, chosen with
``--tagger perceptron:PATH``, and its weights file.

Weights file: a JSON object ``{format_version, kind: "perceptron-tagger",
classes, known_words, weights}``, where ``weights`` maps each feature to
its per-tag weights and every tag it names is one of ``classes``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..errors import ConfigError, DataError, is_number_map, is_str_list, read_json
from .tagger import _fallback_tag


def _shape(token: str) -> str:
    out: list[str] = []
    for ch in token:
        if ch.isdigit():
            code = "d"
        elif ch.isalpha():
            code = "X" if ch.isupper() else "x"
        else:
            code = "o"
        if not out or out[-1] != code:
            out.append(code)
    return "".join(out)


_START = ("-S1-", "-S2-")

WEIGHTS_FORMAT_VERSION = 1


class PerceptronTagger:
    """Greedy averaged perceptron over shape, suffix, and prior-tag features.

    Words never seen in training are tagged by the same fallback rules as
    the rule tagger; the fallback tag still feeds the context features of
    later positions.
    """

    def __init__(self) -> None:
        self.weights: dict[str, dict[str, float]] = {}
        self.classes: list[str] = []
        self.known_words: set[str] = set()

    @staticmethod
    def _features(token: str, prev: str, prev2: str) -> tuple[str, ...]:
        w = token.lower()
        return (
            "bias",
            "w=" + w,
            "suf1=" + w[-1:],
            "suf2=" + w[-2:],
            "suf3=" + w[-3:],
            "shape=" + _shape(token),
            "t1=" + prev,
            "t2=" + prev2,
            "t12=" + prev + "|" + prev2,
        )

    def _score(self, feats: Iterable[str]) -> dict[str, float]:
        scores = dict.fromkeys(self.classes, 0.0)
        for f in feats:
            per_tag = self.weights.get(f)
            if per_tag:
                for tag, w in per_tag.items():
                    scores[tag] += w
        return scores

    def _predict(self, feats: tuple[str, ...]) -> str:
        scores = self._score(feats)
        # max score, ties to the lexicographically smallest tag
        return min(scores, key=lambda t: (-scores[t], t))

    def tag(self, tokens: Sequence[str]) -> list[str]:
        if not self.classes:
            raise ConfigError("perceptron tagger has no trained weights")
        tags: list[str] = []
        prev, prev2 = _START
        for i, token in enumerate(tokens):
            if token.lower() in self.known_words:
                tag = self._predict(self._features(token, prev, prev2))
            else:
                tag = _fallback_tag(token, i)
            tags.append(tag)
            prev2, prev = prev, tag
        return tags

    def count_tags(
        self,
        tokens: Sequence[str],
        sentences: Sequence[tuple[int, int]],
        counts: Mapping[str, int] | None = None,
    ) -> Counter[str]:
        # a tag depends on the tags before it, so every sentence is tagged
        # and the census is not used
        tags: Counter[str] = Counter()
        for start, end in sentences:
            tags.update(self.tag(tokens[start:end]))
        return tags

    def train(
        self,
        sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
        epochs: int = 5,
        seed: int = 0,
    ) -> None:
        """Fit on (tokens, gold tags) pairs with seeded epoch shuffling."""
        for tokens, gold in sentences:
            if len(tokens) != len(gold):
                raise DataError("token/tag length mismatch in training data")
        self.classes = sorted({t for _, gold in sentences for t in gold})
        self.known_words = {
            w.lower() for tokens, _ in sentences for w in tokens
        }
        totals: dict[str, dict[str, float]] = {}
        stamps: dict[str, dict[str, int]] = {}
        self.weights = {}
        step = 0
        rng = random.Random(seed)
        order = list(range(len(sentences)))

        def bump(feat: str, tag: str, delta: float) -> None:
            per_w = self.weights.setdefault(feat, {})
            per_t = totals.setdefault(feat, {})
            per_s = stamps.setdefault(feat, {})
            per_t[tag] = per_t.get(tag, 0.0) + (step - per_s.get(tag, 0)) * per_w.get(tag, 0.0)
            per_s[tag] = step
            per_w[tag] = per_w.get(tag, 0.0) + delta

        for _ in range(epochs):
            rng.shuffle(order)
            for idx in order:
                tokens, gold = sentences[idx]
                prev, prev2 = _START
                for i, token in enumerate(tokens):
                    step += 1
                    feats = self._features(token, prev, prev2)
                    guess = self._predict(feats)
                    if guess != gold[i]:
                        for f in feats:
                            bump(f, gold[i], 1.0)
                            bump(f, guess, -1.0)
                    # train with gold context so errors do not compound
                    prev2, prev = prev, gold[i]
        # finish averaging
        for feat, per_tag in self.weights.items():
            for tag in per_tag:
                total = totals[feat][tag] + (step - stamps[feat][tag]) * per_tag[tag]
                per_tag[tag] = total / step if step else 0.0

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": WEIGHTS_FORMAT_VERSION,
            "kind": "perceptron-tagger",
            "classes": self.classes,
            "known_words": sorted(self.known_words),
            "weights": self.weights,
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PerceptronTagger":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"tagger weights file not found: {path}")
        payload = read_json(path, "tagger weights")
        if not isinstance(payload, dict) or payload.get("kind") != "perceptron-tagger":
            raise DataError(f"{path}: not a tagger weights file")
        if payload.get("format_version") != WEIGHTS_FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported weights format version "
                f"{payload.get('format_version')!r}"
            )
        weights = payload.get("weights")
        if not (
            is_str_list(payload.get("classes")) and is_str_list(payload.get("known_words"))
            and isinstance(weights, dict) and all(map(is_number_map, weights.values()))
        ):
            raise DataError(
                f"{path}: tagger weights need 'classes' and 'known_words' lists of "
                "strings and 'weights' objects of finite numbers"
            )
        classes = payload["classes"]
        if not classes:
            raise DataError(f"{path}: tagger weights name no classes")
        unknown = sorted({t for per in weights.values() for t in per} - set(classes))
        if unknown:
            raise DataError(f"{path}: tagger weights name tags outside 'classes': {unknown}")
        tagger = cls()
        tagger.classes = list(classes)
        tagger.known_words = set(payload["known_words"])
        tagger.weights = {
            f: {t: float(w) for t, w in per.items()}
            for f, per in weights.items()
        }
        return tagger
