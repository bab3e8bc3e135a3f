"""Span tracing of the package under test, installed from outside.

``install`` wraps public functions and methods of ``veritag`` and rebinds
every module attribute that refers to the original, because several modules
import names with ``from ... import`` and a patch on the defining module
alone would miss their calls. Each call records a span (name, start, end,
parent index); a layer's self time is its span's duration minus the time
covered by its child spans. Counts are taken from arguments and return
values. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import importlib
import os
import re
import sys
import time
from collections import Counter, defaultdict
from typing import Callable


def _rule_slug(note: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", note.lower()).strip("_")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._child_time: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.step = ""
        self.extract_calls_by_step: Counter[str] = Counter()
        self.extract_pages_by_step: defaultdict[str, set] = defaultdict(set)

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        self._child_time.append(0.0)

    def close(self, layer: str) -> None:
        end = time.perf_counter()
        index = self._open.pop()
        children = self._child_time.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_s[layer] += duration - children
        if self._child_time:
            self._child_time[-1] += duration


# --- counters fed from arguments and return values ---


def _count_load_html(t: Tracer, args, result) -> None:
    t.counts["corpus.pages"] += 1
    t.counts["corpus.bytes"] += len(result)


def _count_parse(t: Tracer, args, result) -> None:
    t.counts["markup.parse_calls"] += 1


def _count_article(t: Tracer, args, result) -> None:
    for note in result.extraction_notes:
        t.counts["markup.rule." + _rule_slug(note)] += 1


def _count_tokenize(t: Tracer, args, result) -> None:
    t.counts["linguistics.text.tokenize_calls"] += 1
    t.counts["linguistics.text.tokens"] += len(result.tokens)
    t.counts["linguistics.text.sentences"] += len(result.sentences)


def _count_tagger(t: Tracer, args, result) -> None:
    t.counts["linguistics.tagger.tokens"] += len(args[0])


def _count_dictionary(t: Tracer, args, result) -> None:
    t.counts["linguistics.dictionary.tokens"] += len(args[0])


def _count_extract(t: Tracer, args, result) -> None:
    t.counts["featureset.extract_calls"] += 1
    t.extract_calls_by_step[t.step] += 1
    t.extract_pages_by_step[t.step].add(args[0].id)


def _count_select(t: Tracer, args, result) -> None:
    t.counts["selection.retained"] += len(result[0].names)


def _count_svm(t: Tracer, args, result) -> None:
    t.counts["models.svm.train_calls"] += 1
    t.counts["models.svm.train_rows"] += len(args[0])


def _count_knn(t: Tracer, args, result) -> None:
    t.counts["models.neighbors.predict_rows"] += 1


def _count_rf(t: Tracer, args, result) -> None:
    t.counts["models.forest.predict_rows"] += 1


def _count_baseline_fit(t: Tracer, args, result) -> None:
    t.counts["models.baseline.fit_calls"] += 1
    t.counts["models.baseline.vocabulary"] += len(result.vocabulary)


def _count_predict_matrix(t: Tracer, args, result) -> None:
    t.counts["models.pipeline.predict_rows"] += len(result[0])


def _count_save(t: Tracer, args, result) -> None:
    t.counts["models.persistence.model_bytes"] += os.path.getsize(args[1])


# (module, attribute path, layer metric that receives its self time, counter)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("veritag.corpus", "load_manifest", "corpus.load_s", None),
    ("veritag.corpus", "CorpusManifest.load_html", "corpus.load_s", _count_load_html),
    ("veritag.markup", "parse_html", "markup.parse_s", _count_parse),
    ("veritag.markup", "extract_article", "markup.article_s", _count_article),
    ("veritag.markup", "markup_features", "markup.features_s", None),
    ("veritag.linguistics.text", "tokenize", "linguistics.text.tokenize_s", _count_tokenize),
    ("veritag.linguistics.tagger", "morphological_features", "linguistics.tagger.tag_s", _count_tagger),
    ("veritag.linguistics.dictionary", "dictionary_scores", "linguistics.dictionary.scores_s", _count_dictionary),
    ("veritag.linguistics.readability", "readability_features", "linguistics.readability.features_s", None),
    ("veritag.featureset", "extract_document", "featureset.extract_self_s", _count_extract),
    ("veritag.featureset", "write_feature_csv", "featureset.csv_write_s", None),
    ("veritag.featureset", "read_feature_csv", "featureset.csv_read_s", None),
    ("veritag.featureset", "standardize_fit", "featureset.standardize_s", None),
    ("veritag.featureset", "standardize_apply", "featureset.standardize_s", None),
    ("veritag.selection", "select_features", "selection.select_self_s", _count_select),
    ("veritag.selection", "shannon_entropy_score", "selection.entropy_s", None),
    ("veritag.selection", "mutual_info_score", "selection.mi_s", None),
    ("veritag.selection", "tree_importance", "selection.tree_s", None),
    ("veritag.selection", "l1_score", "selection.l1_s", None),
    ("veritag.models.svm", "svm_train", "models.svm.train_s", _count_svm),
    ("veritag.models.neighbors", "knn_predict", "models.neighbors.predict_s", _count_knn),
    ("veritag.models.forest", "rf_train", "models.forest.train_s", None),
    ("veritag.models.forest", "rf_predict", "models.forest.predict_s", _count_rf),
    ("veritag.models.baseline", "BaselineFeaturizer.fit", "models.baseline.fit_s", _count_baseline_fit),
    ("veritag.models.baseline", "BaselineFeaturizer.transform_many", "models.baseline.transform_s", None),
    ("veritag.models.pipeline", "TrainedPipeline.predict_matrix", "models.pipeline.predict_matrix_s", _count_predict_matrix),
    ("veritag.models.persistence", "save_pipeline", "models.persistence.save_s", _count_save),
    ("veritag.models.persistence", "load_pipeline", "models.persistence.load_s", None),
    ("veritag.evaluation", "kfold_cv", "evaluation.protocol_self_s", None),
    ("veritag.evaluation", "temporal_eval", "evaluation.protocol_self_s", None),
    ("veritag.evaluation", "feature_grid_eval", "evaluation.protocol_self_s", None),
)


def _wrap(tracer: Tracer, func: Callable, name: str, layer: str, count: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(layer)
        if count is not None:
            count(tracer, args, result)
        return result

    traced.__wrapped__ = func
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target wherever it is bound; return a function that
    restores the originals."""
    restore: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items()) if n == "veritag" or n.startswith("veritag.")]
    for module_name, path, layer, count in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, path, layer, count)
        if outer:  # a method: the class is shared by every importer
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall() -> None:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return uninstall
