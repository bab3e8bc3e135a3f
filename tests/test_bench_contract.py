"""The benchmark's tracer names package functions by module and dotted
path; each must still resolve, or a traced bench run crashes."""

from __future__ import annotations

import importlib
import inspect
import json
import random
import sys
import types
from pathlib import Path

from veritag import extract_article, granularity_text, parse_html, tokenize
from veritag.featureset import GRANULARITIES

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_bench_module(path: Path) -> types.ModuleType:
    # compiled from source so that no bytecode is written next to the bench
    module = types.ModuleType("perfbench_" + path.stem)
    module.__file__ = str(path)
    # registered while it runs: dataclasses look their module up by name
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_trace_target_resolves():
    targets = _load_bench_module(TRACER).TARGETS
    assert targets
    for module_name, path, _layer, _count in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{path} is gone"
        assert callable(owner), f"{module_name}.{path} is not callable"


def test_token_counters_read_the_first_argument():
    """The tracer counts tagged and dictionary tokens as ``len(args[0])``,
    so both functions must still take the token sequence first."""
    tracer = _load_bench_module(TRACER)
    counters = {(module, path): count for module, path, _layer, count in tracer.TARGETS}
    tokens = ["The", "cat", "sat", "."]
    for module_name, path, metric in (
        ("veritag.linguistics.tagger", "morphological_features", "linguistics.tagger.tokens"),
        ("veritag.linguistics.dictionary", "dictionary_scores", "linguistics.dictionary.tokens"),
    ):
        function = getattr(importlib.import_module(module_name), path)
        first = next(iter(inspect.signature(function).parameters.values()))
        assert first.name == "tokens"
        assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        t = tracer.Tracer()
        counters[module_name, path](t, (tokens,), None)
        assert t.counts[metric] == len(tokens)


def test_text_and_rule_counters_read_real_results(demo_docs):
    """The bench reports token, sentence and extraction-rule counts through
    the tracer's counters; fed real ``tokenize`` and ``extract_article``
    results, they must count what the results hold, and every extraction
    note must land on one of the rule metrics the benchmark declares."""
    tracer = _load_bench_module(TRACER)
    hostile = _load_bench_module(WORKLOADS)._hostile_pages(random.Random(7))
    assert len(hostile) == 5
    pages = [doc.html for doc in demo_docs] + list(hostile.values())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"] for m in declared["per_layer"] if m["name"].startswith("markup.rule.")}
    assert len(rules) == 8

    t = tracer.Tracer()
    tokens = sentences = notes = 0
    for html in pages:
        tree = parse_html(html)
        article = extract_article(tree)
        tracer._count_article(t, (tree,), article)
        notes += len(article.extraction_notes)
        for granularity in GRANULARITIES:
            text = granularity_text(article, granularity)
            result = tokenize(text)
            tracer._count_tokenize(t, (text,), result)
            tokens += len(result.tokens)
            sentences += len(result.sentences)

    assert t.counts["linguistics.text.tokenize_calls"] == len(pages) * len(GRANULARITIES)
    assert t.counts["linguistics.text.tokens"] == tokens > 0
    assert t.counts["linguistics.text.sentences"] == sentences > 0
    counted = {name: n for name, n in t.counts.items() if name.startswith("markup.rule.")}
    assert set(counted) <= rules
    assert sum(counted.values()) == notes >= 2 * len(pages)
