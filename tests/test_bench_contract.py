"""The benchmark's tracer names package functions by module and dotted
path; each must still resolve, or a traced bench run crashes."""

from __future__ import annotations

import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # compiled from source so that no bytecode is written next to the bench
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
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
    tracer = _load_tracer()
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
