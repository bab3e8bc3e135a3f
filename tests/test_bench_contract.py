"""The benchmark's tracer names package functions by module and dotted
path; each must still resolve, or a traced bench run crashes."""

from __future__ import annotations

import importlib
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
