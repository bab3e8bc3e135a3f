#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists the workloads and metrics run.py prints,
then runs every workload twice untraced and once traced, each in its own
process, and checks that every metric is printed with its unit, that the
outputs pass the run's own checks, and that corpus and artifact digests
repeat between the two untraced runs. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SEED = 3


def _check_benchmark_json(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS:
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from run.py: {sorted(set(listed) ^ set(table))}")


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _check_result(label: str, lines: list[str], result: dict, expected: dict, failures: list[str]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        failures.append(f"{label}: outputs failed their checks: {[l for l in lines if l.startswith('problem')]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        failures.append(f"{label}: attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        failures.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            failures.append(f"{label}: {name} lacks a number with unit {unit}")
    printed = {line.split()[1] for line in lines if line.startswith(("metric ", "layer "))}
    missing = set(expected) - printed
    if missing:
        failures.append(f"{label}: report lines lack {sorted(missing)}")


def _digests(lines: list[str]) -> list[str]:
    return [line for line in lines if line.startswith(("corpus_sha256", "artifact_sha256"))]


def main() -> int:
    failures: list[str] = []
    _check_benchmark_json(failures)
    for workload in run.WORKLOADS:
        first_lines, first = _run(workload, 0)
        second_lines, second = _run(workload, 0)
        traced_lines, traced = _run(workload, 1)
        expected_e2e = {**run.END_TO_END, **run.REPORT_ONLY}
        _check_result(f"{workload} trace=0", first_lines, first, run.END_TO_END, failures)
        _check_result(f"{workload} trace=1", traced_lines, traced, run.PER_LAYER, failures)
        printed = {line.split()[1] for line in first_lines if line.startswith("metric ")}
        if set(expected_e2e) - printed:
            failures.append(f"{workload}: report lines lack {sorted(set(expected_e2e) - printed)}")
        layer_lines = {line.split()[1] for line in traced_lines if line.startswith("layer ")}
        if set(run.EVALUATE_LAYER_TIMES) - layer_lines:
            failures.append(f"{workload}: traced report lacks {sorted(set(run.EVALUATE_LAYER_TIMES) - layer_lines)}")
        if not _digests(first_lines) or _digests(first_lines) != _digests(second_lines):
            failures.append(f"{workload}: digests differ between two runs with seed {SEED}")
        if _digests(first_lines) != _digests(traced_lines):
            failures.append(f"{workload}: the traced run's digests differ from the untraced run's")
        print(f"{workload}: {len(_digests(first_lines))} digests repeat; "
              f"{len(first['metrics'])} end-to-end and {len(traced['metrics'])} per-layer metrics")
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
