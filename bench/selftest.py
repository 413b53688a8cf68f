"""Smoke-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at smoke size, untraced and
traced, and checks that each run passes its correctness gates and
prints every metric BENCHMARK.json names, with its unit, as a number
(end-to-end metrics above zero).  It also checks that one seed gives
the same inputs twice and another seed different embedding inputs.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    inputs = next(line for line in lines if line.startswith("inputs: "))
    return json.loads(lines[-1]), inputs


def _problems(spec: dict, group: str, result: dict) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"gates: correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in spec[group]}
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r} is not a number")
        elif group == "end_to_end" and value <= 0:
            problems.append(f"{name}: value {value!r} is not above zero")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    inputs: dict[tuple[str, int], str] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, inputs[workload, trace] = _run(spec, workload, 1, trace)
            problems = _problems(spec, group, result)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for problem in problems:
                print(f"     {problem}")
        # the traced and untraced runs above used the same seed
        if inputs[workload, 0] != inputs[workload, 1]:
            failures += 1
            print(f"FAIL {workload}: one seed gave two different inputs")
    _, other = _run(spec, "embed", 2, 0)
    if other == inputs["embed", 0]:
        failures += 1
        print("FAIL embed: seeds 1 and 2 gave the same inputs")
    print(f"{'FAIL' if failures else 'PASS'}: {failures} failing check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
