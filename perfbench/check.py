#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/check.py

Builds the benchmark and its unit tests, runs the unit tests (the percentile
refusal rule, the byte compare that verifies round trips, the seeded
inputs), then runs every workload of BENCHMARK.json for one second untraced
and traced. Each run must exit 0, verify every round trip, and print every
metric the file names, with its unit, both as a `name value unit` line and
in the closing JSON object. Exits 0 when everything passes.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def check_run(workload, trace, expected):
    """Returns the problems found in one short run of `workload`."""
    out = subprocess.run(
        [sys.executable, os.path.join(run.SOURCE_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return [f"exit code {out.returncode}"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for name, unit in expected.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: {m}")
        if printed.get(name) != unit:
            problems.append(f"{name} is not printed with unit {unit}")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not run.build(("perfbench", "perfbench_test")):
        return 1
    failures = 0
    if subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_test")]).returncode != 0:
        failures += 1
    for workload in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[group]}
            problems = check_run(workload["name"], trace, expected)
            print(f"{'FAIL' if problems else 'ok'}: {workload['name']} --trace {trace}", flush=True)
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
