#!/usr/bin/env python3
"""Small-size self-check of the campaign benchmark.

Runs every workload at a few hundred prefixes through ``run.py``: once
untraced and twice traced with the same seed.  It asserts that each run is
correct, that every metric ``BENCHMARK.json`` names is printed by name with
its unit (as a ``name value unit`` line and in the JSON result), and that
the per-layer counts and the records digest repeat exactly between the two
traced runs.  Usage, from the repository root::

    python3 campaignbench/selfcheck.py [--prefixes 300] [--seed 1]

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Any, Dict, List

from run import EXACT_PER_LAYER, ROOT, WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, seed: int, prefixes: int, trace: int) -> List[str]:
    command = [
        sys.executable, os.path.join(ROOT, "campaignbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--prefixes", str(prefixes),
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600
    )
    return done.stdout.decode("utf-8").strip().splitlines()


def _check_output(
    lines: List[str], declared: List[Dict[str, Any]], label: str
) -> List[str]:
    """Problems with one run's output against the declared metrics."""
    problems = []
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {metric["name"] for metric in declared}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = metrics.get(name, {}).get("value")
        if metrics.get(name, {}).get("unit") != unit:
            problems.append(f"{label}: {name} unit is not {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
        if printed.get(name) != unit:
            problems.append(f"{label}: {name} not printed with unit {unit}")
    return problems


def _digest(lines: List[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("records_sha256 "))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--prefixes", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    problems: List[str] = []
    for workload in WORKLOADS:
        plain = _run(workload, args.seed, args.prefixes, trace=0)
        first = _run(workload, args.seed, args.prefixes, trace=1)
        second = _run(workload, args.seed, args.prefixes, trace=1)
        problems += _check_output(plain, benchmark["end_to_end"], f"{workload} trace 0")
        problems += _check_output(first, benchmark["per_layer"], f"{workload} trace 1")
        problems += _check_output(second, benchmark["per_layer"], f"{workload} trace 1")
        if not _digest(plain) == _digest(first) == _digest(second):
            problems.append(f"{workload}: records differ between runs")
        counts = [json.loads(out[-1])["metrics"] for out in (first, second)]
        for name in EXACT_PER_LAYER:
            values = [metrics[name]["value"] for metrics in counts]
            if values[0] != values[1]:
                problems.append(f"{workload}: {name} not exact: {values}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
