#!/usr/bin/env python3
"""Campaign benchmark: one workload, fresh interpreters, checked outputs.

Usage, from the repository root::

    python3 campaignbench/run.py --workload sweep-shared-table --seed 1 \\
        --seconds 32 --trace 0

``--trace 0`` runs the workload's campaign in fresh worker processes until
``--seconds`` have passed (at least three times), with set-up-only workers
between the campaigns, and reports the medians of the end-to-end metrics.  ``--trace 1`` runs untraced/traced pairs and
reports the per-layer split from the traced runs.  Every metric is printed
as ``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from tracer import LAYERS, PHASES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("sweep-shared-table", "remote-fresh-tables", "churn-replay")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "campaign_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_restore_mean_ms": "ms",
}

#: Exact work counts of the traced campaigns (records, labs, recorder).
EXACT_COUNTS = (
    "sim.events", "net.frames", "bgp.updates", "bfd.packets",
    "router.fib_writes", "core.updates_processed", "core.flow_mods",
    "core.flow_mod_batches", "openflow.flow_mods_applied",
    "supercharge.repoints", "supercharge.fallback_prefixes",
    "traffic.evaluations", "telemetry.trace_events", "scenarios.warmups",
)
#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
for _phase in PHASES:
    PER_LAYER[f"scenarios.{_phase}_s"] = "s"
for _name in EXACT_COUNTS:
    PER_LAYER[_name] = "count"
PER_LAYER["core.flow_mods_per_batch"] = "flow_mods/batch"
PER_LAYER["trace.overhead"] = "ratio"

#: Every count that must repeat exactly between traced runs of one seed.
EXACT_PER_LAYER = tuple(f"{layer}.calls" for layer in LAYERS) + EXACT_COUNTS

#: Restoration bound of the paper's supercharged router (Figure 5), ms.
PAPER_RESTORE_MS = 150.0

MIN_CAMPAIGNS = 3
#: Set-up-only workers started after each untraced campaign, so that the
#: set-up samples are many and spread over the whole run.
SETUPS_PER_CAMPAIGN = 4
#: Start no new worker once this much of the 180 s run budget is gone.
BUDGET_S = 150.0


class Run:
    """Worker launches and their results for one benchmark run."""

    def __init__(self, workload: str, seed: int, prefixes: int) -> None:
        self.workload = workload
        self.seed = seed
        self.prefixes = prefixes
        self.started = time.monotonic()
        self.errors: List[str] = []
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def room_for_another(self) -> bool:
        return self.elapsed() + self.longest < BUDGET_S

    def worker(self, *flags: str) -> Optional[Dict[str, Any]]:
        """Run one worker to completion; None if it failed."""
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        began = time.monotonic()
        # -S skips site-packages and their .pth hooks: the worker needs only
        # the standard library and src/, and set-up should not depend on
        # what else the interpreter has installed.
        command = [
            sys.executable, "-S", WORKER,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--prefixes", str(self.prefixes),
            "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
            *flags,
        ]
        try:
            done = subprocess.run(
                command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                timeout=max(1.0, 175.0 - self.elapsed()), check=False,
            )
        except subprocess.TimeoutExpired:
            self.errors.append("worker timed out")
            return None
        finally:
            self.longest = max(self.longest, time.monotonic() - began)
        lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
        if done.returncode != 0 or not lines:
            self.errors.append(f"worker exited with code {done.returncode}")
            return None
        return json.loads(lines[-1])


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else math.nan


def _scenario_failures(workload: str, records: List[Dict[str, Any]]) -> List[str]:
    """Names of the scenarios that failed to converge or recover or that
    failed the workload's restoration check."""
    failed = []
    for record in records:
        ok = record["converged"] and record["recovered"]
        if workload == "sweep-shared-table" and record["failures"] == ["link_down"]:
            # The paper's headline: supercharged link_down within ~150 ms.
            ok = ok and record["max_ms"] <= PAPER_RESTORE_MS
        if workload == "churn-replay" and not record["supercharged"]:
            # The standalone router converges at its normal slow pace.
            ok = ok and record["max_ms"] > PAPER_RESTORE_MS
        if not ok:
            failed.append(record["name"])
    return failed


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else math.nan


def _recovered(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r["converged"] and r["recovered"]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--prefixes", type=int, default=0,
        help="table size override (default: the workload's own size)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2

    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    run = Run(args.workload, args.seed, args.prefixes)
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    setups: List[float] = []
    while True:
        result = run.worker()
        if result is None:
            break
        untraced.append(result)
        setups.append(result["setup_s"])
        for _ in range(0 if args.trace else SETUPS_PER_CAMPAIGN):
            setup = run.worker("--setup-only")
            if setup is None:
                break
            setups.append(setup["setup_s"])
        if args.trace:
            result = run.worker("--trace")
            if result is None:
                break
            traced.append(result)
        enough = len(untraced) >= (1 if args.trace else MIN_CAMPAIGNS)
        if (enough and run.elapsed() >= args.seconds) or not run.room_for_another():
            break

    campaigns = untraced + traced
    checks: Dict[str, bool] = {"workers_succeeded": not run.errors and bool(untraced)}
    digests = sorted({c["records_sha256"] for c in campaigns})
    checks["records_identical"] = len(digests) == 1
    # A worker that raised counts every scenario of its campaign as failed.
    per_campaign = max((c["scenarios"] for c in campaigns), default=1)
    attempted = sum(c["scenarios"] for c in campaigns) + per_campaign * len(run.errors)
    failed_names: List[str] = []
    for campaign in campaigns:
        failed_names += _scenario_failures(args.workload, campaign["records"])
    failed = len(failed_names) + per_campaign * len(run.errors)

    metrics: Dict[str, Dict[str, Any]] = {}
    units = PER_LAYER if args.trace else END_TO_END
    values: Dict[str, float] = {}
    if untraced and not args.trace:
        values = {
            "campaign_s": _median([c["campaign_s"] for c in untraced]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
            "sim_restore_mean_ms": _mean(
                [r["mean_ms"] for r in _recovered(untraced[0]["records"])]
            ),
        }
    if traced:
        for name in PER_LAYER:
            samples = [t["per_layer"][name] for t in traced if name in t["per_layer"]]
            if samples:
                values[name] = _median(samples)
        checks["counts_exact"] = all(
            len({t["per_layer"][name] for t in traced}) == 1 for name in EXACT_PER_LAYER
        )
        for name in EXACT_PER_LAYER:
            values[name] = traced[0]["per_layer"][name]
        values["trace.overhead"] = _median(
            [t["campaign_s"] for t in traced]
        ) / _median([u["campaign_s"] for u in untraced])
    checks["metrics_finite"] = all(
        math.isfinite(values.get(name, math.nan)) for name in units
    )
    for name, unit in units.items():
        value = values.get(name, math.nan)
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}

    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{len(untraced)} untraced + {len(traced)} traced campaigns, "
        f"{len(setups)} set-ups, {run.elapsed():.1f} s"
    )
    if campaigns:
        print(f"records_sha256 {digests[0] if len(digests) == 1 else ','.join(digests)}")
        recovered = _recovered(campaigns[0]["records"])
        print(f"sim_restore_max_ms {max((r['max_ms'] for r in recovered), default=math.nan)} ms")
        for record in campaigns[0]["records"]:
            print(
                f"scenario {record['name']} converged={record['converged']} "
                f"recovered={record['recovered']} max_ms={record['max_ms']} "
                f"sim_events={record['sim_events']}"
            )
    for name in sorted(set(failed_names)):
        print(f"scenario_failed {name} x{failed_names.count(name)}")
    for error in run.errors:
        print(f"error {error}")
    for name, samples in (
        ("campaign_s", [c["campaign_s"] for c in untraced]),
        ("traced_campaign_s", [c["campaign_s"] for c in traced]),
        ("setup_s", setups),
    ):
        if samples:
            print(f"samples {name} n={len(samples)} " + " ".join(f"{v:.4f}" for v in samples))
    for name, ok in checks.items():
        print(f"check {name} {'ok' if ok else 'FAIL'}")
    print(f"scenarios_failed {failed} count (of {attempted} scenarios attempted)")
    for name, metric in metrics.items():
        print(f"{name} {values.get(name, math.nan):.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
