"""One campaign in a fresh interpreter; prints one JSON result line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``::

    python3 campaignbench/worker.py --workload W --seed S --spawned-at T
        [--trace] [--setup-only] [--prefixes N]

``--spawned-at`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this process, so ``setup_s`` covers interpreter start, imports and
the spec build.  ``campaign_s`` is the wall time of
``CampaignRunner(specs, workers=1).run()`` alone.  A traced worker writes
its spans to ``.campaignbench/spans-<workload>.bin`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time
from typing import Any, Dict, List

from repro.scenarios.campaign import CampaignRunner

from workloads import build_specs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    """VmHWM of this process; ``ru_maxrss`` would be inherited across exec."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class LabCounts:
    """Exact work counts read from each finished scenario's record and lab."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {}
        self.flow_mods_batched = 0.0

    def _add(self, name: str, value: int) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def __call__(self, record: Dict[str, Any], lab: Any) -> None:
        routers = list(lab.edge_routers) + list(lab.providers)
        speakers = [router.bgp for router in routers]
        speakers += [controller.bgp for controller in lab.controllers]
        bfds = [router.bfd for router in routers if router.bfd is not None]
        bfds += [controller.bfd for controller in lab.controllers]
        self._add("sim.events", record["sim_events"])
        self._add("net.frames", sum(link.frames_delivered for link in lab.links.values()))
        self._add("bgp.updates", sum(
            speaker.peer_session(peer).updates_received
            for speaker in speakers
            for peer in speaker.peers()
        ))
        self._add("bfd.packets", sum(
            manager.session(peer).packets_sent
            for manager in bfds
            for peer in manager.peers()
        ))
        self._add("router.fib_writes", sum(
            router.fib_updater.writes_applied + router.fib_updater.deletes_applied
            for router in routers
        ))
        self._add("core.updates_processed", sum(
            controller.backup_groups.updates_processed for controller in lab.controllers
        ))
        self._add("core.flow_mods", record["flow_mods_pushed"])
        self._add("core.flow_mod_batches", record["flow_mod_batches"])
        # The record's ratio is batched flow-mods over batches (6 decimals).
        self.flow_mods_batched += record["flow_mods_per_batch"] * record["flow_mod_batches"]
        self._add("openflow.flow_mods_applied", lab.switch.flow_mods_applied)
        self._add("supercharge.repoints", record["remote_repoints"])
        self._add("supercharge.fallback_prefixes", record["remote_fallback_prefixes"])
        self._add("traffic.evaluations", lab.monitor.evaluations)
        self._add("telemetry.trace_events", record["trace_events"] or 0)

    def metrics(self) -> Dict[str, float]:
        batches = self.totals.get("core.flow_mod_batches", 0)
        ratio = self.flow_mods_batched / batches if batches else 0.0
        return {**self.totals, "core.flow_mods_per_batch": ratio}


def _scenario_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: record[key]
        for key in (
            "name", "supercharged", "failures", "converged",
            "recovered", "mean_ms", "max_ms", "sim_events",
        )
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--prefixes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    specs = build_specs(args.workload, args.seed, args.prefixes)
    recorder = None
    counts = LabCounts()
    if args.trace:
        from tracer import SpanRecorder

        recorder = SpanRecorder(on_scenario=counts)
        recorder.install()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result: Dict[str, Any] = {"setup_s": setup_s, "scenarios": len(specs)}
    if not args.setup_only:
        started = time.perf_counter()
        campaign = CampaignRunner(specs, workers=1).run()
        campaign_s = time.perf_counter() - started
        records: List[Dict[str, Any]] = campaign.scenarios
        result.update(
            campaign_s=campaign_s,
            peak_rss_mb=_peak_rss_mb(),
            records_sha256=hashlib.sha256(
                campaign.scenarios_json().encode("utf-8")
            ).hexdigest(),
            records=[_scenario_summary(record) for record in records],
        )
    if recorder is not None:
        recorder.uninstall()
        layers = recorder.layer_totals()
        phases = recorder.phase_totals()
        per_layer: Dict[str, float] = {}
        for layer, totals in layers.items():
            per_layer[f"{layer}.self_s"] = totals["self_s"]
            per_layer[f"{layer}.calls"] = totals["calls"]
        for phase, seconds in phases.items():
            per_layer[f"scenarios.{phase}_s"] = seconds
        per_layer["scenarios.warmups"] = recorder.warmups
        per_layer.update(counts.metrics())
        result["per_layer"] = per_layer
        spans_dir = os.path.join(ROOT, ".campaignbench")
        os.makedirs(spans_dir, exist_ok=True)
        recorder.write(os.path.join(spans_dir, f"spans-{args.workload}.bin"))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
