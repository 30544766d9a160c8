#!/usr/bin/env python3
"""Demo: declarative scenario campaign on the worker-pool runner.

Expands a parameter grid over the Figure-4 base scenario — prefix-table
size x failure type (local link_down vs remote_withdraw) x remote-group
planning off/on — into 8 scenarios, executes them across a
``multiprocessing`` worker pool (each worker owns its own deterministic
simulator), writes the aggregated JSON report and then re-runs the whole
campaign to demonstrate the determinism contract: with the same seed, the
per-scenario metrics are byte-identical run to run, regardless of the
worker count (the remote planner draws only from a private SeededRandom
fork, so enabling it never perturbs the other seeded decisions).

Run with::

    python examples/scenario_campaign.py [--seed N] [--workers N]
        [--output scenario_campaign_results.json]

The default output is the committed golden report that
``tests/test_scenario_campaign.py`` compares against: a rerun at the
defaults rewrites only its wall-clock ``campaign`` header.
"""

from __future__ import annotations

import argparse

from repro.scenarios import CampaignRunner, expand_grid, get_preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="base campaign seed")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker-pool size (1 = in-process)")
    parser.add_argument("--prefixes", type=int, nargs=2, default=[150, 300],
                        metavar=("SMALL", "LARGE"), help="prefix-table grid axis")
    parser.add_argument("--flows", type=int, default=8,
                        help="monitored destinations per scenario")
    parser.add_argument("--output", default="scenario_campaign_results.json",
                        help="where to write the aggregated JSON report")
    arguments = parser.parse_args()

    base = get_preset("figure4", seed=arguments.seed, monitored_flows=arguments.flows)
    grid = {
        "num_prefixes": list(arguments.prefixes),
        "failure": ["link_down", "remote_withdraw"],
        "remote_groups": [False, True],
    }
    specs = expand_grid(base, grid)
    print(f"Expanded grid into {len(specs)} scenarios "
          f"(prefixes x failure x remote_groups), base seed {arguments.seed}.")
    print(f"Running on a pool of {arguments.workers} worker(s)…")

    result = CampaignRunner(specs, workers=arguments.workers).run()
    print()
    print(result.table())
    aggregate = result.aggregate()
    print(f"\n{aggregate['scenarios']} scenarios in {result.wall_seconds:.1f}s "
          f"({result.throughput:.2f} scenarios/s), "
          f"worst max convergence {aggregate['worst_max_ms']:.1f} ms, "
          f"all recovered: {aggregate['all_recovered']}")

    result.write(arguments.output)
    print(f"Aggregated JSON report written to {arguments.output}")

    print("\nRe-running the campaign to check reproducibility…")
    repeat = CampaignRunner(specs, workers=arguments.workers).run()
    identical = result.scenarios_json() == repeat.scenarios_json()
    print("Per-scenario metrics byte-identical across runs:", identical)
    if not identical:
        print("ERROR: campaign is not reproducible")
        return 1
    return 0 if aggregate["all_converged"] and aggregate["all_recovered"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
