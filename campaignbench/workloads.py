"""Workload definitions: scenario specs derived from the workload seed.

Specs use presets plus ``num_prefixes``, ``seed``, ``failures`` and the
churn fields only, so the workloads survive knob deletions in the model.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.scenarios.campaign import expand_grid
from repro.scenarios.presets import get_preset
from repro.scenarios.spec import ScenarioSpec

#: The six failure variants swept over one shared table.
SWEEP_FAILURES = (
    "link_down", "link_flap", "bfd_loss", "session_reset",
    "remote_withdraw", "remote_nexthop_shift",
)

#: Table size per workload (prefixes per provider feed).
SIZES = {
    "sweep-shared-table": 800,
    "remote-fresh-tables": 2500,
    "churn-replay": 1000,
}


def sweep_shared_table(seed: int, prefixes: int) -> List[ScenarioSpec]:
    """``figure4`` (supercharged, 2 providers), six failure variants that
    share one seed and so one table and warm-up key."""
    base = get_preset("figure4", num_prefixes=prefixes, seed=seed)
    return expand_grid(base, {"failure": list(SWEEP_FAILURES), "seed": [seed]})


def remote_fresh_tables(seed: int, prefixes: int) -> List[ScenarioSpec]:
    """``remote-supercharge`` (3 providers, full-table remote withdraw) at
    two seeds, so no two scenarios share a warm-up key."""
    return [
        get_preset("remote-supercharge", num_prefixes=prefixes, seed=seed + offset)
        for offset in (0, 1)
    ]


def churn_replay(seed: int, prefixes: int) -> List[ScenarioSpec]:
    """``ris-churn`` plus a standalone ``figure4`` under the same churn
    stream and its default ``link_down``."""
    return [
        get_preset("ris-churn", num_prefixes=prefixes, seed=seed),
        get_preset(
            "figure4-standalone",
            num_prefixes=prefixes,
            seed=seed + 1,
            churn_rate_ups=500.0,
            churn_withdraw_fraction=0.3,
        ),
    ]


BUILDERS: Dict[str, Callable[[int, int], List[ScenarioSpec]]] = {
    "sweep-shared-table": sweep_shared_table,
    "remote-fresh-tables": remote_fresh_tables,
    "churn-replay": churn_replay,
}


def build_specs(workload: str, seed: int, prefixes: int = 0) -> List[ScenarioSpec]:
    """The validated specs of ``workload``; ``prefixes`` 0 uses SIZES."""
    return BUILDERS[workload](seed, prefixes or SIZES[workload])
