"""The benchmark's workloads: three pinned PBFT campaigns.

Every workload is a whole `repro campaign` at campaign scale
(``PbftConfig.campaign_scale()``) with a pinned campaign seed, so every
run of a set executes the identical trajectory and its work counters
repeat exactly. The ``--seed`` a run receives only picks which results
the correctness checks re-derive (see ``checks.sample_indices``).

The client-count dimension is narrowed from the CLI's 10-100 to 10-20
correct clients: the full range makes one reference campaign take
54-64 s on a 2-core box, which does not fit the benchmark's run length.
Everything else (plugins, their default dimensions, the PBFT config,
the controller) is what ``repro campaign --tools ...`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Correct-client range of every workload's ``clients`` tool (inclusive).
MIN_CLIENTS, MAX_CLIENTS, CLIENT_STEP = 10, 20, 10


@dataclass(frozen=True)
class Workload:
    """One campaign configuration; why each exists is in BENCHMARK.json."""

    name: str
    tools: Tuple[str, ...]
    strategy: str  # "avd" | "hybrid"
    budget: int
    workers: int = 1
    batch_size: Optional[int] = None
    #: Telemetry JSONL + checkpoints (every 25 tests, the CLI default)
    #: beside the compute.
    artifacts: bool = False

    @property
    def timed(self) -> bool:
        """Whether scenarios fork from benign-prefix snapshots."""
        return "timing" in self.tools

    @property
    def setup_probes(self) -> int:
        """Extra interpreters per run that stop at the first scenario, so
        ``setup_s`` is a median of several set-ups. The pool's set-up
        includes its cache warm-up (seconds), so it is measured once."""
        return 4 if self.workers == 1 else 0


#: Pinned for every workload (the ROADMAP reference command's seed).
CAMPAIGN_SEED = 7
TIMED_TOOLS = ("mac", "clients", "primary", "timing")
UNTIMED_TOOLS = ("mac", "clients")

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="campaign_timed",
            tools=TIMED_TOOLS,
            strategy="avd",
            budget=60,
        ),
        Workload(
            name="campaign_untimed",
            tools=UNTIMED_TOOLS,
            strategy="avd",
            budget=40,
        ),
        Workload(
            name="campaign_pool_hybrid",
            tools=TIMED_TOOLS,
            strategy="hybrid",
            budget=160,
            workers=2,
            batch_size=4,
            artifacts=True,
        ),
    )
}


def build_plugins(tools):
    """The plugin list ``repro campaign --tools`` builds, clients narrowed."""
    from repro.plugins import (
        AttackTimingPlugin,
        ClientCountPlugin,
        MacCorruptionPlugin,
        PrimaryBehaviorPlugin,
    )

    factories = {
        "mac": MacCorruptionPlugin,
        "clients": lambda: ClientCountPlugin(MIN_CLIENTS, MAX_CLIENTS, CLIENT_STEP),
        "primary": PrimaryBehaviorPlugin,
        "timing": AttackTimingPlugin,
    }
    return [factories[name]() for name in tools]


def build_target(workload: Workload):
    """(target, plugins) for one workload, built from public constructors."""
    from repro.pbft import PbftConfig
    from repro.targets.pbft_target import PbftTarget

    plugins = build_plugins(workload.tools)
    return PbftTarget(plugins, config=PbftConfig.campaign_scale()), plugins


def build_strategy(workload: Workload, target, plugins):
    from repro.core.exploration import AvdExploration, HybridExploration

    cls = HybridExploration if workload.strategy == "hybrid" else AvdExploration
    return cls(target, plugins, seed=CAMPAIGN_SEED)
