"""Outside-in layer trace: spans recorded around calls into each layer.

Nothing under ``src/`` is instrumented. :func:`install` replaces a fixed
set of functions and methods of the program with wrappers that record a
span (name, start, end, parent) in memory; the spans are written out as
JSONL when the run ends and folded into per-layer metrics by
:func:`layer_metrics`. A layer's self time is its spans' time minus the
time of their child spans.

Wrappers record only in the process that installed them. Pool workers
forked from it inherit the wrappers but call straight through: time
inside workers is out of reach from outside the program.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_ns")

    def __init__(self, name: str, start: int, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, Any] = {}
        self.child_ns = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """In-memory span recorder for one process (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.pid = os.getpid()
        #: Spans are recorded only while active (the campaign itself, not
        #: the checks that re-execute scenarios after it).
        self.active = False

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(*args)`` runs ahead of the span and its value is passed
        to ``after(state, args, result)``, whose dict becomes the span's
        attributes (work counters read around the call).
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            state = before(*args) if before is not None else None
            index = len(tracer.spans)
            span = Span(name, 0, tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].child_ns += span.ns
            if after is not None:
                span.attrs.update(after(state, args, result))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": span.parent,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _events_before(deployment, *_args) -> int:
    return deployment.simulator.events_executed


def _events_delta(before: int, args, _result) -> Dict[str, Any]:
    return {"events": args[0].simulator.events_executed - before}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.core import backends, coverage, parallel, persistence, snapshot
    from repro.core.controller import TestController
    from repro.core.executor import ScenarioExecutor
    from repro.pbft.cluster import PbftDeployment
    from repro.targets.pbft_target import PbftScenarioSpec, PbftTarget
    from repro.telemetry.bus import TelemetryBus

    wrap = tracer.wrap
    wrap(TestController, "generate", "controller.generate")
    # The controller has no public absorb entry point; its private step is
    # wrapped so search-side cost after each execution is still seen.
    wrap(TestController, "_absorb", "controller.absorb")
    wrap(ScenarioExecutor, "execute_isolated", "executor.execute")
    wrap(PbftTarget, "execute", "target.execute")
    wrap(PbftTarget, "baseline", "target.baseline")
    wrap(
        PbftScenarioSpec,
        "build_prefix",
        "cluster.prefix",
        after=lambda _s, _a, deployment: {"events": deployment.simulator.events_executed},
    )
    wrap(PbftDeployment, "run", "cluster.run", before=_events_before, after=_events_delta)
    wrap(
        snapshot.SimSnapshot,
        "capture",
        "snapshot.capture",
        after=lambda _s, _a, snap: {"bytes": snap.size_bytes},
    )
    wrap(snapshot.SimSnapshot, "fork", "snapshot.fork")
    wrap(coverage, "extract_features", "coverage.extract")
    wrap(parallel.ParallelScenarioExecutor, "_ensure_backend", "parallel.ensure_backend")
    wrap(parallel.ParallelScenarioExecutor, "close", "parallel.close")
    wrap(parallel, "warm_target", "parallel.warm")
    wrap(
        backends.ProcessPoolBackend,
        "ensure",
        "backends.ensure",
        after=lambda _s, args, _r: {"blob_bytes": len(args[0].target_blob)},
    )
    wrap(backends.ProcessPoolBackend, "run_batch_isolated", "backends.batch")
    wrap(TelemetryBus, "publish", "telemetry.publish")
    wrap(persistence, "save_checkpoint", "persistence.checkpoint")


def _ancestor(spans: List[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(
    spans: List[Span], campaign_ns: int, workers_ready_ns: List[int]
) -> Dict[str, float]:
    """Per-layer figures from one traced campaign (seconds and counts).

    Times are self times unless noted: baseline calibration and benign
    prefixes are whole phases (their deployment runs included), a
    scenario run is a ``cluster.run`` outside any baseline. Pool start
    runs from the pool's construction until the last worker is ready.
    """
    s = 1e-9
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def self_s(name: str) -> float:
        return sum(span.self_ns for span in named(name)) * s

    def total_s(name: str, where: Callable[[Span], bool] = lambda _: True) -> float:
        return sum(span.ns for span in named(name) if where(span)) * s

    in_baseline = lambda span: _ancestor(spans, span, "target.baseline")  # noqa: E731
    in_warm = lambda span: _ancestor(spans, span, "parallel.warm")  # noqa: E731
    baseline_runs = [run for run in named("cluster.run") if in_baseline(run)]
    scenario_runs = [run for run in named("cluster.run") if not in_baseline(run)]
    calibrating = [
        span
        for span in named("target.baseline")
        if not in_baseline(span) and span.child_ns > 0
    ]
    executes = named("executor.execute")
    top_ns = sum(span.ns for span in spans if span.parent is None)
    ensures = named("backends.ensure")
    return {
        "controller.generate_s": self_s("controller.generate"),
        "controller.absorb_s": self_s("controller.absorb"),
        "executor.execute_s": total_s("executor.execute") / len(executes) if executes else 0.0,
        "target.baseline_runs": len(baseline_runs),
        "target.baseline_s": sum(span.ns for span in calibrating) * s,
        "target.baseline_events": sum(run.attrs.get("events", 0) for run in baseline_runs),
        "cluster.prefix_runs": len(named("cluster.prefix")),
        "cluster.prefix_s": total_s("cluster.prefix"),
        "cluster.prefix_events": sum(span.attrs.get("events", 0) for span in named("cluster.prefix")),
        "cluster.run_s": sum(run.ns for run in scenario_runs) * s,
        "cluster.run_events": sum(run.attrs.get("events", 0) for run in scenario_runs),
        "snapshot.capture_s": self_s("snapshot.capture"),
        "snapshot.fork_s": self_s("snapshot.fork"),
        "snapshot.bytes": sum(span.attrs.get("bytes", 0) for span in named("snapshot.capture")),
        "coverage.coverage_s": self_s("coverage.extract"),
        "parallel.parent_warm_s": total_s("parallel.warm"),
        "parallel.parent_warm_baselines": sum(1 for run in baseline_runs if in_warm(run)),
        "parallel.parent_warm_captures": sum(
            1 for span in named("snapshot.capture") if in_warm(span)
        ),
        "backends.batch_s": total_s("backends.batch"),
        "backends.target_blob_bytes": ensures[0].attrs.get("blob_bytes", 0) if ensures else 0,
        "telemetry.publish_s": total_s("telemetry.publish"),
        "persistence.checkpoint_s": total_s("persistence.checkpoint"),
        "trace.span_coverage": top_ns / campaign_ns if campaign_ns > 0 else 0.0,
        "backends.pool_start_s": (
            (max(workers_ready_ns) - ensures[0].start) * s
            if ensures and workers_ready_ns
            else 0.0
        ),
    }
