"""One benchmark round: a whole campaign in a fresh interpreter.

Started by ``run.py`` with the ``REPRO_*`` switches cleared, so the
process-wide caches (benign baselines, prefix snapshots, memoized keys)
start empty. Prints one JSON line: timings, resource use, work counters,
the trajectory digest and the correctness-check verdicts. Timings stop
when the campaign returns; every counter and check is taken after that.

    python3 perfbench/campaign.py --workload campaign_timed --seed 1 \
        --spawned-ns <perf_counter_ns at spawn> --workdir DIR [--spans PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import sys
import time


class SetupReached(Exception):
    """Raised at the first scenario dispatch of a set-up probe."""


def _install_setup_probe(workload, workdir, marks, stop_at_first):
    """Record when the campaign can execute its first scenario.

    Serially that is the first ``execute_isolated`` call. On the pool it is
    the later of the first batch dispatch and the moment every worker has
    finished its initializer (worker start is lazy: it happens on the
    first submission), each worker stamping a file in ``workdir``.
    """
    from repro.core import backends, parallel
    from repro.core.executor import ScenarioExecutor

    if workload.workers > 1:
        owner, attr = backends.ProcessPoolBackend, "run_batch_isolated"
        original_init = parallel._init_worker

        def init_and_stamp(*args):
            original_init(*args)
            path = os.path.join(workdir, f"ready-{os.getpid()}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(str(time.perf_counter_ns()))

        parallel._init_worker = init_and_stamp
    else:
        owner, attr = ScenarioExecutor, "execute_isolated"
    original = getattr(owner, attr)

    def first_dispatch(*args, **kwargs):
        if "dispatch_ns" not in marks:
            marks["dispatch_ns"] = time.perf_counter_ns()
            if stop_at_first:
                raise SetupReached()
        return original(*args, **kwargs)

    setattr(owner, attr, first_dispatch)


def _workers_ready_ns(workdir):
    stamps = []
    for name in os.listdir(workdir):
        if name.startswith("ready-"):
            with open(os.path.join(workdir, name), encoding="utf-8") as handle:
                stamps.append(int(handle.read()))
    return stamps


def trajectory_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(
            repr(
                (result.test_index, result.key, repr(result.impact), sorted(result.params.items()))
            ).encode("utf-8")
        )
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace the campaign; write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checks
    from workloads import WORKLOADS, build_strategy, build_target

    workload = WORKLOADS[args.workload]
    from repro.core.campaign import run_campaign
    from repro.core.spec import CampaignSpec

    marks = {}
    _install_setup_probe(workload, args.workdir, marks, args.setup_only)
    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    target, plugins = build_target(workload)
    strategy = build_strategy(workload, target, plugins)
    telemetry_path = checkpoint_path = None
    telemetry = None
    if workload.artifacts:
        from repro.telemetry import JsonlSink, TelemetryBus

        telemetry_path = os.path.join(args.workdir, "telemetry.jsonl")
        checkpoint_path = os.path.join(args.workdir, "checkpoint.json")
        telemetry = TelemetryBus()
        telemetry.attach(JsonlSink(telemetry_path))
    spec = CampaignSpec(
        budget=workload.budget,
        workers=workload.workers,
        batch_size=workload.batch_size,
        checkpoint_path=checkpoint_path,
        telemetry=telemetry,
        backend="process",
    )

    start_ns = time.perf_counter_ns()
    if tracer is not None:
        tracer.active = True
    try:
        campaign = run_campaign(strategy, spec)
    except SetupReached:
        print(json.dumps({"setup_s": (marks["dispatch_ns"] - args.spawned_ns) * 1e-9}))
        return 0
    finally:
        if telemetry is not None:
            telemetry.close()
    end_ns = time.perf_counter_ns()
    if tracer is not None:
        tracer.active = False
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)

    # ---- everything below is outside the timed region ----------------
    ready = _workers_ready_ns(args.workdir)
    setup_end_ns = max([marks["dispatch_ns"]] + ready)
    results = campaign.results
    tests = len(results)
    failed = sum(1 for result in results if result.failed)
    from repro.core import snapshot

    entries, hits, misses, evictions = snapshot.cache().stats()
    counters = {
        "snapshot_entries": entries,
        "snapshot_hits": hits,
        "snapshot_misses": misses,
        "snapshot_evictions": evictions,
        "target_bytes": len(pickle.dumps(target)),
        "result_bytes": sum(len(pickle.dumps(result)) for result in results),
    }
    if workload.artifacts:
        counters["telemetry_bytes"] = os.path.getsize(telemetry_path)
        counters["checkpoint_bytes"] = os.path.getsize(checkpoint_path)

    fold_s = None
    errors = checks.check_results(results, workload.budget)
    errors += checks.verify_samples(
        workload, strategy.controller, target, results, args.seed
    )
    if workload.artifacts:
        with open(telemetry_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        counters["telemetry_events"] = len(lines)
        from repro.telemetry.view import fold_stream

        fold_start = time.perf_counter_ns()
        attribution = fold_stream(lines)
        fold_s = (time.perf_counter_ns() - fold_start) * 1e-9
        errors += checks.check_stream(lines, results)
        errors += checks.check_explain(attribution, results)
        errors += checks.check_checkpoint(checkpoint_path, workload, build_target, results)

    best = max(results, key=lambda result: result.impact) if results else None
    record = {
        "setup_s": (setup_end_ns - args.spawned_ns) * 1e-9,
        "campaign_s": (end_ns - setup_end_ns) * 1e-9,
        "campaign_wall_s": (end_ns - start_ns) * 1e-9,
        "tests": tests,
        "failed": failed,
        "cpu_s": own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime,
        "worker_cpu_s": workers.ru_utime + workers.ru_stime,
        "peak_rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024.0,
        "counters": counters,
        "tests_to_best": best.test_index + 1 if best is not None else 0,
        "digest": trajectory_digest(results),
        "errors": errors,
    }
    if tracer is not None:
        import spans

        layers = spans.layer_metrics(tracer.spans, end_ns - start_ns, ready)
        layers.update({
            "executor.tests_to_best": record["tests_to_best"],
            "snapshot.hits": hits,
            "snapshot.misses": misses,
            "snapshot.evictions": evictions,
            "parallel.parent_snapshot_hits": hits if workload.workers > 1 else 0,
            "backends.worker_cpu_s": record["worker_cpu_s"],
            "backends.result_bytes_per_test": counters["result_bytes"] / tests,
            "telemetry.events": counters.get("telemetry_events", 0),
            "telemetry.bytes": counters.get("telemetry_bytes", 0),
            "persistence.checkpoint_bytes": counters.get("checkpoint_bytes", 0),
            "view.explain_fold_s": fold_s or 0.0,
        })
        tracer.write(args.spans)
        record["layers"] = layers
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
