"""Campaign-scale benchmark of the PBFT vulnerability-discovery campaign.

    python3 perfbench/run.py --workload campaign_timed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (it needs ``src/repro``). Each round is a
whole campaign in a fresh interpreter (``campaign.py``); rounds repeat
until ``--seconds`` would be exceeded, at least one. With ``--trace 0``
the last stdout line carries the end-to-end metrics (medians over
rounds), with ``--trace 1`` the per-layer metrics of one traced round
measured beside one untraced round. Every round's outputs are checked;
a failed check sets ``"correct": false``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for rounds (telemetry, checkpoints, spans), inside the checkout.
WORK = ".perfbench-work"
#: Switches that would change what a campaign computes or caches.
CLEARED_ENV = ("REPRO_UNOPTIMIZED", "REPRO_NO_SNAPSHOT", "REPRO_SNAPSHOT_CACHE", "REPRO_COVERAGE")
#: Every round of a run must end within this many seconds of its start.
RUN_LIMIT_S = 170

class RoundFailed(Exception):
    pass


def _child_env():
    env = {name: value for name, value in os.environ.items() if name not in CLEARED_ENV}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_round(workload, seed, deadline, trace=False, setup_only=False):
    """One campaign in a fresh interpreter; returns its JSON record.

    Every round uses the same relative directory, removed afterwards, so
    the paths the campaign records (checkpoint events) are identical from
    round to round. A traced round writes its spans beside it.
    """
    workdir = f"{WORK}/{workload}"
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    started = time.monotonic()
    try:
        record = _spawn(workload, seed, workdir, deadline, trace, setup_only)
        record["round_s"] = time.monotonic() - started
        return record
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)


def _spawn(workload, seed, workdir, deadline, trace, setup_only):
    command = [sys.executable, os.path.join(HERE, "campaign.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", workdir]
    command += ["--spans", f"{WORK}/{workload}.spans.jsonl"] if trace else []
    command += ["--setup-only"] if setup_only else []
    command += ["--spawned-ns", str(time.perf_counter_ns())]
    child = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # Pool workers share the round's session; none may outlive it.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RoundFailed(f"run did not finish within {RUN_LIMIT_S}s") from exc
        raise
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RoundFailed(f"round exited with code {child.returncode}")
    return json.loads(lines[-1])


def _code_digest():
    """Digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(base, name), "rb") as handle:
                        digest.update(name.encode() + handle.read())
    return digest.hexdigest()


def check_determinism(workload, rounds):
    """Every round, and every earlier run of the same code in this
    checkout, must reproduce the trajectory digest and work counters."""
    fingerprints = {json.dumps([r["digest"], r["counters"]], sort_keys=True) for r in rounds}
    errors = [] if len(fingerprints) == 1 else ["rounds of one run disagree on trajectory or counters"]
    path = os.path.join(ROOT, WORK, "determinism.json")
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    entry = {"code": _code_digest(), "fingerprint": sorted(fingerprints)[0]}
    previous = record.get(workload)
    if previous is not None and previous.get("code") == entry["code"]:
        if previous["fingerprint"] != entry["fingerprint"]:
            errors.append("trajectory or work counters differ from an earlier run of this code")
    record[workload] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=1)
    return errors


def machine():
    info = {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def cpu_ticks():
    """(total, steal) jiffies of the whole machine, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside the benchmark; run it from a checkout",
              file=sys.stderr)
        return 2
    # Metric names and units come from BENCHMARK.json, the one list of them.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import selftest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    errors = selftest.failures()
    ticks_before = cpu_ticks()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rounds = []
    try:
        if args.trace:
            rounds.append(run_round(args.workload, args.seed, deadline))
            rounds.append(run_round(args.workload, args.seed, deadline, trace=True))
        else:
            while True:
                rounds.append(run_round(args.workload, args.seed, deadline))
                elapsed = time.monotonic() - started
                if elapsed + elapsed / len(rounds) > args.seconds:
                    break
        setups = [r["setup_s"] for r in rounds]
        for _ in range(workload.setup_probes):
            setups.append(run_round(args.workload, args.seed, deadline, setup_only=True)["setup_s"])
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for record in rounds:
        errors += record["errors"]
    errors += check_determinism(args.workload, rounds)
    ticks_after = cpu_ticks()
    info = {"machine": machine(), "round_s": [r["round_s"] for r in rounds],
            "campaign_s": [r["campaign_s"] for r in rounds], "setup_s": setups,
            "digest": rounds[0]["digest"], "counters": rounds[0]["counters"],
            "tests_to_best": rounds[0]["tests_to_best"], "errors": errors}
    if ticks_before and ticks_after and ticks_after[0] > ticks_before[0]:
        info["steal_share"] = (ticks_after[1] - ticks_before[1]) / (ticks_after[0] - ticks_before[0])
    print(json.dumps({"info": info}, sort_keys=True))
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    if args.trace:
        untraced, traced = rounds
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["campaign_wall_s"] / untraced["campaign_wall_s"] - 1.0
        metrics = {m["name"]: metric(layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        values = {
            "tests_per_s": statistics.median(r["tests"] / r["campaign_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "cpu_per_test_s": statistics.median(r["cpu_s"] / r["tests"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["tests"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
