"""Self-test of the correctness checks: corrupted outputs must be rejected.

Each case feeds one check a valid output (which must pass) and a copy
with one deliberate defect (which must fail): a duplicated scenario key,
an impact above 1, a forked measurement that differs from the scratch
run, and a telemetry stream missing one event. ``run.py`` runs it before
every measurement; standalone:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from types import SimpleNamespace
from typing import List

import checks


def _results(keys, impacts):
    return [
        SimpleNamespace(test_index=index, key=key, impact=impact, failed=False)
        for index, (key, impact) in enumerate(zip(keys, impacts))
    ]


def _measurement():
    from repro.pbft import PbftRunResult

    return PbftRunResult(
        completed_requests=120, window_s=2.0, mean_latency_s=0.01, p99_latency_s=0.03,
        correct_clients=10, view_changes=0, new_views=0, crashed_replicas=0,
        retransmissions=0, bad_mac_rejections=0, tail_throughput_rps=60.0,
        throughput_series=(60.0, 60.0), counters={"pbft.requests": 120},
    )


def _stream(tests: int) -> List[str]:
    from repro.core.hyperspace import coords_key
    from repro.telemetry import TelemetryBus
    from repro.telemetry.events import ScenarioExecuted, key_dict
    from repro.telemetry.sinks import RingBufferSink

    sink = RingBufferSink()
    bus = TelemetryBus([sink])
    for index in range(tests):
        bus.publish(ScenarioExecuted(
            test_index=index, key=key_dict(coords_key({"x": index})), impact=0.5,
        ))
    return sink.to_lines()


def cases():
    """(name, check on the valid output, check on the corrupted output)."""
    keys = [(("x", index),) for index in range(4)]
    duplicated = keys[:3] + keys[:1]
    measurement = _measurement()
    forked = SimpleNamespace(test_index=0, measurement=measurement)
    drifted = dataclasses.replace(measurement, completed_requests=121)
    stream = _stream(4)
    results = _results(keys, [0.1] * 4)
    return [
        ("duplicated key",
         lambda: checks.check_results(_results(keys, [0.1] * 4), 4),
         lambda: checks.check_results(_results(duplicated, [0.1] * 4), 4)),
        ("impact above 1",
         lambda: checks.check_results(_results(keys, [0.1, 0.2, 1.0, 0.0]), 4),
         lambda: checks.check_results(_results(keys, [0.1, 0.2, 1.5, 0.0]), 4)),
        ("forked measurement differs from scratch",
         lambda: checks.check_same_measurement(forked, measurement),
         lambda: checks.check_same_measurement(forked, drifted)),
        ("stream missing one event",
         lambda: checks.check_stream(stream, results),
         lambda: checks.check_stream(stream[:2] + stream[3:], results)),
    ]


def failures() -> List[str]:
    """Cases where a check accepted a corruption or rejected a valid output."""
    found = []
    for name, valid, corrupted in cases():
        if valid():
            found.append(f"self-test {name!r}: valid output rejected")
        if not corrupted():
            found.append(f"self-test {name!r}: corruption accepted")
    return found


if __name__ == "__main__":
    problems = failures()
    for problem in problems:
        print(problem)
    print(f"{len(cases())} cases, {len(problems)} problems")
    sys.exit(1 if problems else 0)
