"""Correctness checks run after every campaign, outside the timed region.

Each check returns a list of error strings (empty = passed). They compare
against independent recomputation or required properties, never against
a stored copy of an earlier run's output. ``selftest.py`` feeds each of
them a deliberately corrupted output and shows it is rejected.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List


def check_results(results, budget: int) -> List[str]:
    """Exactly the budget, dense unique test indices, unique keys, impacts in [0, 1]."""
    errors = []
    if len(results) != budget:
        errors.append(f"expected {budget} results, got {len(results)}")
    indices = [result.test_index for result in results]
    if sorted(indices) != list(range(len(results))):
        errors.append("test indices are not dense and unique")
    keys = [result.key for result in results]
    if len(set(keys)) != len(keys):
        errors.append(f"{len(keys) - len(set(keys))} duplicated scenario key(s)")
    for result in results:
        if not 0.0 <= result.impact <= 1.0:
            errors.append(f"test {result.test_index}: impact {result.impact!r} outside [0, 1]")
    return errors


def impact_formula(measurement, baseline) -> float:
    """Throughput damage against a benign baseline, the larger of window
    average and window tail, clamped to [0, 1]."""
    damages = []
    if baseline.throughput_rps > 0:
        damages.append(1.0 - measurement.throughput_rps / baseline.throughput_rps)
    if baseline.tail_throughput_rps > 0:
        damages.append(1.0 - measurement.tail_throughput_rps / baseline.tail_throughput_rps)
    if not damages:
        return 0.0
    return min(max(max(damages), 0.0), 1.0)


def check_impact(result, baseline) -> List[str]:
    expected = impact_formula(result.measurement, baseline)
    if abs(expected - result.impact) > 1e-12:
        return [f"test {result.test_index}: impact {result.impact!r}, recomputed {expected!r}"]
    return []


def check_same_measurement(result, scratch) -> List[str]:
    if scratch != result.measurement:
        return [f"test {result.test_index}: forked measurement differs from scratch run"]
    return []


def check_bigmac(best) -> List[str]:
    errors = []
    if best.impact < 0.9:
        errors.append(f"best impact {best.impact:.3f} < 0.9: no Big-MAC collapse")
    if not int(best.params.get("mac_mask_gray", 0)):
        errors.append("best scenario corrupts no MAC")
    if best.measurement.bad_mac_rejections <= 0:
        errors.append("best scenario shows no bad-MAC rejections")
    return errors


def sample_indices(results, seed: int) -> List[int]:
    """The best result plus two others picked by the run's seed."""
    best = max(range(len(results)), key=lambda index: results[index].impact)
    others = [index for index in range(len(results)) if index != best]
    return [best] + sorted(random.Random(seed).sample(others, min(2, len(others))))


def fresh_baseline(config, n_correct_clients: int):
    """A benign run at this client count that no program cache serves."""
    from repro.pbft import PbftDeployment
    from repro.targets.pbft_target import derive_baseline_seed

    deployment = PbftDeployment(
        config, n_correct_clients, seed=derive_baseline_seed(n_correct_clients)
    )
    return deployment.run()


def verify_samples(workload, controller, target, results, seed: int) -> List[str]:
    """Recompute sampled impacts; on timed workloads also re-run them from scratch."""
    from repro.core import snapshot
    from repro.sim.trace import set_kind_capture

    executed = [result for result in results if not result.failed]
    if not executed:
        return ["no executed result to sample"]
    errors: List[str] = []
    baselines: Dict[int, object] = {}
    for index in sample_indices(executed, seed):
        result = executed[index]
        count = result.measurement.correct_clients
        if count not in baselines:
            baselines[count] = fresh_baseline(target.config, count)
        errors += check_impact(result, baselines[count])
        if workload.timed:
            capture = set_kind_capture(True) if controller.novelty_weight > 0 else None
            try:
                with snapshot.disabled():
                    scratch = target.execute(
                        result.params, controller.executor.scenario_seed(result.scenario, result.params)
                    )
            finally:
                if controller.novelty_weight > 0:
                    set_kind_capture(capture)
            errors += check_same_measurement(result, scratch)
    if not workload.timed:
        errors += check_bigmac(max(executed, key=lambda result: result.impact))
    return errors


def check_stream(lines: List[str], results) -> List[str]:
    """Schema-valid, contiguous from seq 0, one ScenarioExecuted per test."""
    from repro.telemetry.schema import SchemaError, validate_jsonl

    lines = [line for line in lines if line.strip()]
    try:
        validated = validate_jsonl(lines)
    except SchemaError as exc:
        return [f"telemetry stream invalid: {exc}"]
    errors = []
    seqs = [seq for seq, _ in validated]
    if seqs != list(range(len(seqs))):
        errors.append("telemetry seqs are not contiguous from 0")
    executed = [
        json.loads(line)["test_index"]
        for line, (_, kind) in zip(lines, validated)
        if kind == "ScenarioExecuted"
    ]
    if sorted(executed) != sorted(result.test_index for result in results):
        errors.append(
            f"{len(executed)} ScenarioExecuted events for {len(results)} tests"
        )
    return errors


def check_explain(attribution, results) -> List[str]:
    from repro.telemetry.events import key_dict
    from repro.telemetry.view import freeze_key

    errors = []
    if attribution.tests != len(results):
        errors.append(f"explain folds {attribution.tests} tests, campaign ran {len(results)}")
    best = max(results, key=lambda result: result.impact)
    if attribution.best_key != freeze_key(key_dict(best.key)):
        errors.append("explain best key differs from the campaign's best")
    return errors


def check_checkpoint(path: str, workload, build_target, results) -> List[str]:
    from repro.core.persistence import load_checkpoint, restore_controller

    target, plugins = build_target(workload)
    controller = restore_controller(load_checkpoint(path), target, plugins)
    errors = []
    if len(controller.results) != len(results):
        errors.append(
            f"checkpoint restores {len(controller.results)} results, campaign ran {len(results)}"
        )
    best = max(result.impact for result in results)
    if controller.best is None or controller.best.impact != best:
        errors.append("checkpoint restores a different best impact")
    return errors
