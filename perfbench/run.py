"""The repository benchmark: ChangeLog record -> event -> rule action ->
stream frame, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Workloads: ``ingest``, ``rules``, ``durable``, ``model`` (see README.md).
Every workload is driven in deterministic ``pump()``/``drain()`` mode,
so no service thread or poll sleep is on the timed path.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Metric names and units, and
the default run length, come from ``BENCHMARK.json``; the code only
computes the values.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time

import harness
from layers import layer_metrics
from tracer import SpanTracer, install_layer_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Where the traced run writes its spans (inside the checkout).
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = {
    "ingest": ("ingest", "IngestWorkload"),
    "rules": ("rules", "RulesWorkload"),
    "durable": ("durable", "DurableWorkload"),
    "model": ("model", "ModelWorkload"),
}


def load_workload(name: str, seed: int):
    module_name, class_name = WORKLOADS[name]
    return getattr(importlib.import_module(module_name), class_name)(seed)


def timed_setup(workload, calibrator) -> float:
    """One calibrated set-up, in reference-speed seconds."""
    before = calibrator.reference()
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    after = calibrator.reference()
    return elapsed * calibrator.scale(before, after)


def record_failures(log, failures: list) -> list:
    """Count each oracle failure in *log* under its kind; pass them on."""
    for failure in failures:
        log.fail(failure.kind, failure.count)
    return failures


def measure(workload, calibrator, seconds: float):
    """Run whole cycles of rounds for *seconds*; every round is timed
    raw, checked, and calibrated against the references around it."""
    log = harness.RoundLog()
    errors: list = []
    read_round = getattr(workload, "read_round", None)
    before = calibrator.reference()
    start = time.perf_counter()
    rounds = 0
    while True:
        log.ops += workload.prepare_round()
        t0 = time.perf_counter()
        events = workload.run_round()
        raw = time.perf_counter() - t0
        pages = read_round() if read_round is not None else []
        errors += record_failures(log, workload.check_round(log))
        after = calibrator.reference()
        scale = calibrator.scale(before, after)
        log.durations.append(raw * scale)
        log.raw_durations.append(raw)
        log.pages.extend(page * scale for page in pages)
        log.events += events
        before = after
        rounds += 1
        if rounds == harness.MEMORY_ROUNDS:
            log.rss_mb = harness.peak_rss_mb()
        if rounds % workload.cycle == 0 and (
            time.perf_counter() - start >= seconds
        ):
            if not log.rss_mb:
                log.rss_mb = harness.peak_rss_mb()
            return log, errors


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def named(values: dict, declared: list[dict]) -> dict:
    """``{name: {value, unit}}`` for each metric *declared* in the spec."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def end_to_end(log, setups: list[float]) -> dict:
    drains_ms = [d * 1000.0 for d in log.durations]
    return {
        "setup_s": statistics.median(setups),
        "events_per_s": log.rate(log.events),
        "drain_p50_ms": harness.percentile(drains_ms, 50),
        "drain_p90_ms": harness.percentile(drains_ms, 90),
        "peak_rss_mb": log.rss_mb,
    }


def print_report(workload, log, calibrator, setups, errors) -> None:
    n = len(log.durations)
    settings = "".join(
        f" {k}={v}" for k, v in getattr(workload, "settings", {}).items()
    )
    print(f"workload={workload.name} seed={workload.seed} rounds={n}{settings}")
    kinds = sorted(set(log.counts) | set(log.failures))
    print(
        "attempted: "
        + " ".join(f"{k}={log.counts.get(k, 0)}" for k in kinds)
        + f" (total {log.attempted})"
    )
    print(
        "failed: "
        + " ".join(f"{k}={log.failures.get(k, 0)}" for k in kinds)
        + f" (total {log.failed})"
    )
    q1, med, q3 = harness.quartiles(calibrator.timings)
    print(
        f"reference: n={len(calibrator.timings)} nominal="
        f"{harness.NOMINAL_REFERENCE_S * 1e3:.3f}ms median={med * 1e3:.3f}ms "
        f"q1={q1 * 1e3:.3f}ms q3={q3 * 1e3:.3f}ms"
    )
    raw = harness.quartiles([d * 1e3 for d in log.raw_durations])
    cal = harness.quartiles([d * 1e3 for d in log.durations])
    print(
        "drain ms raw q1/median/q3="
        + "/".join(f"{x:.3f}" for x in raw)
        + " calibrated="
        + "/".join(f"{x:.3f}" for x in cal)
    )
    raw_rate = log.events / sum(log.raw_durations)
    print(f"events_per_s raw={raw_rate:.6g} calibrated={log.rate(log.events):.6g}")
    print(
        f"samples: drain={n} beyond_p90={harness.tail_samples(n, 90)} "
        f"setups={len(setups)} pages={len(log.pages)}"
    )
    for name, (value, unit) in workload.report(log).items():
        print(f"metric {name} = {value:.6g} {unit}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")


def plain_run(workload, seconds: float, spec: dict) -> dict:
    calibrator = harness.Calibrator()
    setups = []
    for index in range(SETUPS):
        setups.append(timed_setup(workload, calibrator))
        if index < SETUPS - 1:
            workload.teardown()
    try:
        log, errors = measure(workload, calibrator, seconds)
        errors += record_failures(log, workload.finish())
    finally:
        workload.teardown()
    print_report(workload, log, calibrator, setups, errors)
    return {
        "correct": not errors,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": named(end_to_end(log, setups), spec["end_to_end"]),
    }


def traced_run(workload, seconds: float, spec: dict) -> dict:
    """Half the time untraced (the overhead baseline), half traced."""
    calibrator = harness.Calibrator()
    timed_setup(workload, calibrator)
    try:
        plain_log, errors = measure(workload, calibrator, seconds / 2)
        errors += record_failures(plain_log, workload.finish())
    finally:
        workload.teardown()
    tracer = SpanTracer()
    install_layer_spans(tracer)
    try:
        before_setup = tracer.snapshot()
        timed_setup(workload, calibrator)
        setup_totals = tracer.snapshot()
        counters_before = workload.layer_counters()
        try:
            log, more = measure(workload, calibrator, seconds / 2)
            errors += more
            counters_after = workload.layer_counters()
            errors += record_failures(log, workload.finish())
        finally:
            workload.teardown()
        after = tracer.snapshot()
    finally:
        tracer.unpatch()
    values, bases = layer_metrics(
        tracer_phases=(before_setup, setup_totals, after),
        counters=(counters_before, counters_after),
        log=log,
        plain_log=plain_log,
    )
    metrics = named(values, spec["per_layer"])
    print_report(workload, log, calibrator, [], errors)
    for name, metric in metrics.items():
        print(f"layer {name} = {metric['value']:.6g} {metric['unit']} "
              f"({bases[name]})")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(
        os.path.join(OUT_DIR, f"trace-{workload.name}-{workload.seed}.json"),
        {"workload": workload.name, "seed": workload.seed},
    )
    return {
        "correct": not errors,
        "attempted": log.attempted + plain_log.attempted,
        "failed": log.failed + plain_log.failed,
        "metrics": metrics,
    }


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process, which the spawn
    start method of the shard processes starts, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = load_workload(args.workload, args.seed)
    try:
        if args.trace:
            result = traced_run(workload, args.seconds, spec)
        else:
            result = plain_run(workload, args.seconds, spec)
    finally:
        if "multiprocessing.resource_tracker" in sys.modules:
            stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
