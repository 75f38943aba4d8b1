"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. With
``--trace 0`` the line before it is one JSON object with the raw
(not rescaled) value of every rescaled metric and the run's median
host slowdown. The lines before those print the metrics by name and
unit, with sample counts and raw values.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: End-to-end metric -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_qps": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "ingest_events_per_s": "1/s",
    "freshness_p50_s": "s",
    "freshness_p99_s": "s",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("query", "ingest", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _timed_setup(workload, setup_times, workloads):
    """One timed set-up, rescaled by the kernel timed right after it."""
    gc.collect()
    begin = time.perf_counter()
    state = workload.setup()
    elapsed = time.perf_counter() - begin
    kernel = statistics.median(workloads.calibration_kernel()
                               for _ in range(10))
    setup_times.append((elapsed, kernel / workloads.CALIBRATION_REFERENCE_S))
    return state


def _slowdown(calibration, reference):
    """``at(moment, duration)``: the host's slowdown against the
    reference around an operation, from the calibration samples within
    half a second of it (all samples when none are)."""
    times = [moment for moment, _ in calibration]

    def at(moment, duration):
        reach = max(0.5, duration / 2 + 0.1)
        lo = bisect.bisect_left(times, moment - reach)
        hi = bisect.bisect_right(times, moment + reach)
        window = calibration[lo:hi] or calibration
        return statistics.median(kernel for _, kernel in window) / reference
    return at


def _untraced(workload, seconds, workloads):
    """Timed set-ups around the measured run: end-to-end metrics.

    Work timings are rescaled to the reference host speed (see
    ``workloads.calibration_kernel``); peak RSS, and freshness where it
    is mostly waiting on a schedule, stay raw.
    """
    setup_times = []
    state = workload.setup()
    for _ in range(workload.setups // 2):
        state = None
        state = _timed_setup(workload, setup_times, workloads)
    outcome = workload.run(state, seconds, None, contextlib.nullcontext)
    state = None
    for _ in range(workload.setups - workload.setups // 2):
        _timed_setup(workload, setup_times, workloads)

    at = _slowdown(outcome.calibration, workloads.CALIBRATION_REFERENCE_S)
    reads = [latency / at(moment, service) for latency, (moment, service)
             in zip(outcome.read_latencies, outcome.read_ops)]
    read_service = sum(service / at(moment, service)
                       for moment, service in outcome.read_ops)
    submits = [duration / at(moment, duration)
               for moment, duration, submit in outcome.write_ops if submit]
    write_time = sum(duration / at(moment, duration)
                     for moment, duration, _ in outcome.write_ops)
    percentile = workloads.percentile
    raw_fresh = [flipped - submitted
                 for submitted, flipped in outcome.freshness]
    fresh = raw_fresh
    if workload.freshness_is_work:
        fresh = [(flipped - submitted)
                 / at((submitted + flipped) / 2, flipped - submitted)
                 for submitted, flipped in outcome.freshness]
    raw_submits = [duration for _, duration, submit in outcome.write_ops
                   if submit]
    raw = {
        "setup_s": statistics.median(elapsed for elapsed, _ in setup_times),
        "query_p50_ms": percentile(outcome.read_latencies, 0.50) * 1e3,
        "query_p99_ms": percentile(outcome.read_latencies, 0.99) * 1e3,
        "query_qps": len(outcome.read_ops) / sum(
            service for _, service in outcome.read_ops),
        "ingest_p50_ms": percentile(raw_submits, 0.50) * 1e3,
        "ingest_p99_ms": percentile(raw_submits, 0.99) * 1e3,
        "ingest_events_per_s": outcome.applied / sum(
            duration for _, duration, _ in outcome.write_ops),
    }
    if workload.freshness_is_work:
        raw["freshness_p50_s"] = percentile(raw_fresh, 0.50)
        raw["freshness_p99_s"] = percentile(raw_fresh, 0.99)
    values = {
        "setup_s": statistics.median(elapsed / slowdown
                                     for elapsed, slowdown in setup_times),
        "query_p50_ms": percentile(reads, 0.50) * 1e3,
        "query_p99_ms": percentile(reads, 0.99) * 1e3,
        "query_qps": len(reads) / read_service,
        "ingest_p50_ms": percentile(submits, 0.50) * 1e3,
        "ingest_p99_ms": percentile(submits, 0.99) * 1e3,
        "ingest_events_per_s": outcome.applied / write_time,
        "freshness_p50_s": percentile(fresh, 0.50),
        "freshness_p99_s": percentile(fresh, 0.99),
        "peak_rss_mb": outcome.extra["peak_rss_mb"],
    }
    slowdown = (statistics.median(kernel for _, kernel in outcome.calibration)
                / workloads.CALIBRATION_REFERENCE_S)
    print(f"host slowdown {slowdown:.4f} over "
          f"{len(outcome.calibration)} calibration samples")
    samples = {"setup_s": len(setup_times)}
    for name in values:
        for prefix, series in (("query_p", reads), ("ingest_p", submits),
                               ("freshness_p", fresh)):
            if name.startswith(prefix):
                samples[name] = len(series)
    report = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    unrescaled = {"host_slowdown": slowdown,
                  "raw": {name: {"value": value, "unit": END_TO_END[name]}
                          for name, value in raw.items()}}
    return outcome, report, samples, unrescaled


def _traced(workload, seconds, layers, spans_path):
    """The fixed window untraced, then again traced: per-layer metrics.

    A quarter window runs first and is discarded, so the untraced
    window is no colder than the traced one and the overhead is not
    understated by first-use costs.
    """
    from spans import Tracer

    limit = workload.window(seconds)
    workload.run(workload.setup(), None, max(limit // 4, 1), None)
    untraced = workload.run(workload.setup(), None, limit, None)
    gc.collect()
    tracer = Tracer()
    layers.install(tracer)
    try:
        state = workload.setup()
        tracer.phase = "run"
        outcome = workload.run(state, None, limit, tracer.pause)
    finally:
        tracer.uninstall()
    extra = {name: value for name, value in outcome.extra.items()
             if name in layers.UNITS}
    extra["trace.overhead_s"] = outcome.busy - untraced.busy
    extra["failed_ratio"] = ((outcome.failed + outcome.mismatches)
                             / max(outcome.attempted, 1))
    for name in ("loadgen.lag_max_ms", "loadgen.backlog_end",
                 "mixed.read_wait_p99_ms"):
        extra.setdefault(name, 0.0)
    tracer.write(spans_path)
    return outcome, layers.metrics(tracer, extra), {}, None


def _print(workload_name, outcome, report, samples, unrescaled) -> None:
    for note in outcome.notes[:20]:
        print(f"note: {note}", file=sys.stderr)
    raw = unrescaled["raw"] if unrescaled else {}
    for name, (value, unit) in report.items():
        line = f"{workload_name:7s} {name:28s} {value:14.6f} {unit}"
        if name in raw:
            line += f"  raw {raw[name]['value']:.6f}"
        if name in samples:
            count = samples[name]
            line += f"  (n={count}"
            if "_p99" in name:
                beyond = count - max(math.ceil(0.99 * count), 1)
                line += f", {beyond} beyond p99"
            line += ")"
        print(line)
    if unrescaled:
        print(json.dumps(unrescaled))
    print(json.dumps({
        "correct": outcome.mismatches == 0 and outcome.valid,
        "attempted": outcome.attempted,
        "failed": outcome.failed + outcome.mismatches,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no program under {source}: run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import layers
    import workloads
    from repro.obs import runtime

    runtime.disable()
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, workdir)
        workloads.reset_peak_rss()
        if args.trace:
            out = root / ".perfbench_out"
            out.mkdir(exist_ok=True)
            result = _traced(
                workload, args.seconds, layers,
                out / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            result = _untraced(workload, args.seconds, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print(args.workload, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
