"""Run a set of benchmark runs and summarise them.

    python3 perfbench/runset.py --workloads query ingest mixed \\
        --seeds 1 2 3 4 5 6 7 8 9 10

prints, per workload and end-to-end metric, the median and the spread
of the runs (first-to-third quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound from ``BENCHMARK.json``, and, for rescaled timings, the
median and spread of their raw values and of the host slowdown, so a
comparison can see that the rescaled and raw figures move together.

    python3 perfbench/runset.py --workloads ingest --seeds 7 --repeat 3 --trace 1

runs each seed several times traced and flags every work count that
does not repeat exactly across the runs of one seed. Exits 1 when a
spread exceeds its bound, a count differs, or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from layers import DETERMINISTIC  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int):
    """One run: its result and, untraced, its raw figures."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    result = subprocess.run(command, capture_output=True, text=True,
                            timeout=900)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{result.returncode}:\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    return (json.loads(lines[-1]),
            json.loads(lines[-2]) if trace == 0 else None)


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    status = 0
    for workload in args.workloads:
        runs, raws = [], []
        for seed in args.seeds:
            for _ in range(args.repeat):
                result, unrescaled = _run(workload, seed, seconds,
                                          args.trace)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}")
                    status = 1
                runs.append((seed, result["metrics"]))
                raws.append(unrescaled)
        if args.trace:
            for seed in args.seeds:
                of_seed = [metrics for run_seed, metrics in runs
                           if run_seed == seed]
                for name in DETERMINISTIC:
                    seen = {metrics[name]["value"] for metrics in of_seed}
                    if len(seen) > 1:
                        print(f"{workload} seed {seed}: {name} differs "
                              f"across runs: {sorted(seen)}")
                        status = 1
            print(f"{workload}: work counts checked over {len(runs)} runs")
            continue
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            values = [metrics[name]["value"] for _, metrics in runs]
            median, spread = _spread(values)
            flag = "" if spread <= bound else "  OVER"
            if flag:
                status = 1
            line = (f"{workload:7s} {name:22s} median {median:12.5f} "
                    f"spread {spread:6.3f} bound {bound:5.2f} "
                    f"range {min(values):.5g}..{max(values):.5g}")
            if name in raws[0]["raw"]:
                raw_median, raw_spread = _spread(
                    [raw["raw"][name]["value"] for raw in raws])
                line += f"  raw median {raw_median:.5g} spread {raw_spread:.3f}"
            print(line + flag)
        median, spread = _spread([raw["host_slowdown"] for raw in raws])
        print(f"{workload:7s} {'host_slowdown':22s} median {median:12.5f} "
              f"spread {spread:6.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
