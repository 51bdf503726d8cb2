#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarise the spread.

Usage (from the repository root)::

    python3 bench/report.py --seeds 1-10 [--workloads mono-n2-d12,cli-sweep] [--trace 0]

Each (workload, seed) pair runs ``bench/run.py`` in a fresh interpreter, one
after another, for the ``run_seconds`` of ``BENCHMARK.json``.  Every metric
is printed by name with its unit.  Per workload and metric, the summary gives
the median over seeds and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[tuple[str, str], list[float]] = {}
    units: dict[str, str] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            argv = [sys.executable, *spec["command"][1:], "--workload", workload,
                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            elapsed = time.perf_counter() - start
            result = json.loads(done.stdout.splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({elapsed:.1f} s)")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
                values.setdefault((workload, name), []).append(metric["value"])
                units[name] = metric["unit"]

    print("\nworkload metric median unit spread bound")
    for (workload, name), series in values.items():
        median = statistics.median(series)
        spread = float("nan")
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
        bound = bounds.get(name)
        print(f"{workload} {name} {median:.6g} {units[name]} {spread:.3f} "
              f"{'-' if bound is None else bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
