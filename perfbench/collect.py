"""Repeat benchmark runs over several seeds and summarize them as JSON.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --out BENCH_after.json

Each seed runs every workload once with --trace 0, workloads interleaved, so
a slow spell of the host spreads over all of them. One traced run per
workload follows, at the first seed. The output holds the machine, the
median and quartiles of every end-to-end metric per workload with its
spread (interquartile range over median), and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def machine() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed jobs: {proc.stderr.strip()}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    units: dict[str, str] = {}
    for seed in args.seeds:
        for w in WORKLOADS:
            result = one_run(w, seed, args.seconds, 0)
            for metric, m in result["metrics"].items():
                values[w].setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
    end_to_end = {
        w: {metric: {"unit": units[metric], **summarize(v)}
            for metric, v in values[w].items()}
        for w in WORKLOADS
    }
    per_layer = {w: one_run(w, args.seeds[0], args.seconds, 1)["metrics"]
                 for w in WORKLOADS}
    Path(args.out).write_text(json.dumps({
        "machine": machine(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }, indent=1, sort_keys=True) + "\n")
    for w in WORKLOADS:
        for metric, s in end_to_end[w].items():
            print(f"{w:9s} {metric:12s} median {s['median']:14.6g} {units[metric]:6s} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
