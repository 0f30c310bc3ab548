"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --seeds 1-10 [--workloads store_1m,...] [--trace 1]
                                 [--out results.json]

Runs the command from BENCHMARK.json once per workload and seed, one run at
a time, and keeps each run's result line with its metadata. Per workload and
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and their distance as a share of the median, next to the metric's
bound. With ``--trace 1`` it reports the per-layer metrics and whether each
count metric read the same on every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import COUNT_METRICS

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,3")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every run's result here as JSON")
    args = p.parse_args()

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            details = ROOT / ".bench_out" / f"{workload}.trace{args.trace}.json"
            meta = json.loads(details.read_text())["meta"]
            runs.setdefault(workload, []).append({"meta": meta, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if not args.trace or k in COUNT_METRICS), flush=True)

    print(f"\n{'workload':14s} {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload, results in runs.items():
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            if "bound" in m:
                extra = f"{m['bound']:6.2f}"
            elif m["name"] in COUNT_METRICS:
                extra = "same" if len(set(values)) == 1 else "DIFFERS"
            else:
                extra = ""
            print(f"{workload:14s} {m['name']:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {extra:>6s}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
