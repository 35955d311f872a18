"""Repeat bench/run.py over several seeds and summarise each metric's spread.

Run from the repository root, for example:

    python3 bench/repeat.py --workloads campaign,digits --seeds 1-10 --seconds 30 --out baseline.json

For every workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median.
Runs are sequential, one process at a time.  --out also writes every run's
result and environment line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma-separated list")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all runs and the summary to this JSON file")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        runs, results = [], []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append(
                {
                    "seed": seed,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "samples": record["samples"],
                    "env": record["env"],
                }
            )
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        summary = summarise(results)
        report[workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"{workload:9s} {name:48s} median {s['median']:.6g} {s['unit']:6s} spread {s['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
