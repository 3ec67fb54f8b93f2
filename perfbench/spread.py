#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cnot_ranges --seeds 1-10

Runs run.py once per seed, in sequence, and prints for each metric the
median and the interquartile distance (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound.  With
`--record FILE` the per-seed values, quartiles and environment of the
workload are also stored under its name in that JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--record", type=Path, default=None,
                        help="JSON file to store this workload's figures in")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds",
                              str(seconds), "--trace", "0"],
                             capture_output=True, text=True, check=True).stdout
        lines = out.splitlines()
        result = json.loads(lines[-1])
        environment = json.loads(lines[-2].split(" = ", 1)[1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()),
              flush=True)
    worst = 0.0
    summary = {}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "iqr_share": share, "values": vals}
        print(f"{args.workload} {m['name']}: median {med:.5g} {m['unit']}, "
              f"IQR/median {share:.3f} (bound/3 {m['bound'] / 3:.3f})")
    print(f"{args.workload}: largest spread is {worst:.2f} of its bound")
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record[args.workload] = {"seeds": seed_list(args.seeds), "seconds": seconds,
                                 "environment": environment, "metrics": summary}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
