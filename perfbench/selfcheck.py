#!/usr/bin/env python3
"""Self-check of the traced benchmark run.

    python3 perfbench/selfcheck.py --seed 1 [--workload cnot_ranges]

For each workload, runs `run.py --trace 1` twice on one seed and checks
that every count metric repeats exactly, and that in each traced
operation the layer self times plus the unattributed remainder add up to
the traced wall time.  Exits 1 on any mismatch.  With `--record FILE`
the second run's per-layer metrics are stored in that JSON file under
"traced" and the workload's name.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ACCOUNTING_TOL_S = 1e-6


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                   capture_output=True, text=True, check=True)
    path = Path(".perfbench_out") / f"{workload}-seed{seed}-trace1" / "result.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--record", type=Path, default=None,
                        help="JSON file to store the per-layer figures in")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    traced = {}
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        first, second = (traced_run(workload, args.seed, spec["run_seconds"])
                         for _ in range(2))
        for name in counts:
            a, b = first["metrics"][name], second["metrics"][name]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload} {name}: {a} / {b} {status}")
            if a != b:
                problems.append(f"{workload} {name}")
        for result in (first, second):
            for pair in result["raw"]["pairs"]:
                m = pair["metrics"]
                total = sum(m[f"layer.{layer}_self_s"] for layer in LAYERS)
                gap = m["trace.wall_s"] - total - m["trace.unattributed_s"]
                if abs(gap) > ACCOUNTING_TOL_S:
                    problems.append(f"{workload} self times miss the wall by {gap:.3g} s")
        m = second["metrics"]
        traced[workload] = {"seed": args.seed, "metrics": m}
        print(f"{workload}: traced wall {m['trace.wall_s']:.3f} s, unattributed "
              f"{m['trace.unattributed_s']:.2e} s, overhead {m['trace.overhead_s']:.3f} s")
    for problem in problems:
        print(f"FAILED: {problem}")
    if args.record and not problems:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record.setdefault("traced", {}).update(traced)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
