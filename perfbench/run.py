#!/usr/bin/env python3
"""qdgates benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toffoli_sweep --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.  Every process gets BLAS pinned to one thread, so a
2-worker pool uses at most two cores.  Scratch files go under
.perfbench_out/ in the checkout.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0      # the whole run, set-up probes included
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run_child(args: list, env: dict, deadline: float) -> str:
    """Run child.py in its own session; kill the whole group on overrun."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[0]} ran past the run limit") from None
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}")
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
    }


def end_to_end(raw: dict, setup_times: list) -> dict:
    reps = raw["reps"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "points_per_s": statistics.median(r["points"] / r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }


def per_layer(raw: dict) -> dict:
    """The traced operation of median wall time, so its self times add up."""
    pairs = sorted((p["metrics"] for p in raw["pairs"]), key=lambda m: m["trace.wall_s"])
    return pairs[(len(pairs) - 1) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (root / "src" / "qdgates" / "__init__.py").is_file():
        print("error: no qdgates source under ./src; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.make_inputs(args.seed)
    workload.prepare(inputs, work)
    (work / "inputs.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "inputs": inputs}, indent=2),
        encoding="utf-8")
    env = _child_env(root)

    try:
        if args.trace:
            raw = json.loads(_run_child(["trace", str(work), str(args.seconds)], env,
                                        deadline).splitlines()[-1])
            metrics = per_layer(raw)
            wanted = spec["per_layer"]
            attempted = 2 * len(raw["pairs"])
            failed = sum(not ok for p in raw["pairs"] for ok in p["ok"])
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                _run_child(["setup", str(work)], env, deadline)
                setup_times.append(time.perf_counter() - t0)
            raw = json.loads(_run_child(["time", str(work), str(args.seconds)], env,
                                        deadline).splitlines()[-1])
            metrics = end_to_end(raw, setup_times)
            wanted = spec["end_to_end"]
            attempted = len(raw["reps"])
            failed = sum(not r["ok"] for r in raw["reps"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = raw["errors"]
    if errors:
        failed = attempted           # every operation wrote the same checked output
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    env_record = environment()
    (work / "result.json").write_text(json.dumps(
        {"raw": raw, "metrics": metrics, "environment": env_record,
         "wall_of_run_s": time.monotonic() - started}, indent=2), encoding="utf-8")

    for error in errors:
        print(f"check failed: {error}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print("environment = " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
