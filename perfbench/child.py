"""One benchmark process: set-up probe, timed loop or traced loop.

Started by run.py in a fresh interpreter with the package source on
PYTHONPATH and BLAS pinned to one thread.  Usage:

    python3 perfbench/child.py setup <work dir>
    python3 perfbench/child.py time  <work dir> <seconds>
    python3 perfbench/child.py trace <work dir> <seconds>

`time` and `trace` print one JSON object as their last stdout line.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Patcher, Tracer, count_calls
from workloads import WORKLOADS


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _load(work: Path):
    import qdgates.calibration  # noqa: F401  imports every layer before timing
    import qdgates.cli  # noqa: F401

    meta = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    return WORKLOADS[meta["workload"]], meta


def _check(workload, meta: dict, work: Path, digests: set) -> list:
    """Correctness of the outputs, outside every timed region."""
    errors = []
    if len(digests) > 1:
        errors.append(f"repeated operations wrote {len(digests)} different outputs")
    try:
        errors += workload.check(meta["inputs"], work, random.Random(meta["seed"]))
    except Exception as exc:  # a broken output must fail the run, not crash it
        errors.append(f"check raised {type(exc).__name__}: {exc}")
    return errors


def do_setup(work: Path) -> None:
    workload, meta = _load(work)
    workload.setup(meta["inputs"], work)
    if workload.pool_workers > 1:
        # The program's own pool uses the default start method, so this does.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workload.pool_workers) as pool:
            for future in [pool.submit(os.getpid) for _ in range(workload.pool_workers)]:
                future.result()


def _timed_op(workload, meta: dict, work: Path, workers: int):
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        ok = workload.run(meta["inputs"], work, workers)
    except Exception:  # the op's failure is counted, the loop goes on
        traceback.print_exc()
        ok = False
    return ok, time.perf_counter() - t0, _cpu_seconds() - cpu0


def do_time(work: Path, seconds: float) -> dict:
    """Repeat the operation while another one still fits in `seconds`."""
    workload, meta = _load(work)
    patcher = Patcher()
    counter = count_calls(patcher, "qdgates.analysis", "evaluate_point")
    reps = []
    digests = set()
    start = time.perf_counter()
    while True:
        counter.clear()
        ok, wall, cpu = _timed_op(workload, meta, work, workload.pool_workers)
        points = counter["evaluate_point"] + workload.pool_points(meta["inputs"])
        reps.append({"ok": ok, "wall_s": wall, "cpu_s": cpu, "points": points})
        if ok:
            digests.add(_output_digest(work / "out"))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall_s"] for r in reps) > seconds:
            break
    peak = _peak_rss_mb()
    patcher.restore()
    return {"reps": reps, "peak_rss_mb": peak,
            "errors": _check(workload, meta, work, digests)}


def _layer_metrics(tracer: Tracer, wall: float) -> dict:
    summary = tracer.summary()

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def calls_under(name, parent):
        return summary.get(name, {}).get("parents", {}).get(parent, 0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    metrics = {
        "lindblad.evolve_s": self_s("lindblad.evolve"),
        "lindblad.evolve_calls": calls("lindblad.evolve"),
        "lindblad.rhs_evals": tracer.counts["lindblad.rhs_evals"],
        "lindblad.liouvillian_s": self_s("lindblad.liouvillian"),
        "lindblad.liouvillian_calls": calls("lindblad.liouvillian"),
        "noise.collapse_build_s": self_s("noise.collapse_build"),
        "noise.collapse_ops": tracer.counts["noise.collapse_ops"],
        "analysis.flip_time_s": self_s("analysis.flip_time"),
        "analysis.flip_time_calls": calls("analysis.flip_time"),
        "analysis.golden_evals": tracer.counts["analysis.golden_evals"],
        "operators.partial_trace_calls": calls("operators.partial_trace"),
        "operators.partial_trace_s": self_s("operators.partial_trace"),
        "analysis.classify_s": self_s("analysis.classify"),
        "analysis.evaluate_point_calls": calls("analysis.evaluate_point"),
        "analysis.evaluate_point_s": self_s("analysis.evaluate_point"),
        "analysis.refine_points": calls_under("analysis.evaluate_point", "analysis.refine"),
        "analysis.refine_s": total_s("analysis.refine"),
        "device.eigensystem_calls": calls("device.eigensystem"),
        "device.eigensystem_s": self_s("device.eigensystem"),
        "calibration.bisect_points": calls_under("analysis.evaluate_point",
                                                 "calibration.bisect"),
        "calibration.bisect_s": total_s("calibration.bisect"),
        "cli.self_s": self_s("cli.main"),
        "config.parse_s": self_s("config.parse"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - roots,
    }
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}_self_s"] = value
    return metrics


def do_trace(work: Path, seconds: float) -> dict:
    """Alternate untraced and traced operations, all with one worker."""
    workload, meta = _load(work)
    tracer = Tracer()
    pairs = []
    digests = set()
    start = time.perf_counter()
    while True:
        ok_plain, plain_wall, _ = _timed_op(workload, meta, work, 1)
        if ok_plain:
            digests.add(_output_digest(work / "out"))
        tracer.reset()
        tracer.install()
        try:
            ok_traced, traced_wall, _ = _timed_op(workload, meta, work, 1)
        finally:
            tracer.uninstall()
        if ok_traced:
            digests.add(_output_digest(work / "out"))
        layers = _layer_metrics(tracer, traced_wall)
        layers["trace.untraced_wall_s"] = plain_wall
        layers["trace.overhead_s"] = traced_wall - plain_wall
        pairs.append({"ok": [ok_plain, ok_traced], "metrics": layers})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["metrics"]["trace.wall_s"]
                                       + p["metrics"]["trace.untraced_wall_s"]
                                       for p in pairs) > seconds:
            break
    spans = [[name, round(s, 9), round(e, 9), parent]
             for name, s, e, parent in tracer.spans]
    (work / "spans.json").write_text(json.dumps({"counts": dict(tracer.counts),
                                                 "spans": spans}), encoding="utf-8")
    return {"pairs": pairs, "errors": _check(workload, meta, work, digests)}


def main(argv) -> int:
    command, work = argv[0], Path(argv[1])
    if command == "setup":
        do_setup(work)
        return 0
    seconds = float(argv[2])
    result = do_time(work, seconds) if command == "time" else do_trace(work, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
