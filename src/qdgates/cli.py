"""Command-line entry point: single runs, gradient sweeps and range tables.

Three modes, each consuming the same config format (see config module) and
emitting CSV plus a JSON run manifest:

* simulate: one trajectory, propagated exactly to every output time;
  columns time_ns, P_up_q0..P_up_q{n-1}, trace_error (the propagator's
  trace drift).
* sweep: P_up of every qubit at the flip time for every initial state
  across the gradient grid, one file per fixed-field row; columns
  gradient_T, initial_state, qubit_role, P_up, verdict.
* ranges: operating-range table, one row per fixed field, with each closed
  boundary refined by the ITP root finder on the verdict margin.

Every point is evaluated in this process, one after another.  Output is
deterministic: floats are formatted explicitly and results are gathered
and sorted before writing, so files are byte-identical across runs.
`--workers` and the `run.workers` key are accepted for interface
compatibility and ignored.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, device
from .config import (AUTO, GATE_KEYS, ConfigError, RunSpec, device_from_spec, noise_from_spec,
                     parse_config, sweep_axis, template_from_spec, thresholds_from_spec,
                     validate_spec)
from .device import LAYOUTS
from .lindblad import propagate
from .noise import NoiseConfig
from .operators import basis_density, basis_labels


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def run_simulate(spec: RunSpec, out_dir: Path, noise: NoiseConfig, extras: dict) -> list:
    cfg, eig, h = analysis.coherent_model(device_from_spec(spec))
    collapse = analysis.collapse_model(cfg, eig, noise)
    t_end = (analysis.flip_time(cfg, h_rwa=h) if spec.t_end_ns == AUTO
             else device.ns_to_time(spec.t_end_ns))
    extras["resolved_drive_frequency_ueV"] = float(cfg.drive_frequency)
    extras["t_end_ns"] = device.time_to_ns(t_end)
    times = np.linspace(0.0, t_end, spec.samples)
    states = propagate(h, collapse, [basis_density(spec.initial_state)], t_end,
                       spec.samples)[0]
    pops = analysis.populations_up(states)
    trace_err = np.einsum("nii->n", states).real - 1.0
    path = out_dir / "trajectory.csv"
    with path.open("w", encoding="utf-8") as fh:
        cols = ["time_ns"] + [f"P_up_q{q}" for q in range(cfg.n_qubits)] + ["trace_error"]
        fh.write(",".join(cols) + "\n")
        for t, p_up, err in zip(times, pops, trace_err):
            fh.write(",".join(map(_fmt, [device.time_to_ns(t), *p_up, err])) + "\n")
    return [path]


def _write_sweep_csv(path: Path, result: analysis.SweepResult, roles) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("gradient_T,initial_state,qubit_role,P_up,verdict\n")
        for point in result.points:
            passed = (point.margins > 0.0).all(axis=1)
            for initial, p_up, ok in zip(basis_labels(len(roles)), point.p_up, passed):
                for role, p in zip(roles, p_up):
                    fh.write(f"{_fmt(point.gradient)},{initial},{role},{_fmt(p)},"
                             f"{'pass' if ok else 'fail'}\n")
    return path


def _sweep_rows(spec: RunSpec, noise: NoiseConfig, refine: bool):
    """(template, SweepResult) of each fixed-field row, in order."""
    thresholds = thresholds_from_spec(spec)
    gradients = sweep_axis(spec)
    for fixed in spec.fixed_fields:
        template = template_from_spec(spec, fixed)
        yield template, analysis.run_sweep(template, gradients, noise, thresholds,
                                           refine=refine)


def run_sweep_mode(spec: RunSpec, out_dir: Path, noise: NoiseConfig) -> list:
    return [_write_sweep_csv(out_dir / f"sweep_row{row}.csv", result, LAYOUTS[spec.gate].roles)
            for row, (_, result) in enumerate(_sweep_rows(spec, noise, refine=False))]


def run_ranges(spec: RunSpec, out_dir: Path, noise: NoiseConfig) -> list:
    path = out_dir / "ranges.csv"
    layout = LAYOUTS[spec.gate]
    fields, couplings = GATE_KEYS[spec.gate]
    varied = [q for q, offset in enumerate(layout.offsets) if offset != 0]
    header = ["b_ac_T", *(f"{attr}_ueV" for attr in couplings),
              f"{fields[layout.offsets.index(0)]}_T", "status",
              *(f"{fields[q]}_{end}_T" for q in varied for end in ("min", "max")),
              "open_low", "open_high",
              "limit_state_low", "limit_qubit_low", "limit_state_high", "limit_qubit_high"]
    rows = []
    for template, result in _sweep_rows(spec, noise, refine=spec.sweep_refine):
        row = [_fmt(spec.b_ac), *map(_fmt, template.exchange), _fmt(template.fixed_field)]
        if result.empty:
            row += ["empty"] + [""] * (2 * len(varied) + 6)
        else:
            low, high = result.low, result.high
            row.append("ok")
            ends = [template.config(end.gradient).b_fields for end in (low, high)]
            row += [_fmt(b_fields[q]) for q in varied for b_fields in ends]
            row += [str(low.open).lower(), str(high.open).lower()]
            for end in (low, high):
                row += [end.limit[0], layout.roles[end.limit[1]]] if end.limit else ["", ""]
        rows.append(",".join(row))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row + "\n")
    return [path]


def write_manifest(spec: RunSpec, out_dir: Path, outputs: list, noise: NoiseConfig,
                   extras: dict) -> Path:
    manifest = {
        "tool": "qdgates",
        "version": __version__,
        "mode": spec.mode,
        "outputs": [p.name for p in outputs],
        "parameters": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in vars(spec).items()},
        "resolved": extras,
        "noise_constants": {
            "upsilon": noise.upsilon,
            "phonon_p": noise.phonon_p,
            "delta_e_nuc": noise.delta_e_nuc,
            "t_k": noise.t_k,
            "t2_star_model_units": noise.t2_star,
        },
    }
    path = out_dir / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def run(spec: RunSpec, out_dir: Path) -> list:
    """Validate and execute a RunSpec; returns the list of written files."""
    validate_spec(spec)
    return _execute(spec, out_dir)


def _execute(spec: RunSpec, out_dir: Path) -> list:
    """Execute a validated RunSpec; returns the list of written files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    noise = noise_from_spec(spec)
    extras = {}
    if spec.mode == "simulate":
        outputs = run_simulate(spec, out_dir, noise, extras)
    elif spec.mode == "sweep":
        outputs = run_sweep_mode(spec, out_dir, noise)
    else:
        outputs = run_ranges(spec, out_dir, noise)
    outputs.append(write_manifest(spec, out_dir, outputs, noise, extras))
    return outputs


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdgates",
        description="Quantum-dot spin-qubit gate simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep", "ranges"):
        p = sub.add_parser(name, help=f"run in {name} mode")
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for interface compatibility; every "
                            "point runs in this process and the value is ignored")
        p.add_argument("--seed", default=None,
                       help="accepted for interface compatibility; runs are "
                            "deterministic and the value is ignored")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if spec.mode != args.command:
        print(f"error: config mode {spec.mode!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(spec.output_dir)
    try:
        outputs = _execute(spec, out_dir)   # parse_config validated the spec
    except Exception as exc:  # propagate any solver/model failure as exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
