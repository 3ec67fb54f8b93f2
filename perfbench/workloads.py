"""The benchmark workloads: seeded inputs, one timed operation, its check.

The program is deterministic, so a seed only places the inputs: it shifts
each gradient grid or bisection bracket by a seeded fraction (below a
twentieth) of one step.  The shift is kept small so that every seed does
the same amount of work and lands on the same side of every pass/fail
boundary.

Each workload is sized so that one operation takes seconds at the seed
commit and several fit in one run; the reasons for each choice are in
README.md beside this file.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

SHIFT_FRACTION = 0.05    # seeded shift is below this share of one step
ORACLE_TOL = 1e-6        # criterion-1 tolerance of the acceptance suite


def _shift(rng: random.Random, step: float) -> float:
    return rng.uniform(0.0, SHIFT_FRACTION) * step


def _config_text(pairs: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


def _p_up_by_oracle(cfg, noise, t: float) -> dict:
    """Per-qubit P_up of every initial basis state, by matrix exponential."""
    from qdgates import analysis, device
    from qdgates.lindblad import expm_oracle
    from qdgates.noise import build_collapse_set
    from qdgates.operators import basis_density, index_to_label, partial_trace

    zeeman = analysis._basis_zeeman(cfg) if noise.phonon_e_mode == "bare_zeeman" else None
    collapse = build_collapse_set(device.static_eigensystem(cfg), noise,
                                  zeeman_energies=zeeman)
    h = device.build_hamiltonian_rwa(cfg)
    out = {}
    for idx in range(cfg.dim):
        label = index_to_label(idx, cfg.n_qubits)
        rho = expm_oracle(h, collapse, basis_density(label), t)
        out[label] = [partial_trace(rho, q)[0, 0].real for q in range(cfg.n_qubits)]
    return out


def _verdict_of(gate: str, initial: str, p_up, t_up: float, t_down: float) -> bool:
    from qdgates.analysis import expected_final

    expected = expected_final(gate, initial)
    return all(p > t_up if want == "u" else p < t_down
               for p, want in zip(p_up, expected))


def _read_csv(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class CliWorkload:
    """A workload that runs `qdgates.cli.main` on one config file."""

    pool_workers = 1

    def prepare(self, inputs: dict, work: Path) -> None:
        (work / "workload.cfg").write_text(_config_text(self.config(inputs)),
                                           encoding="utf-8")

    def setup(self, inputs: dict, work: Path) -> None:
        """What a user pays before the first point: import, parse, pool."""
        from qdgates.config import parse_config
        import qdgates.cli  # noqa: F401

        parse_config((work / "workload.cfg").read_text(encoding="utf-8"))

    def run(self, inputs: dict, work: Path, workers: int) -> bool:
        import qdgates.cli

        argv = [self.mode, "--config", str(work / "workload.cfg"),
                "--out", str(work / "out"), "--workers", str(workers)]
        with contextlib.redirect_stdout(io.StringIO()):
            return qdgates.cli.main(argv) == 0

    def pool_points(self, inputs: dict) -> int:
        """Points completed where this process's counter cannot see them."""
        return 0


class ToffoliSweep(CliWorkload):
    name = "toffoli_sweep"
    mode = "sweep"
    pool_workers = 2
    step = 0.3            # spacing of np.linspace(0.15, 2.25, 8)
    first = 0.15
    points = 2            # the first two points of the shared grid, one per worker

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        start = self.first + _shift(rng, self.step)
        return {"start": start, "stop": start + self.step * (self.points - 1)}

    def config(self, inputs: dict) -> dict:
        return {"mode": "sweep", "device.gate": "toffoli", "device.j12": 0.42,
                "device.j23": 0.42, "device.b_ac": 0.004,
                "sweep.start": repr(inputs["start"]), "sweep.stop": repr(inputs["stop"]),
                "sweep.points": self.points, "sweep.fixed_fields": 0.25,
                "run.workers": self.pool_workers}

    def pool_points(self, inputs: dict) -> int:
        return self.points

    def check(self, inputs: dict, work: Path, rng: random.Random) -> list:
        """Verdicts match their P_up; a seeded point's P_up match expm_oracle."""
        from qdgates import analysis, cli, device
        from qdgates.config import parse_config

        spec = parse_config((work / "workload.cfg").read_text(encoding="utf-8"))
        rows = _read_csv(work / "out" / "sweep_row0.csv")
        errors = []
        if len(rows) != self.points * 8 * 3:
            errors.append(f"sweep CSV has {len(rows)} rows, want {self.points * 24}")
        by_point = {}
        for row in rows:
            by_point.setdefault(row["gradient_T"], {}).setdefault(
                row["initial_state"], []).append(row)
        for gradient, states in by_point.items():
            for initial, cells in states.items():
                p_up = [float(c["P_up"]) for c in cells]
                want = _verdict_of("toffoli", initial, p_up, spec.t_up, spec.t_down)
                if {c["verdict"] for c in cells} != {"pass" if want else "fail"}:
                    errors.append(f"verdict of {initial} at {gradient} T does not "
                                  "threshold its P_up")
        gradient = rng.choice(sorted(by_point))
        template = cli.template_from_spec(spec, spec.fixed_fields[0])
        cfg = device.resolve_drive(template.config(float(gradient)))
        oracle = _p_up_by_oracle(cfg, cli.noise_from_spec(spec), analysis.flip_time(cfg))
        for initial, cells in by_point[gradient].items():
            for q, cell in enumerate(cells):
                diff = abs(float(cell["P_up"]) - oracle[initial][q])
                if diff > ORACLE_TOL:
                    errors.append(f"P_up of {initial} q{q} at {gradient} T is "
                                  f"{diff:.2e} from expm_oracle")
        return errors


class CnotRanges(CliWorkload):
    name = "cnot_ranges"
    mode = "ranges"
    pool_workers = 2
    # On this line the range has a closed lower boundary at gradient
    # 0.013557 T, where exchange crosstalk fails the gate, and its upper
    # boundary near 2.01 T, where phonon relaxation does.  The grid spans
    # the lower one, whose points are cheap enough for many operations per
    # run.  Only the first grid point fails, and the next passes 0.0014 T
    # or more above the boundary.  Refinement bisects the 0.01 T step to
    # below 5e-5 T (three significant figures): exactly eight points for
    # every seed, since 0.01 / 2**8 = 3.9e-5 is well clear of the stop.
    step = 0.01
    first = 0.005
    points = 5

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        start = self.first + _shift(rng, self.step)
        return {"start": start, "stop": start + self.step * (self.points - 1)}

    def config(self, inputs: dict) -> dict:
        return {"mode": "ranges", "device.gate": "cnot", "device.j": 0.42,
                "device.b_ac": 0.004,
                "sweep.start": repr(inputs["start"]), "sweep.stop": repr(inputs["stop"]),
                "sweep.points": self.points, "sweep.fixed_fields": 1.0,
                "sweep.refine": "true", "run.workers": self.pool_workers}

    def pool_points(self, inputs: dict) -> int:
        return self.points

    def check(self, inputs: dict, work: Path, rng: random.Random) -> list:
        """The refined boundary is bracketed by the grid and agrees with the oracle."""
        from qdgates import analysis, cli, device
        from qdgates.config import parse_config

        spec = parse_config((work / "workload.cfg").read_text(encoding="utf-8"))
        rows = _read_csv(work / "out" / "ranges.csv")
        if len(rows) != 1:
            return [f"ranges CSV has {len(rows)} rows, want 1"]
        row = rows[0]
        if (row["status"], row["open_low"], row["open_high"]) != ("ok", "false", "true"):
            return [f"unexpected range shape {row}"]
        errors = []
        failing, passing = inputs["start"], inputs["start"] + self.step
        lower = float(row["b_control_min_T"]) - 1.0
        if not failing < lower < passing:
            errors.append(f"refined lower gradient {lower} outside its grid bracket")
        if not row["limit_state_low"] or not row["limit_qubit_low"]:
            errors.append("no limiting state at the closed lower boundary")
        # The first grid point must fail and the second pass, judged on P_up
        # from the matrix exponential at the program's flip time.
        gradient, want = rng.choice([(failing, False), (passing, True)])
        template = cli.template_from_spec(spec, 1.0)
        cfg = device.resolve_drive(template.config(gradient))
        oracle = _p_up_by_oracle(cfg, cli.noise_from_spec(spec), analysis.flip_time(cfg))
        passed = all(_verdict_of("cnot", s, p, spec.t_up, spec.t_down)
                     for s, p in oracle.items())
        if passed != want:
            errors.append(f"oracle verdict at {gradient} T is {passed}, the range "
                          f"says {want}")
        return errors


class CalibLowRow:
    name = "calib_low_row"
    pool_workers = 1
    tol = 1e-2
    # log10(UPSILON_DEFAULT) = 4.1977.  A bracket 0.0175 wide halves once
    # to 0.00875, below tol, so every seed makes exactly one bisection
    # point after the two end points.
    width = 0.0175
    first = 4.19

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        lo = self.first + _shift(rng, self.tol)
        return {"log10_lo": lo, "log10_hi": lo + self.width}

    def prepare(self, inputs: dict, work: Path) -> None:
        (work / "out").mkdir(exist_ok=True)

    def setup(self, inputs: dict, work: Path) -> None:
        from qdgates.calibration import LOW_ROW  # noqa: F401
        from qdgates.noise import NoiseConfig

        NoiseConfig()

    def run(self, inputs: dict, work: Path, workers: int) -> bool:
        import qdgates.calibration
        from qdgates.noise import NoiseConfig

        upsilon = qdgates.calibration.calibrate_upsilon(
            NoiseConfig(), log10_lo=inputs["log10_lo"], log10_hi=inputs["log10_hi"],
            tol=self.tol)
        (work / "out" / "upsilon.json").write_text(json.dumps({"upsilon": upsilon}),
                                                   encoding="utf-8")
        return True

    def pool_points(self, inputs: dict) -> int:
        return 0

    def check(self, inputs: dict, work: Path, rng: random.Random) -> list:
        """The fit reproduces the frozen UPSILON_DEFAULT within its tolerance."""
        from qdgates.noise import UPSILON_DEFAULT

        upsilon = json.loads((work / "out" / "upsilon.json").read_text())["upsilon"]
        miss = abs(math.log10(upsilon) - math.log10(UPSILON_DEFAULT))
        if miss > self.tol:
            return [f"fitted log10(upsilon) misses UPSILON_DEFAULT by {miss:.4f}"]
        return []


WORKLOADS = {w.name: w for w in (ToffoliSweep(), CnotRanges(), CalibLowRow())}
