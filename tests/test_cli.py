"""CLI contract tests: schemas, golden files, determinism, exit codes.

Golden files live in tests/golden/ and are regenerated by running pytest
with QDGATES_REGEN_GOLDEN=1 in the environment.
"""
import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qdgates.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

SIMULATE_CFG = """\
mode = simulate
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
device.b_control = 1.0
device.b_target = 0.5
noise.enable_hyperfine = false
noise.enable_phonon = false
noise.enable_dephasing = false
simulate.initial_state = uu
simulate.samples = 9
"""

SWEEP_CFG = """\
mode = sweep
device.gate = toffoli
device.j12 = 0.42
device.j23 = 0.42
device.b_ac = 4e-3
noise.enable_hyperfine = false
noise.enable_phonon = false
noise.enable_dephasing = false
sweep.start = 0.3
sweep.stop = 0.5
sweep.points = 2
sweep.fixed_fields = 0.1
"""

SWEEP_CNOT_CFG = """\
mode = sweep
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
noise.enable_hyperfine = false
noise.enable_phonon = false
noise.enable_dephasing = false
sweep.start = 0.3
sweep.stop = 0.7
sweep.points = 3
sweep.fixed_fields = 0.5
"""

RANGES_CFG = """\
mode = ranges
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
sweep.start = 1.6
sweep.stop = 2.4
sweep.points = 5
sweep.fixed_fields = 1.0
sweep.refine = false
"""

RANGES_TOFFOLI_CFG = """\
mode = ranges
device.gate = toffoli
device.j12 = 0.42
device.j23 = 0.42
device.b_ac = 4e-3
noise.enable_hyperfine = false
noise.enable_phonon = false
noise.enable_dephasing = false
sweep.start = 0.3
sweep.stop = 0.5
sweep.points = 3
sweep.fixed_fields = 0.1
sweep.refine = false
"""

# The CNOT line B_target = 1 T has a closed lower boundary near 0.0136 T:
# the first grid point fails, the rest pass, and the root finder closes the
# first step in 6 points (bisection needs 8).
RANGES_REFINE_CFG = """\
mode = ranges
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
sweep.start = 0.005
sweep.stop = 0.045
sweep.points = 5
sweep.fixed_fields = 1.0
"""

# Both configs fail at every grid point, so every row is "empty": CNOT
# under exchange crosstalk at millitesla gradients, Toffoli under phonon
# relaxation at large ones.
RANGES_EMPTY_CFG = """\
mode = ranges
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
sweep.start = 0.001
sweep.stop = 0.004
sweep.points = 3
sweep.fixed_fields = 1.0, 0.5
"""

RANGES_TOFFOLI_EMPTY_CFG = """\
mode = ranges
device.gate = toffoli
device.j12 = 0.42
device.j23 = 0.42
device.b_ac = 4e-3
sweep.start = 2.0
sweep.stop = 2.25
sweep.points = 2
sweep.fixed_fields = 0.25
"""


def breakdown_config(t_end_ns: str, noise: str) -> str:
    """SIMULATE_CFG run to an explicit end time with the noise on or off."""
    text = SIMULATE_CFG.replace("= false", f"= {noise}")
    return text.replace("simulate.samples = 9", "simulate.samples = 3") + \
        f"simulate.t_end_ns = {t_end_ns}\n"


def run_cli(tmp_path, name, cfg_text, mode, out_name="out", workers=None):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / out_name
    argv = [mode, "--config", str(cfg), "--out", str(out)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return out


def compare_csv(actual: Path, golden: Path, float_tol=1e-9):
    """Headers and layout byte-exact; numeric cells within float_tol."""
    if os.environ.get("QDGATES_REGEN_GOLDEN"):
        golden.parent.mkdir(exist_ok=True)
        golden.write_bytes(actual.read_bytes())
        return
    got = actual.read_text(encoding="utf-8").splitlines()
    want = golden.read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), "row count changed"
    for g_line, w_line in zip(got[1:], want[1:]):
        g_cells = g_line.split(",")
        w_cells = w_line.split(",")
        assert len(g_cells) == len(w_cells)
        for g, w in zip(g_cells, w_cells):
            try:
                w_val = float(w)
            except ValueError:
                assert g == w
                continue
            assert float(g) == pytest.approx(w_val, abs=float_tol, rel=1e-6)


class TestSimulateMode:
    def test_trajectory_schema_and_golden(self, tmp_path):
        out = run_cli(tmp_path, "sim", SIMULATE_CFG, "simulate")
        traj = out / "trajectory.csv"
        header = traj.read_text().splitlines()[0]
        assert header == "time_ns,P_up_q0,P_up_q1,trace_error"
        compare_csv(traj, GOLDEN_DIR / "trajectory.csv")

    def test_final_target_population_flipped(self, tmp_path):
        out = run_cli(tmp_path, "sim", SIMULATE_CFG, "simulate")
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        target_p_up = float(last.split(",")[2])
        assert target_p_up <= 0.01

    def test_manifest_records_constants_and_version(self, tmp_path):
        from qdgates import __version__
        from qdgates.noise import PHONON_P_DEFAULT, UPSILON_DEFAULT

        out = run_cli(tmp_path, "sim", SIMULATE_CFG, "simulate")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tool"] == "qdgates"
        assert manifest["version"] == __version__
        assert manifest["noise_constants"]["upsilon"] == UPSILON_DEFAULT
        assert manifest["noise_constants"]["phonon_p"] == PHONON_P_DEFAULT
        assert manifest["parameters"]["gate"] == "cnot"
        # auto drive resolved to the signed co-rotating value
        assert manifest["resolved"]["resolved_drive_frequency_ueV"] < 0
        assert manifest["resolved"]["t_end_ns"] > 0


class TestSweepMode:
    def test_schema_and_golden(self, tmp_path):
        out = run_cli(tmp_path, "swp", SWEEP_CFG, "sweep")
        csv = out / "sweep_row0.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "gradient_T,initial_state,qubit_role,P_up,verdict"
        # 2 gradients x 8 initial states x 3 qubits
        assert len(lines) == 1 + 2 * 8 * 3
        compare_csv(csv, GOLDEN_DIR / "sweep_row0.csv")

    def test_noise_free_curves_flat_at_truth_table(self, tmp_path):
        from qdgates.analysis import expected_final

        out = run_cli(tmp_path, "swpc", SWEEP_CNOT_CFG, "sweep")
        for line in (out / "sweep_row0.csv").read_text().splitlines()[1:]:
            _, initial, role, p_up, verdict = line.split(",")
            roles = ("control", "target")
            want = expected_final("cnot", initial)[roles.index(role)]
            assert abs(float(p_up) - (1.0 if want == "u" else 0.0)) < 0.01
            assert verdict == "pass"

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        first = run_cli(tmp_path, "swp", SWEEP_CFG, "sweep", out_name="a")
        second = run_cli(tmp_path, "swp", SWEEP_CFG, "sweep", out_name="b")
        parallel = run_cli(tmp_path, "swp", SWEEP_CFG, "sweep", out_name="c",
                           workers=2)
        ref = (first / "sweep_row0.csv").read_bytes()
        assert (second / "sweep_row0.csv").read_bytes() == ref
        assert (parallel / "sweep_row0.csv").read_bytes() == ref


class TestRangesMode:
    def test_schema_and_golden(self, tmp_path):
        out = run_cli(tmp_path, "rng", RANGES_CFG, "ranges")
        csv = out / "ranges.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == ("b_ac_T,j_ueV,b_target_T,status,"
                            "b_control_min_T,b_control_max_T,open_low,open_high,"
                            "limit_state_low,limit_qubit_low,"
                            "limit_state_high,limit_qubit_high")
        assert len(lines) == 2
        compare_csv(csv, GOLDEN_DIR / "ranges.csv", float_tol=1e-6)

    def test_limiting_state_at_high_boundary(self, tmp_path):
        out = run_cli(tmp_path, "rng", RANGES_CFG, "ranges")
        row = (out / "ranges.csv").read_text().splitlines()[1].split(",")
        status = row[3]
        assert status == "ok"
        assert row[10] == "dd" and row[11] == "control"

    def test_toffoli_table_shape(self, tmp_path):
        # one row per fixed left-control field with both derived field windows
        out = run_cli(tmp_path, "rngt", RANGES_TOFFOLI_CFG, "ranges")
        lines = (out / "ranges.csv").read_text().splitlines()
        assert lines[0] == ("b_ac_T,j12_ueV,j23_ueV,b_left_T,status,"
                            "b_center_min_T,b_center_max_T,"
                            "b_right_min_T,b_right_max_T,open_low,open_high,"
                            "limit_state_low,limit_qubit_low,"
                            "limit_state_high,limit_qubit_high")
        row = lines[1].split(",")
        assert row[:5] == ["0.004", "0.42", "0.42", "0.1", "ok"]
        # noise-free: the whole grid passes, so both boundaries are open
        # and the windows are b_left + grad and b_left + 2 grad
        assert float(row[5]) == pytest.approx(0.4)
        assert float(row[6]) == pytest.approx(0.6)
        assert float(row[7]) == pytest.approx(0.7)
        assert float(row[8]) == pytest.approx(1.1)
        assert row[9] == "true" and row[10] == "true"

    @pytest.mark.parametrize("cfg_text, rows, cells", [
        (RANGES_EMPTY_CFG, 2, 12),
        (RANGES_TOFFOLI_EMPTY_CFG, 1, 15),
    ], ids=["cnot", "toffoli"])
    def test_empty_row_has_header_width(self, tmp_path, cfg_text, rows, cells):
        out = run_cli(tmp_path, "rnge", cfg_text, "ranges")
        lines = (out / "ranges.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert len(header) == cells
        assert len(lines) == 1 + rows
        status = header.index("status")
        for line in lines[1:]:
            row = line.split(",")
            assert len(row) == cells
            assert row[status] == "empty"
            assert row[status + 1:] == [""] * (cells - status - 1)


class TestWorkerCount:
    @pytest.mark.parametrize("cfg_text, mode, csv_name, refine_points", [
        (SWEEP_CFG, "sweep", "sweep_row0.csv", 0),
        (RANGES_REFINE_CFG, "ranges", "ranges.csv", 6),
    ], ids=["sweep", "ranges"])
    def test_every_point_runs_in_this_process(self, tmp_path, monkeypatch, cfg_text,
                                              mode, csv_name, refine_points):
        from qdgates import analysis
        from qdgates.config import parse_config, sweep_axis

        evaluate_point = analysis.evaluate_point
        calls = []

        def recording(template, gradient, *args):
            calls.append((float(gradient), os.getpid()))
            return evaluate_point(template, gradient, *args)

        monkeypatch.setattr(analysis, "evaluate_point", recording)
        ref = run_cli(tmp_path, "ref", cfg_text, mode, out_name="ref", workers=1)
        gradients = [g for g, _ in calls]
        grid = [float(g) for g in sweep_axis(parse_config(cfg_text))]
        assert gradients[:len(grid)] == grid
        assert len(gradients) == len(grid) + refine_points
        for name, text, workers in (("flag", cfg_text, 2),
                                    ("key", cfg_text + "run.workers = 2\n", None)):
            calls.clear()
            out = run_cli(tmp_path, name, text, mode, out_name=name, workers=workers)
            assert [g for g, _ in calls] == gradients
            assert {pid for _, pid in calls} == {os.getpid()}
            assert (out / csv_name).read_bytes() == (ref / csv_name).read_bytes()


class TestCliErrors:
    def test_parser_is_built_once(self, capsys):
        # every in-process `main` call shares one parser; a parse, even a
        # failed one, leaves nothing behind for the next
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["ranges", "--config", "a.cfg", "--out", "o"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])
        assert "--config" in capsys.readouterr().err
        second = build_parser().parse_args(["sweep", "--config", "b.cfg"])
        assert (first.command, first.config, first.out) == ("ranges", "a.cfg", "o")
        assert (second.command, second.config, second.out) == ("sweep", "b.cfg", None)

    def test_unparseable_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = simulate\ndevice.bogus = 1\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_mode_mismatch(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIMULATE_CFG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("fields", ["-1.0", "1.0, -0.5"])
    def test_non_positive_fixed_field_writes_nothing(self, tmp_path, fields):
        # rejected before any row runs, so nothing is written
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(RANGES_CFG.replace("sweep.fixed_fields = 1.0",
                                          f"sweep.fixed_fields = {fields}"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ranges", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("t_end_ns, noise, reason", [
        ("1e300", "true", "trace drift"),         # squarings underflow to zero
        ("1e300", "false", "non-finite step"),    # squarings overflow to NaN
        ("1e308", "true", "1-norm inf"),          # L dt itself overflows
        ("1e9", "false", "least eigenvalue"),     # squarings lose positivity
    ])
    def test_propagation_breakdown_is_an_error(self, tmp_path, capsys, t_end_ns,
                                               noise, reason):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(breakdown_config(t_end_ns, noise), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "propagation" in err and reason in err
        assert not (out / "trajectory.csv").exists()

    def test_long_noisy_run_still_succeeds(self, tmp_path):
        from qdgates.lindblad import TRACE_TOL

        out = run_cli(tmp_path, "long", breakdown_config("1e9", "true"), "simulate")
        trace_error = float((out / "trajectory.csv").read_text().splitlines()[-1]
                            .split(",")[-1])
        assert 1e-7 < abs(trace_error) < TRACE_TOL     # measured 3.2e-6

    def test_seed_flag_accepted(self, tmp_path):
        out = run_cli(tmp_path, "sim", SIMULATE_CFG, "simulate")
        cfg = tmp_path / "sim.cfg"
        with redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "seeded"), "--seed", "42"]) == 0
        assert (tmp_path / "seeded" / "trajectory.csv").read_bytes() == \
            (out / "trajectory.csv").read_bytes()
