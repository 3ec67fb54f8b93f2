import numpy as np
import pytest

from qdgates.config import (
    ConfigError,
    RunSpec,
    parse_config,
    render_config,
    sweep_axis,
)

MINIMAL_SIMULATE = """
mode = simulate
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
device.b_control = 1.5
device.b_target = 1.0
simulate.initial_state = uu
"""

MINIMAL_TOFFOLI_SIMULATE = """
mode = simulate
device.gate = toffoli
device.j12 = 0.42
device.j23 = 0.42
device.b_ac = 4e-3
device.b_left = 0.25
device.b_center = 0.55
device.b_right = 0.85
simulate.initial_state = uuu
"""

TABLE_ROW_SWEEP = """
# high-field reference row
mode = sweep
device.gate = cnot
device.b_ac = 4e-3          # tesla
device.j = 0.42             # ueV
sweep.start = 0.05
sweep.stop = 3.5
sweep.points = 12
sweep.fixed_fields = 1.0
"""


class TestParse:
    def test_minimal_simulate_defaults(self):
        spec = parse_config(MINIMAL_SIMULATE)
        assert spec.mode == "simulate"
        assert spec.gate == "cnot"
        assert spec.g == 2.0
        assert spec.delta_e_nuc == 0.3
        assert spec.t_k == 10.0
        assert spec.t2_star_ns == 1000.0
        assert spec.t_up == 0.8 and spec.t_down == 0.2
        assert spec.drive_frequency == "auto"
        assert spec.upsilon is None  # falls back to the calibrated default

    def test_reference_row_sweep(self):
        spec = parse_config(TABLE_ROW_SWEEP)
        assert spec.mode == "sweep"
        assert spec.b_ac == pytest.approx(4e-3)
        assert spec.j == pytest.approx(0.42)
        assert spec.fixed_fields == (1.0,)
        axis = sweep_axis(spec)
        assert len(axis) == 12
        assert axis[0] == pytest.approx(0.05) and axis[-1] == pytest.approx(3.5)

    def test_comments_and_blank_lines(self):
        spec = parse_config("# leading comment\n\n" + MINIMAL_SIMULATE)
        assert spec.mode == "simulate"

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_SIMULATE + "device.bogus = 1\n")
        assert "device.bogus" in str(err.value)

    def test_negative_t2_star_names_key_and_line(self):
        text = MINIMAL_SIMULATE + "noise.t2_star_ns = -5.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "noise.t2_star_ns" in str(err.value)
        lineno = text.splitlines().index("noise.t2_star_ns = -5.0") + 1
        assert str(lineno) in str(err.value)

    def test_missing_required_key_for_mode(self):
        broken = MINIMAL_SIMULATE.replace("device.b_target = 1.0\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "device.b_target" in str(err.value)

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_SIMULATE + "run.workers = many\n")
        assert "run.workers" in str(err.value)

    @pytest.mark.parametrize("text, old, new", [
        (MINIMAL_SIMULATE, "device.b_control = 1.5", "device.b_control = 1.0"),
        (MINIMAL_TOFFOLI_SIMULATE, "device.b_center = 0.55", "device.b_center = 0.2"),
        (MINIMAL_TOFFOLI_SIMULATE, "device.b_right = 0.85", "device.b_right = 0.55"),
    ], ids=["cnot", "toffoli-center", "toffoli-right"])
    def test_misordered_simulate_fields_name_key_and_line(self, text, old, new):
        parse_config(text)
        text = text.replace(old, new)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert repr(new.split(" = ")[0]) in str(err.value)
        lineno = text.splitlines().index(new) + 1
        assert f"line {lineno})" in str(err.value)

    @pytest.mark.parametrize("fields", ["-1.0", "1.0, -0.5"])
    def test_non_positive_fixed_field_names_key_and_line(self, fields):
        text = TABLE_ROW_SWEEP.replace("mode = sweep", "mode = ranges").replace(
            "sweep.fixed_fields = 1.0", f"sweep.fixed_fields = {fields}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "'sweep.fixed_fields'" in str(err.value)
        lineno = text.splitlines().index(f"sweep.fixed_fields = {fields}") + 1
        assert f"line {lineno})" in str(err.value)

    @pytest.mark.parametrize("raw", ["inf", "-inf", "1e999"])
    @pytest.mark.parametrize("key", ["sweep.points", "simulate.samples", "run.workers"])
    def test_infinite_int_names_key_and_line(self, key, raw):
        # int(float(raw)) overflows here, which must not escape as a traceback
        text = TABLE_ROW_SWEEP.replace("sweep.points = 12\n", "") + f"{key} = {raw}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert repr(key) in str(err.value)
        lineno = text.splitlines().index(f"{key} = {raw}") + 1
        assert f"line {lineno})" in str(err.value)

    @pytest.mark.parametrize("text", [
        TABLE_ROW_SWEEP,
        TABLE_ROW_SWEEP.replace("mode = sweep", "mode = ranges"),
        MINIMAL_SIMULATE,
    ], ids=["sweep", "ranges", "simulate-auto"])
    @pytest.mark.parametrize("b_ac", [None, "0"], ids=["missing", "zero"])
    def test_flip_time_modes_need_positive_b_ac(self, text, b_ac):
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("device.b_ac"))
        if b_ac is not None:
            text += f"device.b_ac = {b_ac}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "'device.b_ac'" in str(err.value)
        if b_ac is not None:
            assert f"line {len(text.splitlines())})" in str(err.value)

    def test_free_evolution_simulate_accepts_zero_b_ac(self):
        text = MINIMAL_SIMULATE.replace("device.b_ac = 4e-3", "device.b_ac = 0")
        spec = parse_config(text + "simulate.t_end_ns = 5\n")
        assert spec.b_ac == 0.0
        spec = parse_config(text.replace("device.b_ac = 0\n", "")
                            + "simulate.t_end_ns = 5\n")
        assert spec.b_ac == 0.0

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_SIMULATE + "device.j = 0.5\n")

    def test_threshold_ordering(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_SIMULATE + "thresholds.t_up = 0.1\n")

    def test_sweep_axis_ordering(self):
        text = TABLE_ROW_SWEEP.replace("sweep.start = 0.05", "sweep.start = 4.0")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "sweep.start" in str(err.value)

    def test_bad_initial_state(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_SIMULATE.replace("uu", "uud"))
        assert "simulate.initial_state" in str(err.value)

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError):
            parse_config("mode simulate\n")

    def test_non_finite_value_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_SIMULATE + "device.g = nan\n")
        assert "device.g" in str(err.value)
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_SIMULATE.replace("device.j = 0.42",
                                                  "device.j = inf"))

    def test_default_points_per_decade(self):
        text = TABLE_ROW_SWEEP.replace("sweep.points = 12\n", "")
        spec = parse_config(text)
        axis = sweep_axis(spec)
        # 0.05 -> 3.5 spans log10(70) = 1.845 decades at 60 points per decade
        assert len(axis) == int(np.ceil(60 * np.log10(3.5 / 0.05)))

    def test_log_scale_axis(self):
        text = TABLE_ROW_SWEEP + "sweep.scale = log\n"
        axis = sweep_axis(parse_config(text))
        ratios = axis[1:] / axis[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


def random_spec(rng) -> RunSpec:
    mode = rng.choice(["simulate", "sweep", "ranges"])
    gate = rng.choice(["cnot", "toffoli"])
    kwargs = dict(
        mode=str(mode),
        gate=str(gate),
        g=float(rng.uniform(0.4, 2.5)),
        b_ac=float(rng.uniform(1e-5, 0.01)),
        drive_frequency="auto" if rng.random() < 0.5 else float(rng.normal()),
        delta_e_nuc=float(rng.uniform(0.1, 1.0)),
        t_k=float(rng.uniform(1.0, 20.0)),
        t2_star_ns=float(rng.uniform(100.0, 5000.0)),
        t_up=0.8,
        t_down=0.2,
        enable_hyperfine=bool(rng.random() < 0.5),
        enable_phonon=bool(rng.random() < 0.5),
        enable_dephasing=bool(rng.random() < 0.5),
        workers=int(rng.integers(1, 4)),
        samples=int(rng.integers(400, 3000)),
        output_dir=str(rng.choice(["out", "results", "data/run1"])),
    )
    if gate == "cnot":
        kwargs["j"] = float(rng.uniform(0.0, 1.0))
    else:
        kwargs["j12"] = float(rng.uniform(0.0, 1.0))
        kwargs["j23"] = float(rng.uniform(0.0, 1.0))
    if mode == "simulate":
        if gate == "cnot":
            kwargs["b_control"] = float(rng.uniform(0.5, 3.0))
            kwargs["b_target"] = float(rng.uniform(0.01, 0.5))
        else:
            kwargs["b_left"] = float(rng.uniform(0.05, 0.3))
            kwargs["b_center"] = float(rng.uniform(0.3, 0.8))
            kwargs["b_right"] = float(rng.uniform(0.8, 2.0))
        n = 2 if gate == "cnot" else 3
        kwargs["initial_state"] = "".join(rng.choice(["u", "d"], size=n))
        kwargs["t_end_ns"] = "auto" if rng.random() < 0.5 else float(rng.uniform(1, 100))
    else:
        start = float(rng.uniform(0.01, 0.5))
        kwargs["sweep_start"] = start
        kwargs["sweep_stop"] = start + float(rng.uniform(0.1, 3.0))
        kwargs["sweep_points"] = int(rng.integers(2, 40))
        kwargs["sweep_scale"] = str(rng.choice(["linear", "log"]))
        kwargs["fixed_fields"] = tuple(
            float(x) for x in rng.uniform(0.1, 1.0, size=rng.integers(1, 4)))
        kwargs["sweep_refine"] = bool(rng.random() < 0.5)
    return RunSpec(**kwargs)


class TestRoundTrip:
    def test_hundred_random_specs(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            spec = random_spec(rng)
            assert parse_config(render_config(spec)) == spec
