"""Flat key = value run configuration: parsing, validation and rendering.

The format is UTF-8 text, one `key = value` pair per line, `#` comments,
dotted section prefixes (device.*, noise.*, thresholds.*, sweep.*,
simulate.*, run.*, output.*).  Booleans are true/false, numbers accept
scientific notation, list values are comma separated.  Unknown keys are
errors, not warnings, and every error names the offending key and line.

`_KEYS` is the schema: `RunSpec` has one field per key, and a key that the
run's mode or gate does not read must keep its default.  `NoiseConfig`,
`Thresholds` and `DeviceConfig` own their parameters' rules: validation
builds them as the run will and reports a `ParameterError` against its key.

All magnetic fields are in tesla, energies in ueV and times in ns at this
boundary; conversion to model units happens exactly once, downstream.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, make_dataclass

import numpy as np

from .analysis import SweepTemplate, Thresholds
from .device import (AUTO, CNOT, GATES, G_DEFAULT, LAYOUTS, TOFFOLI, DeviceConfig,
                     ParameterError, ns_to_time)
from .lindblad import DEFAULT_SAMPLES
from .noise import T2_STAR_NS_DEFAULT, NoiseConfig

MODES = ("simulate", "sweep", "ranges")
SCALES = ("linear", "log")

DEFAULT_POINTS_PER_DECADE = 60


class ConfigError(ValueError):
    def __init__(self, message: str, key: str = None, line: int = None):
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
        self.key = key
        self.line = line


ALL, SIMULATE, GRID = MODES, MODES[:1], MODES[1:]

# key -> (attribute, type tag, default, modes that read it); type tags: float,
# int, bool, str, floats, auto_or_float (signed), choice:<options>
_KEYS = {
    "mode": ("mode", "choice:" + ",".join(MODES), MISSING, ALL),
    "device.gate": ("gate", "choice:" + ",".join(GATES), MISSING, ALL),
    "device.g": ("g", "float", G_DEFAULT, ALL),
    "device.b_ac": ("b_ac", "float", 0.0, ALL),                     # tesla
    "device.drive_frequency": ("drive_frequency", "auto_or_float", AUTO, SIMULATE),  # ueV
    "device.j": ("j", "float", None, ALL),                          # cnot exchange, ueV
    "device.j12": ("j12", "float", None, ALL),                      # toffoli exchange, ueV
    "device.j23": ("j23", "float", None, ALL),
    "device.b_control": ("b_control", "float", None, SIMULATE),     # static fields, tesla
    "device.b_target": ("b_target", "float", None, SIMULATE),
    "device.b_left": ("b_left", "float", None, SIMULATE),
    "device.b_center": ("b_center", "float", None, SIMULATE),
    "device.b_right": ("b_right", "float", None, SIMULATE),
    "noise.enable_hyperfine": ("enable_hyperfine", "bool", NoiseConfig.hyperfine, ALL),
    "noise.enable_phonon": ("enable_phonon", "bool", NoiseConfig.phonon, ALL),
    "noise.enable_dephasing": ("enable_dephasing", "bool", NoiseConfig.dephasing, ALL),
    "noise.upsilon": ("upsilon", "float", None, ALL),               # None = package default
    "noise.phonon_p": ("phonon_p", "float", None, ALL),
    "noise.delta_e_nuc": ("delta_e_nuc", "float", NoiseConfig.delta_e_nuc, ALL),  # ueV
    "noise.t_k": ("t_k", "float", NoiseConfig.t_k, ALL),            # ueV
    "noise.t2_star_ns": ("t2_star_ns", "float", T2_STAR_NS_DEFAULT, ALL),
    "noise.phonon_e_mode": ("phonon_e_mode", "str", NoiseConfig.phonon_e_mode, ALL),
    "thresholds.t_up": ("t_up", "float", Thresholds.t_up, GRID),
    "thresholds.t_down": ("t_down", "float", Thresholds.t_down, GRID),
    "sweep.start": ("sweep_start", "float", None, GRID),            # tesla gradient
    "sweep.stop": ("sweep_stop", "float", None, GRID),
    "sweep.points": ("sweep_points", "int", None, GRID),            # default: 60 per decade
    "sweep.scale": ("sweep_scale", "choice:" + ",".join(SCALES), "linear", GRID),
    "sweep.fixed_fields": ("fixed_fields", "floats", None, GRID),   # tesla rows
    "sweep.refine": ("sweep_refine", "bool", True, ("ranges",)),
    "simulate.initial_state": ("initial_state", "str", None, SIMULATE),
    "simulate.t_end_ns": ("t_end_ns", "auto_or_float", AUTO, SIMULATE),  # ns
    "simulate.samples": ("samples", "int", DEFAULT_SAMPLES, SIMULATE),
    "run.workers": ("workers", "int", 1, ALL),     # accepted and ignored: points run in-process
    "output.dir": ("output_dir", "str", "out", ALL),
}

RunSpec = make_dataclass(
    "RunSpec", [(attr, kind) if default is MISSING else (attr, kind, default)
                for attr, kind, default, _ in _KEYS.values()],
    namespace={"__module__": __name__,
               "__doc__": "Fully resolved run description; one field per config key."})

_ATTR_TO_KEY = {attr: key for key, (attr, *_) in _KEYS.items()}

# gate -> (static-field attributes in the chain order of LAYOUTS, exchange attributes)
GATE_KEYS = {
    CNOT: (("b_control", "b_target"), ("j",)),
    TOFFOLI: (("b_left", "b_center", "b_right"), ("j12", "j23")),
}


def _parse_value(raw: str, kind: str, key: str, line: int):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            value = float(raw)
            if value != int(value):
                raise ValueError
            return int(value)
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError
        if kind == "str":
            return raw
        if kind == "floats":
            return tuple(float(part) for part in raw.split(","))
        if kind == "auto_or_float":
            return AUTO if raw.lower() == AUTO else float(raw)
        if kind.startswith("choice:"):
            options = kind.split(":", 1)[1].split(",")
            if raw not in options:
                raise ConfigError(f"value {raw!r} not one of {options}", key, line)
            return raw
    except ConfigError:
        raise
    except (ValueError, OverflowError):     # int(float("inf")) overflows
        raise ConfigError(f"cannot parse {raw!r} as {kind}", key, line) from None
    raise AssertionError(f"unhandled kind {kind}")


def parse_config(text: str) -> RunSpec:
    """Parse and fully validate a config document into a RunSpec."""
    values = {}
    lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}",
                              line=lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", key, lineno)
        if key in lines:
            raise ConfigError("duplicate key", key, lineno)
        attr, kind, _, _ = _KEYS[key]
        values[attr] = _parse_value(raw, kind, key, lineno)
        lines[key] = lineno
    if "mode" not in values:
        raise ConfigError("missing required key", "mode")
    if "gate" not in values:
        raise ConfigError("missing required key", "device.gate")
    spec = RunSpec(**values)
    validate_spec(spec, lines)
    return spec


def _check(cond: bool, message: str, attr: str, lines: dict):
    if not cond:
        key = _ATTR_TO_KEY[attr]
        raise ConfigError(message, key, lines.get(key))


def _require(spec: RunSpec, attr: str, lines: dict):
    if getattr(spec, attr) is None:
        _check(False, f"missing required key for mode {spec.mode!r}", attr, lines)


def validate_spec(spec: RunSpec, lines: dict = None) -> None:
    lines = lines or {}
    _check(spec.mode in MODES, f"unknown mode {spec.mode!r}", "mode", lines)
    _check(spec.gate in GATE_KEYS, f"unknown gate {spec.gate!r}", "gate", lines)
    for attr, value in vars(spec).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, (int, float)):
                _check(math.isfinite(v), "value must be finite", attr, lines)
    fields, couplings = GATE_KEYS[spec.gate]
    other_gates = {a for f, c in GATE_KEYS.values() for a in f + c} - {*fields, *couplings}
    for key, (attr, _, default, modes) in _KEYS.items():
        if (spec.mode not in modes or attr in other_gates) and getattr(spec, attr) != default:
            raise ConfigError(f"a {spec.gate} {spec.mode} run does not read this key", key,
                              lines.get(key))
    if spec.mode != "simulate" or spec.t_end_ns == AUTO:
        _check(spec.b_ac > 0, "b_ac must be positive to find a flip time", "b_ac", lines)
    _check(spec.g != 0, "g must be nonzero", "g", lines)
    for attr in couplings:
        _require(spec, attr, lines)
    _check(spec.workers >= 1, "workers must be >= 1", "workers", lines)

    if spec.mode == "simulate":
        _check(spec.samples >= 2, "samples must be >= 2", "samples", lines)
        for attr in fields:
            _require(spec, attr, lines)
        ranked = [attr for _, attr in sorted(zip(LAYOUTS[spec.gate].offsets, fields))]
        order = f"{spec.gate} needs fields increasing as {' < '.join(ranked)}"
        for low, high in zip(ranked, ranked[1:]):
            _check(getattr(spec, high) > getattr(spec, low), order, high, lines)
        _require(spec, "initial_state", lines)
        n = len(fields)
        _check(len(spec.initial_state) == n
               and all(ch in "ud" for ch in spec.initial_state),
               f"initial state must be {n} characters of u/d", "initial_state", lines)
        if spec.t_end_ns != AUTO:
            _check(spec.t_end_ns > 0, "t_end_ns must be positive", "t_end_ns", lines)
    else:
        for attr in ("sweep_start", "sweep_stop", "fixed_fields"):
            _require(spec, attr, lines)
        _check(spec.sweep_start < spec.sweep_stop,
               "sweep start must be below stop", "sweep_start", lines)
        _check(spec.sweep_start > 0, "gradients must be positive", "sweep_start", lines)
        _check(len(spec.fixed_fields) >= 1, "need at least one fixed field row",
               "fixed_fields", lines)
        _check(all(f > 0 for f in spec.fixed_fields), "fixed fields must be positive",
               "fixed_fields", lines)
        if spec.sweep_points is not None:
            _check(spec.sweep_points >= 2, "sweep needs at least 2 points", "sweep_points", lines)
    try:
        noise_from_spec(spec)
        if spec.mode == "simulate":
            device_from_spec(spec)
        else:
            thresholds_from_spec(spec)
            for fixed in spec.fixed_fields:
                template_from_spec(spec, fixed).config(spec.sweep_start)
    except ParameterError as exc:      # "exchange[1]" is the gate's second coupling
        name, _, index = exc.field.rstrip("]").partition("[")
        attr = (GATE_KEYS[spec.gate][name == "exchange"][int(index)] if index
                else {"t2_star": "t2_star_ns"}.get(name, name))
        key = _ATTR_TO_KEY[attr]
        raise ConfigError(str(exc), key, lines.get(key)) from None


def noise_from_spec(spec: RunSpec) -> NoiseConfig:
    rates = {"upsilon": spec.upsilon, "phonon_p": spec.phonon_p}   # None: package default
    return NoiseConfig(delta_e_nuc=spec.delta_e_nuc, t_k=spec.t_k,
                       t2_star=ns_to_time(spec.t2_star_ns), hyperfine=spec.enable_hyperfine,
                       phonon=spec.enable_phonon, dephasing=spec.enable_dephasing,
                       phonon_e_mode=spec.phonon_e_mode,
                       **{name: value for name, value in rates.items() if value is not None})


def thresholds_from_spec(spec: RunSpec) -> Thresholds:
    return Thresholds(t_up=spec.t_up, t_down=spec.t_down)


def _values(spec: RunSpec, attrs: tuple) -> tuple:
    return tuple(getattr(spec, attr) for attr in attrs)


def device_from_spec(spec: RunSpec) -> DeviceConfig:
    """Explicit-field device for simulate mode."""
    fields, couplings = GATE_KEYS[spec.gate]
    return DeviceConfig(gate=spec.gate, b_fields=_values(spec, fields), b_ac=spec.b_ac,
                        exchange=_values(spec, couplings), g=spec.g,
                        drive_frequency=spec.drive_frequency)


def template_from_spec(spec: RunSpec, fixed_field: float) -> SweepTemplate:
    return SweepTemplate(gate=spec.gate, fixed_field=fixed_field, b_ac=spec.b_ac,
                         exchange=_values(spec, GATE_KEYS[spec.gate][1]), g=spec.g)


def render_config(spec: RunSpec) -> str:
    """Render a RunSpec back to config text; parse(render(s)) == s."""
    out = []
    for key, (attr, *_) in _KEYS.items():
        value = getattr(spec, attr)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ", ".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        out.append(f"{key} = {text}")
    return "\n".join(out) + "\n"


def sweep_axis(spec: RunSpec):
    """Gradient grid for sweep/ranges modes; default 60 points per decade."""
    points = spec.sweep_points
    if points is None:
        decades = np.log10(spec.sweep_stop / spec.sweep_start)
        points = max(2, int(np.ceil(DEFAULT_POINTS_PER_DECADE * decades)))
    if spec.sweep_scale == "log":
        return np.logspace(np.log10(spec.sweep_start), np.log10(spec.sweep_stop),
                           points)
    return np.linspace(spec.sweep_start, spec.sweep_stop, points)
