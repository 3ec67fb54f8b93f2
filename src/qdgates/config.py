"""Flat key = value run configuration: parsing, validation and rendering.

The format is UTF-8 text, one `key = value` pair per line, `#` comments,
dotted section prefixes (device.*, noise.*, thresholds.*, sweep.*,
simulate.*, run.*, output.*).  Booleans are true/false, numbers accept
scientific notation, list values are comma separated.  Unknown keys are
errors, not warnings, and every error names the offending key and line.

All magnetic fields are in tesla, energies in ueV and times in ns at this
boundary; conversion to model units happens exactly once, downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import Thresholds
from .device import AUTO, CNOT, GATES, G_DEFAULT, LAYOUTS, TOFFOLI
from .lindblad import DEFAULT_SAMPLES
from .noise import PHONON_E_MODES, T2_STAR_NS_DEFAULT, NoiseConfig

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


@dataclass
class RunSpec:
    """Fully resolved run description; one-to-one with the config keys."""
    mode: str
    gate: str
    g: float = G_DEFAULT
    b_ac: float = 0.0
    drive_frequency: object = AUTO     # "auto" or signed ueV
    j: float = None                    # cnot exchange, ueV
    j12: float = None                  # toffoli exchange, ueV
    j23: float = None
    b_control: float = None            # simulate-mode static fields, tesla
    b_target: float = None
    b_left: float = None
    b_center: float = None
    b_right: float = None
    # noise section
    enable_hyperfine: bool = NoiseConfig.hyperfine
    enable_phonon: bool = NoiseConfig.phonon
    enable_dephasing: bool = NoiseConfig.dephasing
    upsilon: float = None              # None = package default
    phonon_p: float = None
    delta_e_nuc: float = NoiseConfig.delta_e_nuc
    t_k: float = NoiseConfig.t_k
    t2_star_ns: float = T2_STAR_NS_DEFAULT
    phonon_e_mode: str = NoiseConfig.phonon_e_mode
    # thresholds
    t_up: float = Thresholds.t_up
    t_down: float = Thresholds.t_down
    # sweep axis
    sweep_start: float = None          # tesla gradient
    sweep_stop: float = None
    sweep_points: int = None           # default: 60 per decade
    sweep_scale: str = "linear"
    fixed_fields: tuple = None         # tesla rows
    sweep_refine: bool = True
    # simulate
    initial_state: str = None
    t_end_ns: object = AUTO            # "auto" or ns
    samples: int = DEFAULT_SAMPLES
    # run control
    workers: int = 1                   # accepted and ignored: points run in-process
    output_dir: str = "out"


# key -> (attribute, type tag); type tags: float, int, bool, str, floats,
# auto_or_float (signed), choice:<options>
_KEYS = {
    "mode": ("mode", "choice:" + ",".join(MODES)),
    "device.gate": ("gate", "choice:" + ",".join(GATES)),
    "device.g": ("g", "float"),
    "device.b_ac": ("b_ac", "float"),
    "device.drive_frequency": ("drive_frequency", "auto_or_float"),
    "device.j": ("j", "float"),
    "device.j12": ("j12", "float"),
    "device.j23": ("j23", "float"),
    "device.b_control": ("b_control", "float"),
    "device.b_target": ("b_target", "float"),
    "device.b_left": ("b_left", "float"),
    "device.b_center": ("b_center", "float"),
    "device.b_right": ("b_right", "float"),
    "noise.enable_hyperfine": ("enable_hyperfine", "bool"),
    "noise.enable_phonon": ("enable_phonon", "bool"),
    "noise.enable_dephasing": ("enable_dephasing", "bool"),
    "noise.upsilon": ("upsilon", "float"),
    "noise.phonon_p": ("phonon_p", "float"),
    "noise.delta_e_nuc": ("delta_e_nuc", "float"),
    "noise.t_k": ("t_k", "float"),
    "noise.t2_star_ns": ("t2_star_ns", "float"),
    "noise.phonon_e_mode": ("phonon_e_mode", "choice:" + ",".join(PHONON_E_MODES)),
    "thresholds.t_up": ("t_up", "float"),
    "thresholds.t_down": ("t_down", "float"),
    "sweep.start": ("sweep_start", "float"),
    "sweep.stop": ("sweep_stop", "float"),
    "sweep.points": ("sweep_points", "int"),
    "sweep.scale": ("sweep_scale", "choice:" + ",".join(SCALES)),
    "sweep.fixed_fields": ("fixed_fields", "floats"),
    "sweep.refine": ("sweep_refine", "bool"),
    "simulate.initial_state": ("initial_state", "str"),
    "simulate.t_end_ns": ("t_end_ns", "auto_or_float"),
    "simulate.samples": ("samples", "int"),
    "run.workers": ("workers", "int"),
    "output.dir": ("output_dir", "str"),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}

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
        attr, kind = _KEYS[key]
        values[attr] = _parse_value(raw, kind, key, lineno)
        lines[key] = lineno
    if "mode" not in values:
        raise ConfigError("missing required key", "mode")
    if "gate" not in values:
        raise ConfigError("missing required key", "device.gate")
    spec = RunSpec(**values)
    validate_spec(spec, lines)
    return spec


def _require(spec: RunSpec, attr: str, lines: dict):
    if getattr(spec, attr) is None:
        key = _ATTR_TO_KEY[attr]
        raise ConfigError(f"missing required key for mode {spec.mode!r}", key,
                          lines.get(key))


def _check(cond: bool, message: str, attr: str, lines: dict):
    if not cond:
        key = _ATTR_TO_KEY[attr]
        raise ConfigError(message, key, lines.get(key))


def validate_spec(spec: RunSpec, lines: dict = None) -> None:
    lines = lines or {}
    for attr, value in vars(spec).items():
        if isinstance(value, bool):
            continue
        values = value if isinstance(value, tuple) else (value,)
        for v in values:
            if isinstance(v, (int, float)) and not math.isfinite(v):
                key = _ATTR_TO_KEY[attr]
                raise ConfigError("value must be finite", key, lines.get(key))
    _check(spec.b_ac >= 0, "b_ac must be non-negative", "b_ac", lines)
    if spec.mode != "simulate" or spec.t_end_ns == AUTO:
        _check(spec.b_ac > 0, "b_ac must be positive to find a flip time",
               "b_ac", lines)
    _check(spec.g != 0, "g must be nonzero", "g", lines)
    fields, couplings = GATE_KEYS[spec.gate]
    for attr in couplings:
        _require(spec, attr, lines)
        _check(getattr(spec, attr) >= 0, "exchange must be non-negative", attr, lines)
    _check(spec.delta_e_nuc > 0, "delta_e_nuc must be positive", "delta_e_nuc", lines)
    _check(spec.t_k > 0, "t_k must be positive", "t_k", lines)
    _check(spec.t2_star_ns > 0, "t2_star_ns must be positive", "t2_star_ns", lines)
    if spec.upsilon is not None:
        _check(spec.upsilon >= 0, "upsilon must be non-negative", "upsilon", lines)
    if spec.phonon_p is not None:
        _check(spec.phonon_p >= 0, "phonon_p must be non-negative", "phonon_p", lines)
    _check(0.0 < spec.t_down < spec.t_up < 1.0,
           "thresholds must satisfy 0 < t_down < t_up < 1", "t_down", lines)
    _check(spec.workers >= 1, "workers must be >= 1", "workers", lines)
    _check(spec.samples >= 2, "samples must be >= 2", "samples", lines)

    if spec.mode == "simulate":
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
        _require(spec, "sweep_start", lines)
        _require(spec, "sweep_stop", lines)
        _require(spec, "fixed_fields", lines)
        _check(spec.sweep_start < spec.sweep_stop,
               "sweep start must be below stop", "sweep_start", lines)
        _check(spec.sweep_start > 0, "gradients must be positive", "sweep_start", lines)
        _check(len(spec.fixed_fields) >= 1, "need at least one fixed field row",
               "fixed_fields", lines)
        _check(all(f > 0 for f in spec.fixed_fields), "fixed fields must be positive",
               "fixed_fields", lines)
        if spec.sweep_points is not None:
            _check(spec.sweep_points >= 2, "sweep needs at least 2 points",
                   "sweep_points", lines)


def render_config(spec: RunSpec) -> str:
    """Render a RunSpec back to config text; parse(render(s)) == s."""
    out = []
    for key, (attr, _) in _KEYS.items():
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
