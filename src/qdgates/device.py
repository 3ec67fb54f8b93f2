"""Spin-chain Hamiltonians for exchange-coupled quantum-dot qubits.

Units and conventions, fixed package-wide:

* energies in ueV, magnetic fields in tesla, g-factor dimensionless;
* hbar = 1 internally, so one model time unit equals HBAR = 0.6582120 ns
  (time in ns = model time * HBAR); all dynamics code works in model units
  and the CLI converts at the boundary;
* sigma operators are Pauli matrices (eigenvalues +-1), so a single-spin
  Zeeman gap is 2*g*MU_B*B;
* `LAYOUTS` describes each gate's chain once: CNOT is [control, target]
  with the control at the higher static field, Toffoli is [left control,
  center target, right control] with fields increasing left to right;
* the two gates use opposite signs on the static Zeeman term (+ for the
  two-spin chain, - for the three-spin chain).  Flipping the sign only
  relabels which spin pattern is highest in energy; both builders follow
  their own convention exactly and all derived quantities (resonances,
  collapse rates) are computed from the eigensystem, so internal
  consistency never depends on the choice.

Drive frequency is *signed*: the transverse ac field enters as the
circularly polarized combination cos(wt)*Sx - sin(wt)*Sy, and the sign of
w selects the rotation direction.  "auto" resolution picks the signed
value that makes the drive co-rotate with the gate transition
(all-controls-up <-> target-flipped), which is negative for the two-spin
chain with g > 0 and positive for the three-spin chain.  The magnitude is
always the bare transition gap of the drive-free spectrum.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .operators import EigenSystem, eigensystem, embed_pauli

MU_B = 57.883818        # Bohr magneton, ueV / T
HBAR = 0.6582120        # ueV * ns; length of one model time unit in ns

G_DEFAULT = 2.0
G_GAAS = -0.44          # documented preset; energy scales use |g|

CNOT = "cnot"
TOFFOLI = "toffoli"
TARGET_QUBIT = 1        # the target's place in both chains


@dataclass(frozen=True)
class GateLayout:
    """One gate's chain: qubit roles, controls, static Zeeman sign, and the
    sweep-line offsets (qubit q at fixed + offsets[q] * gradient), by which
    the static fields of every configuration must be strictly ordered."""
    roles: tuple
    controls: tuple
    zeeman_sign: float
    offsets: tuple


LAYOUTS = {
    CNOT: GateLayout(roles=("control", "target"), controls=(0,), zeeman_sign=1.0,
                     offsets=(1, 0)),
    TOFFOLI: GateLayout(roles=("control_left", "target", "control_right"),
                        controls=(0, 2), zeeman_sign=-1.0, offsets=(0, 1, 2)),
}
GATES = tuple(LAYOUTS)

AUTO = "auto"


class ParameterError(ValueError):
    """A model parameter outside its domain; `field` names it, with an index
    for a tuple entry, e.g. "exchange[1]"."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def ns_to_time(t_ns: float) -> float:
    """Convert nanoseconds to model time units (hbar/ueV)."""
    return t_ns / HBAR


def time_to_ns(t: float) -> float:
    return t * HBAR


def field_to_energy(b_tesla: float, g: float) -> float:
    """Zeeman energy coefficient g * mu_B * B in ueV."""
    return g * MU_B * b_tesla


def layout_of(gate: str) -> GateLayout:
    """The `GateLayout` of a gate name; ValueError for any other name."""
    if gate not in GATES:
        raise ParameterError("gate", f"unknown gate {gate!r}")
    return LAYOUTS[gate]


@dataclass(frozen=True)
class DeviceConfig:
    """Static description of one gate configuration.

    b_fields holds the static field of each qubit in tesla and exchange the
    coupling of each neighbour pair in ueV, in the chain order of `layout`.
    drive_frequency is either the sentinel "auto" or a signed energy in
    ueV (see module docstring).
    """
    gate: str
    b_fields: tuple
    b_ac: float
    exchange: tuple
    g: float = G_DEFAULT
    drive_frequency: object = AUTO

    def __post_init__(self):
        n = len(layout_of(self.gate).roles)
        object.__setattr__(self, "b_fields", tuple(float(b) for b in self.b_fields))
        object.__setattr__(self, "exchange", tuple(float(j) for j in self.exchange))
        if len(self.b_fields) != n:
            raise ParameterError("b_fields", f"{self.gate} needs {n} static fields, "
                                 f"got {len(self.b_fields)}")
        if len(self.exchange) != n - 1:
            raise ParameterError("exchange", f"{self.gate} needs {n - 1} exchange couplings")
        values = [*self.b_fields, self.b_ac, *self.exchange, self.g]
        if self.drive_frequency != AUTO:
            values.append(float(self.drive_frequency))
        if not all(map(math.isfinite, values)):
            names = [*(f"b_fields[{q}]" for q in range(n)), "b_ac",
                     *(f"exchange[{k}]" for k in range(n - 1)), "g", "drive_frequency"]
            field = next(f for f, v in zip(names, values) if not math.isfinite(v))
            raise ParameterError(field, f"device parameters must be finite, {field} is not")
        if self.b_ac < 0:
            raise ParameterError("b_ac", "b_ac must be non-negative")
        for k, j in enumerate(self.exchange):
            if j < 0:
                raise ParameterError(f"exchange[{k}]", "exchange couplings must be non-negative")
        self._warn_gradient_shape()

    def _warn_gradient_shape(self):
        ranked = sorted(zip(self.layout.offsets, self.b_fields, self.layout.roles))
        if any(low[1] >= high[1] for low, high in zip(ranked, ranked[1:])):
            warnings.warn(f"{self.gate} expects fields increasing as "
                          + " < ".join(role for _, _, role in ranked), stacklevel=3)

    @property
    def layout(self) -> GateLayout:
        return LAYOUTS[self.gate]

    @property
    def n_qubits(self) -> int:
        return len(self.b_fields)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def zeeman_energies(self) -> tuple:
        return tuple(field_to_energy(b, self.g) for b in self.b_fields)

    @property
    def drive_energy(self) -> float:
        return field_to_energy(self.b_ac, self.g)

    def resolved(self) -> bool:
        return self.drive_frequency != AUTO


def line_config(gate: str, fixed: float, gradient: float, *, exchange, b_ac: float,
                g: float = G_DEFAULT, drive_frequency=AUTO) -> DeviceConfig:
    """Configuration with qubit q at fixed + offsets[q] * gradient (offset 0: `fixed` exactly)."""
    fields = tuple(fixed + o * gradient for o in layout_of(gate).offsets)
    return DeviceConfig(gate=gate, b_fields=fields, b_ac=b_ac, exchange=exchange, g=g,
                        drive_frequency=drive_frequency)


def cnot_config(b_target: float, gradient: float, *, j: float, b_ac: float,
                g: float = G_DEFAULT, drive_frequency=AUTO) -> DeviceConfig:
    """CNOT configuration from the target field and gradient B_C - B_T."""
    return line_config(CNOT, b_target, gradient, exchange=(j,), b_ac=b_ac, g=g,
                       drive_frequency=drive_frequency)


def toffoli_config(b_left: float, gradient: float, *, j12: float, j23: float,
                   b_ac: float, g: float = G_DEFAULT, drive_frequency=AUTO) -> DeviceConfig:
    """Toffoli configuration with equal per-step gradient.

    gradient is the positive step between neighbors, so the center target
    sits at b_left + gradient and the right control at b_left + 2*gradient.
    """
    return line_config(TOFFOLI, b_left, gradient, exchange=(j12, j23), b_ac=b_ac, g=g,
                       drive_frequency=drive_frequency)


@cache
def _chain_terms(n: int) -> np.ndarray:
    """Read-only stack of the n-spin chain's operators in `_spin_hamiltonian`
    order: sigma_a^q sigma_a^(q+1) for each bond q and a = x, y, z, then sigma_z^q."""
    (terms := np.array([embed_pauli(axis, bond, n) @ embed_pauli(axis, bond + 1, n)
                        for bond in range(n - 1) for axis in "xyz"]
                       + [embed_pauli("z", q, n) for q in range(n)])).setflags(write=False)
    return terms


@cache
def _pauli_sum(axis: str, n_qubits: int) -> np.ndarray:
    """Read-only sum_q sigma_axis^q, the drive's operator on every qubit."""
    (op := sum(embed_pauli(axis, q, n_qubits) for q in range(n_qubits))).setflags(write=False)
    return op


def _spin_hamiltonian(cfg: DeviceConfig, shift: float = 0.0) -> np.ndarray:
    """Exchange chain plus sum_q (s*e_q + shift) sigma_z^q.

    s is the chain's Zeeman sign and e_q the static Zeeman energy of qubit
    q.  Every frame is built on this one term: shift 0 for the drive-free
    and lab-frame Hamiltonians, omega/2 in the rotating frame.  The scaled
    terms of `_chain_terms` are summed in their order, starting from zero.
    """
    s = cfg.layout.zeeman_sign
    coefficients = np.array([j for j in cfg.exchange for _ in "xyz"]
                            + [s * e + shift for e in cfg.zeeman_energies])
    return np.add.reduce(coefficients[:, None, None] * _chain_terms(cfg.n_qubits), initial=0j)


def static_hamiltonian(cfg: DeviceConfig) -> np.ndarray:
    """Drive-free Hamiltonian: exchange plus static Zeeman terms."""
    return _spin_hamiltonian(cfg)


def build_hamiltonian_lab(cfg: DeviceConfig):
    """Lab-frame t -> H(t) with the rotating ac drive; static parts built once."""
    if not cfg.resolved():
        raise ValueError("drive frequency is unresolved; call resolve_drive first")
    omega, b = float(cfg.drive_frequency), cfg.drive_energy
    sx, sy = (_pauli_sum(axis, cfg.n_qubits) for axis in "xy")
    static = _spin_hamiltonian(cfg)

    def h(t: float) -> np.ndarray:
        return static - b * (np.cos(omega * t) * sx - np.sin(omega * t) * sy)

    return h


def build_hamiltonian_rwa(cfg: DeviceConfig) -> np.ndarray:
    """Time-independent rotating-frame Hamiltonian.

    In the frame co-rotating with the drive the exchange terms are
    unchanged, every Zeeman coefficient is shifted by omega/2, and the
    drive becomes a static -g*mu_B*B_ac transverse term on every qubit.
    The frame transformation is diagonal in the z basis, so z populations
    match the lab frame exactly for this drive polarization.
    """
    if not cfg.resolved():
        raise ValueError("drive frequency is unresolved; call resolve_drive first")
    h = _spin_hamiltonian(cfg, float(cfg.drive_frequency) / 2.0)
    h -= cfg.drive_energy * _pauli_sum("x", cfg.n_qubits)
    return h


def static_eigensystem(cfg: DeviceConfig) -> EigenSystem:
    """Eigensystem of the drive-free Hamiltonian (resonances, collapse set)."""
    return eigensystem(static_hamiltonian(cfg))


def gate_transition(cfg: DeviceConfig) -> tuple:
    """Label pair (all controls up, target flipped) addressed by the drive."""
    up = "u" * cfg.n_qubits
    flipped = up[:TARGET_QUBIT] + "d" + up[TARGET_QUBIT + 1:]
    return up, flipped


def resolve_drive(cfg: DeviceConfig, eig: EigenSystem = None) -> DeviceConfig:
    """Resolve drive_frequency = "auto" against the drive-free spectrum.

    The signed value makes the two gate-transition levels degenerate in
    the rotating frame.  The transition flips one spin, so it is the signed
    gap omega = w_b - w_a.  `eig` is the drive-free eigensystem of `cfg`
    when the caller has built it already.
    """
    if cfg.resolved():
        return cfg
    if eig is None:
        eig = static_eigensystem(cfg)
    a, b = gate_transition(cfg)
    return replace(cfg, drive_frequency=eig.energy_of(b) - eig.energy_of(a))
