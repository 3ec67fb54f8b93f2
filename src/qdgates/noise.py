"""Hyperfine and phonon relaxation rates and Lindblad collapse operators.

Rates are expressed in inverse model time units (see device module for the
time unit).  Two relaxation channels act between eigenstates of the
drive-free Hamiltonian:

* hyperfine: Gaussian in the transition gap with width delta_e_nuc,
  rate_down(w) = upsilon * exp(-w^2 / (2 delta_e_nuc^2));
* phonon:    rate(w, E) = p * | w^3 E^2 / (1 - exp(-w / t_k)) |, steeply
  growing with the gap.

Each unordered eigenstate pair (j < k in ascending energy order)
contributes one '+' operator per channel, sqrt(rate) |w_k><w_j|, and one
'-' operator, sqrt(rate * exp(-gap / t_k)) |w_j><w_k|.  In this model the
'+' channel (no thermal factor) populates the *higher* of the two levels,
and its Boltzmann-weighted reverse drains it; at gaps large compared to
t_k the '+' rates dominate, so the low-lying spin configurations are the
ones that degrade fastest.  An optional collective sigma_z^(x)n dephasing
channel with time constant t2_star completes the set.

upsilon and phonon_p are free constants of the model.  The shipped
defaults were calibrated once against reference operating-range targets
for the two-spin gate (upper bound of the high-field range and lower
bound of the low-field range) and then frozen; see calibration module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import EigenSystem, SIGMA_Z, kron, label_to_index
from .device import HBAR

# Calibrated against the two-spin reference ranges; see module docstring.
UPSILON_DEFAULT = 1.576718e4   # 1 / model time unit
PHONON_P_DEFAULT = 8.50287e-17  # 1 / (model time unit * ueV^5)

DELTA_E_NUC_DEFAULT = 0.3      # ueV (GaAs nuclear field width)
T_K_DEFAULT = 10.0             # ueV (about 125 mK)
T2_STAR_DEFAULT = 1000.0 / HBAR  # 1 us in model time units

RATE_FLOOR = 1e-30             # rates below this are clamped to zero

PHONON_E_MODES = ("gap", "bare_zeeman")  # choices of NoiseConfig.phonon_e_mode


@dataclass(frozen=True)
class NoiseConfig:
    """Rate constants and per-channel enable flags."""
    upsilon: float = UPSILON_DEFAULT
    phonon_p: float = PHONON_P_DEFAULT
    delta_e_nuc: float = DELTA_E_NUC_DEFAULT
    t_k: float = T_K_DEFAULT
    t2_star: float = T2_STAR_DEFAULT
    hyperfine: bool = True
    phonon: bool = True
    dephasing: bool = True
    phonon_e_mode: str = "gap"   # one of PHONON_E_MODES

    def __post_init__(self):
        if self.upsilon < 0 or self.phonon_p < 0:
            raise ValueError("rate constants must be non-negative")
        if self.delta_e_nuc <= 0 or self.t_k <= 0 or self.t2_star <= 0:
            raise ValueError("delta_e_nuc, t_k and t2_star must be positive")
        if self.phonon_e_mode not in PHONON_E_MODES:
            raise ValueError(f"unknown phonon_e_mode {self.phonon_e_mode!r}")

    def scaled(self, factor: float) -> "NoiseConfig":
        """Copy with both rate constants multiplied by `factor`."""
        return replace(self, upsilon=self.upsilon * factor,
                       phonon_p=self.phonon_p * factor)


def hyperfine_rate_down(omega: float, upsilon: float, delta_e_nuc: float) -> float:
    """Hyperfine rate without thermal factor across a gap omega > 0."""
    if omega <= 0:
        raise ValueError("gap must be positive")
    return upsilon * math.exp(-omega * omega / (2.0 * delta_e_nuc * delta_e_nuc))


def hyperfine_rate_up(omega: float, upsilon: float, delta_e_nuc: float,
                      t_k: float) -> float:
    """Boltzmann-weighted hyperfine rate: rate_down(omega) * exp(-omega/t_k)."""
    if omega <= 0:
        raise ValueError("gap must be positive")
    return upsilon * math.exp(-omega * omega / (2.0 * delta_e_nuc * delta_e_nuc)
                              - omega / t_k)


def phonon_rate(omega_signed: float, energy: float, p: float, t_k: float) -> float:
    """Phonon rate for a signed gap; one formula serves both directions.

    Positive omega gives the dominant rate, negative omega the thermally
    suppressed reverse; the pair satisfies rate(+w)/rate(-w) = exp(w/t_k).
    """
    if omega_signed == 0:
        raise ValueError("phonon rate is singular at zero gap")
    # -expm1(-x) = 1 - exp(-x) without cancellation for small |x|
    denom = -math.expm1(-omega_signed / t_k)
    return p * abs(omega_signed ** 3 * energy * energy / denom)


def dephasing_operator(n_qubits: int, t2_star: float) -> np.ndarray:
    """Collective sqrt(1/(2 t2_star)) sigma_z x ... x sigma_z operator."""
    if n_qubits not in (2, 3):
        raise ValueError(f"dephasing operator defined for 2 or 3 qubits, got {n_qubits}")
    op = SIGMA_Z
    for _ in range(n_qubits - 1):
        op = kron(op, SIGMA_Z)
    return math.sqrt(1.0 / (2.0 * t2_star)) * op


@dataclass(frozen=True)
class CollapseOperator:
    """One Lindblad operator with its provenance.

    channel is "hyperfine", "phonon" or "dephasing"; sign is "+" or "-"
    for the relaxation channels ("" for dephasing); transition is
    (from_level, to_level) in ascending-energy eigenlevel indices.
    """
    matrix: np.ndarray
    channel: str
    sign: str
    transition: tuple
    rate: float


@dataclass(frozen=True)
class CollapseSet:
    operators: tuple

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    @property
    def matrices(self) -> list:
        return [op.matrix for op in self.operators]

    def count(self, channel: str, sign: str = None) -> int:
        return sum(1 for op in self.operators
                   if op.channel == channel and (sign is None or op.sign == sign))


def _clamped(rate: float) -> float:
    return rate if rate >= RATE_FLOOR else 0.0


def build_collapse_set(eig: EigenSystem, noise: NoiseConfig,
                       zeeman_energies: np.ndarray = None) -> CollapseSet:
    """Assemble all enabled collapse operators for a nondegenerate spectrum.

    For every eigenlevel pair j < k the '+' operators are rank-1 dyads
    |w_k><w_j| scaled by sqrt(rate(gap)), the '-' operators the reverse
    dyads with thermally weighted rates.  The phonon coupling energy E is
    the transition gap itself in "gap" mode; "bare_zeeman" mode instead
    uses the Zeeman splitting of the labeled basis states, which requires
    `zeeman_energies` (per-basis-state diagonal Zeeman energies).
    """
    if eig.is_degenerate():
        raise ValueError("collapse set requires a nondegenerate spectrum")
    if noise.phonon_e_mode == "bare_zeeman" and zeeman_energies is None:
        raise ValueError("bare_zeeman mode needs per-basis-state Zeeman energies")

    d = eig.dim
    ops = []
    if noise.hyperfine or noise.phonon:
        for j in range(d):
            for k in range(j + 1, d):
                gap = float(eig.energies[k] - eig.energies[j])
                raising = np.outer(eig.vectors[:, k], eig.vectors[:, j].conj())
                lowering = raising.conj().T
                if noise.hyperfine:
                    plus = _clamped(hyperfine_rate_down(gap, noise.upsilon,
                                                        noise.delta_e_nuc))
                    minus = _clamped(hyperfine_rate_up(gap, noise.upsilon,
                                                       noise.delta_e_nuc, noise.t_k))
                    ops.append(CollapseOperator(math.sqrt(plus) * raising,
                                                "hyperfine", "+", (j, k), plus))
                    ops.append(CollapseOperator(math.sqrt(minus) * lowering,
                                                "hyperfine", "-", (k, j), minus))
                if noise.phonon:
                    if noise.phonon_e_mode == "gap":
                        energy = gap
                    else:
                        za = float(zeeman_energies[_labeled_index(eig, j)])
                        zb = float(zeeman_energies[_labeled_index(eig, k)])
                        energy = abs(zb - za)
                    plus = _clamped(phonon_rate(gap, energy, noise.phonon_p, noise.t_k))
                    minus = _clamped(phonon_rate(-gap, energy, noise.phonon_p, noise.t_k))
                    ops.append(CollapseOperator(math.sqrt(plus) * raising,
                                                "phonon", "+", (j, k), plus))
                    ops.append(CollapseOperator(math.sqrt(minus) * lowering,
                                                "phonon", "-", (k, j), minus))
    if noise.dephasing:
        n_qubits = d.bit_length() - 1
        matrix = dephasing_operator(n_qubits, noise.t2_star)
        ops.append(CollapseOperator(matrix, "dephasing", "", None,
                                    1.0 / (2.0 * noise.t2_star)))
    for op in ops:
        op.matrix.setflags(write=False)
    return CollapseSet(operators=tuple(ops))


def _labeled_index(eig: EigenSystem, level: int) -> int:
    label = eig.labels[level]
    if label is None:
        raise ValueError(f"eigenlevel {level} has no basis label; "
                         "bare_zeeman mode needs a labeled spectrum")
    return label_to_index(label)
