"""Hyperfine and phonon relaxation rates and the rate table of the noise model.

Rates are expressed in inverse model time units (see device module for the
time unit).  Two relaxation channels act between eigenstates of the
drive-free Hamiltonian.  Both rate laws take a signed gap w: +w gives
the bare rate, -w the thermally weighted reverse, and rate(+w)/rate(-w)
= exp(w/t_k).

* hyperfine: Gaussian in the transition gap with width delta_e_nuc,
  rate(w) = upsilon * exp(-w^2 / (2 delta_e_nuc^2) + min(w, 0) / t_k);
* phonon:    rate(w, E) = p * | w^3 E^2 / (1 - exp(-w / t_k)) |, steeply
  growing with the gap.

Each unordered eigenstate pair (j < k in ascending energy order)
contributes one '+' operator per channel, sqrt(rate(gap)) |w_k><w_j|, and
one '-' operator, sqrt(rate(-gap)) |w_j><w_k|.  In this model the
'+' channel (no thermal factor) populates the *higher* of the two levels,
and its Boltzmann-weighted reverse drains it; at gaps large compared to
t_k the '+' rates dominate, so the low-lying spin configurations are the
ones that degrade fastest.  An optional collective sigma_z^(x)n dephasing
channel with time constant t2_star completes the set.

The noise model is one rate table, `CollapseSet`, with a row per operator
(channel, sign, from and to level, rate) and the static eigenvectors as its
basis; it is the generator that `lindblad.propagate` builds from.  The
operators themselves are a derived view for the dense references.  The
rate functions take scalars or arrays.

upsilon and phonon_p are free constants of the model.  The shipped
defaults were calibrated once against reference operating-range targets
for the two-spin gate (upper bound of the high-field range and lower
bound of the low-field range) and then frozen; see calibration module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .operators import EigenSystem, SIGMA_Z, kron, label_to_index, n_qubits_of
from .device import ParameterError, ns_to_time

# Calibrated against the two-spin reference ranges; see module docstring.
UPSILON_DEFAULT = 1.576718e4   # 1 / model time unit
PHONON_P_DEFAULT = 8.50287e-17  # 1 / (model time unit * ueV^5)

DELTA_E_NUC_DEFAULT = 0.3      # ueV (GaAs nuclear field width)
T_K_DEFAULT = 10.0             # ueV (about 125 mK)
T2_STAR_NS_DEFAULT = 1000.0    # ns (1 us)
T2_STAR_DEFAULT = ns_to_time(T2_STAR_NS_DEFAULT)  # model time units

RATE_FLOOR = 1e-30             # rates below this are clamped to zero
BASIS_TOL = 1e-10              # largest |V^+ V - I| of a collapse basis

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
        # a NaN rate constant would fail RATE_FLOOR's test and switch its channel off
        for name in ("upsilon", "phonon_p"):
            if not (math.isfinite(value := getattr(self, name)) and value >= 0):
                raise ParameterError(name, f"{name} must be finite and non-negative")
        for name in ("delta_e_nuc", "t_k", "t2_star"):
            if not (math.isfinite(value := getattr(self, name)) and value > 0):
                raise ParameterError(name, f"{name} must be finite and positive")
        if self.phonon_e_mode not in PHONON_E_MODES:
            raise ParameterError("phonon_e_mode", f"phonon_e_mode must be one of "
                                 f"{PHONON_E_MODES}, not {self.phonon_e_mode!r}")

    def scaled(self, factor: float) -> "NoiseConfig":
        """Copy with both rate constants multiplied by `factor`."""
        return replace(self, upsilon=self.upsilon * factor,
                       phonon_p=self.phonon_p * factor)


def hyperfine_rate(omega_signed, upsilon: float, delta_e_nuc: float, t_k: float):
    """Hyperfine rate for signed gaps: the Gaussian, times exp(w/t_k) for w < 0."""
    if np.any(omega_signed == 0):
        raise ValueError("hyperfine rate needs a nonzero gap")
    return upsilon * np.exp(-omega_signed * omega_signed / (2.0 * delta_e_nuc * delta_e_nuc)
                            + np.minimum(omega_signed, 0.0) / t_k)


def phonon_rate(omega_signed, energy, p: float, t_k: float):
    """Phonon rate for signed gaps, in the sign convention of the module docstring."""
    if np.any(omega_signed == 0):
        raise ValueError("phonon rate is singular at zero gap")
    # -expm1(-x) = 1 - exp(-x) without cancellation for small |x|; where
    # exp(|w|/t_k) overflows, the reverse rate takes its limit, zero
    with np.errstate(over="ignore"):
        denom = -np.expm1(-omega_signed / t_k)
    return p * np.abs(omega_signed ** 3 * energy * energy / denom)


@cache
def sigma_z_string(dim: int) -> np.ndarray:
    """sigma_z x ... x sigma_z on `dim` = 2^n levels, read-only."""
    op = SIGMA_Z
    for _ in range(n_qubits_of(dim) - 1):
        op = kron(op, SIGMA_Z)
    op.setflags(write=False)
    return op


@cache
def _level_pairs(dim: int) -> tuple:
    """Eigenlevel pairs j < k, pair by pair, as read-only (lo, hi) arrays."""
    pairs = np.triu_indices(dim, k=1)
    for levels in pairs:
        levels.setflags(write=False)
    return pairs


@cache
def _row_layout(dim: int, channels: tuple, dephasing: bool) -> tuple:
    """(channel, sign, src, dst) columns of a rate table: pair by pair, the
    '+' (j -> k) and '-' (k -> j) rows of each channel, then dephasing (-1)."""
    lo, hi = _level_pairs(dim)
    channel = tuple(c for c in channels for _ in "+-") * len(lo)
    sign = ("+", "-") * len(channels) * len(lo)
    pairs = np.stack((lo, hi), axis=1)
    src = np.tile(pairs, len(channels)).ravel()
    dst = np.tile(pairs[:, ::-1], len(channels)).ravel()
    if dephasing:
        channel, sign = channel + ("dephasing",), sign + ("",)
        src, dst = np.append(src, -1), np.append(dst, -1)
    src.setflags(write=False)
    dst.setflags(write=False)
    return channel, sign, src, dst


@dataclass(frozen=True)
class CollapseSet:
    """The noise model as a rate table with one row per Lindblad operator.

    Row i is (channel[i], sign[i], src[i], dst[i], rate[i]): channel is
    "hyperfine", "phonon" or "dephasing"; sign is "+" or "-" for the
    relaxation channels ("" for dephasing); src and dst are the from and to
    levels, column indices of the unitary `basis` V, and -1 on a dephasing
    row.  In V a relaxation row moves population between two levels and
    damps coherences; `lindblad.propagate` builds its generator from the
    rows and forms no operator.  `matrices` derives the operators for the
    dense references: sqrt(rate) |v_dst><v_src|, and sqrt(rate)
    sigma_z^(x)n for dephasing.
    """
    channel: tuple
    sign: tuple
    src: np.ndarray
    dst: np.ndarray
    rate: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        v = self.basis
        if v.ndim != 2 or v.shape[0] != v.shape[1] or not (
                np.abs(v.conj().T @ v - np.eye(len(v))).max() <= BASIS_TOL):
            raise ValueError(f"collapse basis of shape {v.shape} is not unitary")

    def __len__(self) -> int:
        return len(self.channel)

    def count(self, channel: str, sign: str = None) -> int:
        return sum(1 for c, s in zip(self.channel, self.sign)
                   if c == channel and (sign is None or s == sign))

    @cached_property
    def matrices(self) -> np.ndarray:
        """The rows' operators, (m, d, d), read-only."""
        relaxation = self.src >= 0
        vectors = self.basis.T
        out = np.empty((len(self), len(vectors), len(vectors)), dtype=complex)
        out[relaxation] = (vectors[self.dst[relaxation]][:, :, None]
                           * vectors[self.src[relaxation]].conj()[:, None, :])
        out[~relaxation] = sigma_z_string(len(vectors))
        out *= np.sqrt(self.rate)[:, None, None]
        out.setflags(write=False)
        return out


def build_collapse_set(eig: EigenSystem, noise: NoiseConfig,
                       zeeman_energies: np.ndarray = None) -> CollapseSet:
    """Rate table of all enabled channels for a nondegenerate spectrum.

    Each rate law is called once per channel, on the gaps of all eigenlevel
    pairs j < k and then their negatives: '+' rows move j -> k at the bare
    rate, '-' rows k -> j at the thermally weighted rate.  The phonon coupling energy E is the
    transition gap itself in "gap" mode; "bare_zeeman" mode instead uses
    the Zeeman splitting of the labeled basis states, which requires
    `zeeman_energies` (per-basis-state diagonal Zeeman energies).
    """
    if eig.is_degenerate():
        raise ValueError("collapse set requires a nondegenerate spectrum")
    if noise.phonon_e_mode == "bare_zeeman" and zeeman_energies is None:
        raise ValueError("bare_zeeman mode needs per-basis-state Zeeman energies")

    lo, hi = _level_pairs(eig.dim)
    gap = eig.energies[hi] - eig.energies[lo]
    signed = np.concatenate((gap, -gap))
    # per enabled channel, the '+' then the '-' rates over all pairs
    channels, rates = (), []
    if noise.hyperfine:
        channels += ("hyperfine",)
        rates.append(hyperfine_rate(signed, noise.upsilon, noise.delta_e_nuc, noise.t_k))
    if noise.phonon:
        if noise.phonon_e_mode == "gap":
            energy = gap
        else:
            if None in eig.labels:
                raise ValueError(f"eigenlevel {eig.labels.index(None)} has no basis "
                                 "label; bare_zeeman mode needs a labeled spectrum")
            zeeman = np.asarray(zeeman_energies)[[label_to_index(x) for x in eig.labels]]
            energy = np.abs(zeeman[hi] - zeeman[lo])
        channels += ("phonon",)
        rates.append(phonon_rate(signed, np.concatenate((energy, energy)),
                                 noise.phonon_p, noise.t_k))
    # rows pair by pair, as `_row_layout` orders them; rates below
    # RATE_FLOOR are clamped to zero
    rate = np.reshape(rates, (-1, len(gap))).T.ravel()
    rate = np.where(rate >= RATE_FLOOR, rate, 0.0)
    if noise.dephasing:
        rate = np.append(rate, 1.0 / (2.0 * noise.t2_star))
    rate.setflags(write=False)
    return CollapseSet(*_row_layout(eig.dim, channels, noise.dephasing), rate, eig.vectors)
