"""Gate verdicts, flip-time detection and operating-range extraction.

A gate configuration passes at one gradient point when, for every initial
computational basis state, every qubit whose truth-table output is up has
P_up above t_up and every qubit expected down has P_up below t_down at the
flip time.  P_up inside the dead zone [t_down, t_up] is a failure.  The
flip time is found once per configuration from the noise-free
rotating-frame evolution, in closed form from the eigenvectors of H_rwa:
a sampled scan, block by block up to the first block that holds it,
brackets the first minimum of the target's P_up, and a safeguarded
Newton iteration on the closed-form dP_up/dt pins it to roundoff.  It is
kept in `coherent_point`, a gradient's noise-free part, with the noise-free
generator of H_rwa (`lindblad.NoiseFreePart`), which a calibration fit
builds once and every noise setting reuses, so that decoherence is never
conflated with timing drift.  An evaluation adds its rate table's part to
that generator; one exact expm(L t_flip) step gives all noisy states at the
flip time, and one `populations_up` call their (d, n) P_up table, exactly
as propagated: propagation alone judges whether a state is physical, and
nothing is clipped.  That table is a point's only verdict data:
`classify` turns it into margins against the truth table `expected_up`.
`run_sweep` is the one entry point for a gradient grid: it evaluates every
point, marks the longest passing run as the operating range and describes
each end by one `Boundary` (gradient, open flag, limiting state and qubit);
with `refine=True`, as in `ranges` mode, it refines both closed ends through
the same code.  A point's margin is positive exactly when it passes; every
pass/fail boundary, here and in the calibration fits, is a root of it found
by the one ITP root finder `find_boundary`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import device
from .device import DeviceConfig
from .noise import CollapseSet, NoiseConfig, build_collapse_set
from .lindblad import NoiseFreePart, SolverError, noise_free_part
from .operators import EigenSystem, index_to_label, label_to_index, n_qubits_of, up_mask

FLIP_WINDOW_FACTOR = 4.0
FLIP_SAMPLES = 2000        # evenly spaced times of the flip-time scan
FLIP_BLOCK = 512           # samples evaluated at a time by the scan
REFINE_SIG_FIGS = 3        # significant figures of a refined boundary


class FlipTimeError(RuntimeError):
    """No conditional flip found: off-resonant or misconfigured drive."""


@dataclass(frozen=True)
class Thresholds:
    t_up: float = 0.8
    t_down: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.t_down < self.t_up < 1.0:
            raise device.ParameterError("t_down" if 0.0 < self.t_up < 1.0 else "t_up",
                                        "thresholds must satisfy 0 < t_down < t_up < 1")


def populations_up(states: np.ndarray) -> np.ndarray:
    """Spin-up probability of every qubit: (..., d, d) states -> (..., n_qubits).

    Each state's diagonal times `up_mask`, a plain projection: no range
    check and no clipping.  On a state that `propagate` accepted it lies in
    the bound written beside `lindblad.TRACE_TOL`.
    """
    return np.einsum("...ii->...i", states).real @ up_mask(n_qubits_of(states.shape[-1]))


def expected_final(gate: str, initial: str) -> str:
    """Truth-table output label for one initial basis label."""
    layout = device.layout_of(gate)
    if len(initial) != len(layout.roles) or any(ch not in "ud" for ch in initial):
        raise ValueError(f"initial state {initial!r} does not match gate {gate!r}")
    bits = list(initial)
    if all(bits[c] == "u" for c in layout.controls):
        target = device.TARGET_QUBIT
        bits[target] = "d" if bits[target] == "u" else "u"
    return "".join(bits)


@functools.cache
def expected_up(gate: str) -> np.ndarray:
    """Read-only (d, n) truth table: [k, q] is True when qubit q of
    `expected_final` of basis state k is up."""
    n = len(device.layout_of(gate).roles)
    finals = [label_to_index(expected_final(gate, index_to_label(k, n))) for k in range(1 << n)]
    table = up_mask(n)[finals]
    table.setflags(write=False)
    return table


def classify(p_up: np.ndarray, gate: str, thresholds: Thresholds) -> np.ndarray:
    """Read-only margins of a (d, n) P_up table, rows in basis-index order:
    P_up - t_up where `expected_up`, else t_down - P_up.  Exact at zero, so
    a margin is positive exactly when the strict threshold test passes."""
    want_up = expected_up(gate)
    if np.shape(p_up) != want_up.shape:
        raise ValueError(f"P_up table {np.shape(p_up)} does not match {gate} {want_up.shape}")
    margins = np.where(want_up, p_up - thresholds.t_up, thresholds.t_down - p_up)
    margins.setflags(write=False)
    return margins


def reclassify(point: PointResult, thresholds: Thresholds) -> PointResult:
    """Re-threshold a point's stored P_up table without re-running the dynamics."""
    return replace(point, margins=classify(point.p_up, point.gate, thresholds))


def flip_time(cfg: DeviceConfig, *, h_rwa=None) -> float:
    """Time of the conditional pi flip in the noise-free rotating frame.

    Follows the target's P_up from the all-controls-up state, in closed
    form from the eigenvectors of H_rwa, on FLIP_SAMPLES evenly spaced
    times scanned by `_scan_first_minimum`.  The two samples around the
    first interior local minimum below one half bracket the flip, and
    `_stationary_point` finds the zero of dP_up/dt between them.  Raises FlipTimeError if no such minimum occurs
    within FLIP_WINDOW_FACTOR times the analytic Rabi half-period
    pi / (2 g mu_B B_ac).  `h_rwa` is H_rwa of the resolved `cfg` when the
    caller has built it already.
    """
    cfg = device.resolve_drive(cfg)
    b = abs(cfg.drive_energy)
    if b == 0:
        raise FlipTimeError("zero drive amplitude cannot flip the target")
    window = FLIP_WINDOW_FACTOR * math.pi / (2.0 * b)
    if h_rwa is None:
        h_rwa = device.build_hamiltonian_rwa(cfg)
    energies, weights = _up_amplitudes(cfg, h_rwa)

    def p_up(start, stop):
        amplitudes = weights @ np.exp(-1j * (energies[:, None] * _scan_times(window, start, stop)))
        return (np.abs(amplitudes) ** 2).sum(axis=0)

    idx = _scan_first_minimum(p_up, FLIP_SAMPLES)
    if idx is None:
        raise FlipTimeError("target never reached a P_up minimum below 0.5 within "
                            f"{FLIP_WINDOW_FACTOR}x the Rabi half-period")
    before, at, after = _scan_times(window, idx - 1, idx + 2)
    return _stationary_point(energies, weights, before, after, at)


def _scan_times(window: float, start: int, stop: int) -> np.ndarray:
    """np.linspace(0, window, FLIP_SAMPLES)[start:stop], bit for bit, built alone."""
    times = np.arange(start, stop) * (window / (FLIP_SAMPLES - 1))
    times[FLIP_SAMPLES - 1 - start:] = window       # linspace's end sample, if in range
    return times


def _up_amplitudes(cfg: DeviceConfig, h_rwa: np.ndarray) -> tuple:
    """(E, w) with P_up(t) = sum_r |sum_k w_rk exp(-i E_k t)|^2 of the target.

    psi(t) = U exp(-i E t) U^+ psi0 from the basis state |u...u> (index 0);
    the rows r are the basis states whose target spin is up.
    """
    energies, vectors = np.linalg.eigh(h_rwa)
    return energies, vectors[up_mask(cfg.n_qubits)[:, device.TARGET_QUBIT]] * vectors[0].conj()


def _first_minimum_below_half(pops: np.ndarray):
    """Index of the first interior sample below 0.5 that no neighbour undercuts, or None."""
    inner = pops[1:-1]
    hits = np.flatnonzero((inner < 0.5) & (inner <= pops[:-2]) & (inner <= pops[2:]))
    return int(hits[0]) + 1 if hits.size else None


def _scan_first_minimum(p_up, samples: int):
    """`_first_minimum_below_half` of all `samples`, FLIP_BLOCK at a time.

    `p_up(start, stop)` gives P_up on samples start..stop-1.  Consecutive
    blocks share two samples, so every interior sample is tested against
    both neighbours, and the scan stops at the first block with a hit.
    """
    for start in range(0, samples - 2, FLIP_BLOCK - 2):
        idx = _first_minimum_below_half(p_up(start, min(start + FLIP_BLOCK, samples)))
        if idx is not None:
            return start + idx
    return None


def _p_up_slopes(minus_ie, minus_e2, weights: np.ndarray, t: float) -> tuple:
    """Closed-form (dP_up/dt, d2P_up/dt2) at time `t`, given -iE and -E^2.

    With a = sum w e^{-iEt}, a' = sum w (-iE) e^{-iEt} and
    a'' = sum w (-E^2) e^{-iEt} per row: P' = 2 Re sum conj(a) a' and
    P'' = 2 sum (|a'|^2 + Re conj(a) a'').
    """
    phases = np.exp(minus_ie * t)
    a = weights @ phases
    a1 = weights @ (minus_ie * phases)
    a2 = weights @ (minus_e2 * phases)
    return (2.0 * np.vdot(a, a1).real,
            2.0 * (np.vdot(a1, a1).real + np.vdot(a, a2).real))


def _stationary_point(energies, weights, lo: float, hi: float, t: float) -> float:
    """Zero of dP_up/dt in [lo, hi], where P_up falls at lo and rises at hi.

    Safeguarded Newton iteration from `t` (rtsafe, Press et al., Numerical
    Recipes, 3rd ed., section 9.4): every iterate shrinks the bracket on
    the sign of P', and a bisection step replaces the Newton step whenever
    that would leave the bracket, P'' <= 0, or it is not below half the
    step before last.  Stops at a step below 1e-10 of `hi`; a Newton step
    that small leaves an error far below roundoff.
    """
    xtol = 1e-10 * hi
    step_old = step = hi - lo
    minus_ie, minus_e2 = -1j * energies, -energies ** 2
    while True:
        slope, curvature = _p_up_slopes(minus_ie, minus_e2, weights, t)
        lo, hi = (t, hi) if slope < 0.0 else (lo, t)
        newton = slope / curvature if curvature > 0.0 else math.inf
        if lo <= t - newton <= hi and abs(2.0 * newton) <= abs(step_old):
            step_old, step, t = step, newton, t - newton
        else:
            step_old, step, t = step, 0.5 * (hi - lo), 0.5 * (lo + hi)
        if abs(step) <= xtol:
            return t


@dataclass(frozen=True)
class SweepTemplate:
    """Everything that stays fixed along one gradient sweep line."""
    gate: str
    fixed_field: float           # field of the qubit at offset 0 of the gate's layout
    b_ac: float
    exchange: tuple
    g: float = device.G_DEFAULT

    def config(self, gradient: float) -> DeviceConfig:
        return device.line_config(self.gate, self.fixed_field, gradient,
                                  exchange=self.exchange, b_ac=self.b_ac, g=self.g)


@dataclass(frozen=True, eq=False)
class PointResult:
    """One gradient point's read-only (d, n) P_up table and its `classify`
    margins, one row per initial basis state in index order; the verdicts
    are views of `margins`."""
    gradient: float
    t_flip: float
    gate: str
    p_up: np.ndarray
    margins: np.ndarray

    @property
    def passed(self) -> bool:
        return bool((self.margins > 0.0).all())

    @property
    def margin(self) -> float:
        """Least margin: positive exactly when the point passes."""
        return float(self.margins.min())

    def first_failure(self):
        """(initial_state, qubit index) of the first failing cell in row-major order, or None."""
        failing = np.argwhere(~(self.margins > 0.0))
        if not len(failing):
            return None
        return index_to_label(int(failing[0, 0]), self.margins.shape[1]), int(failing[0, 1])


@dataclass(frozen=True)
class Boundary:
    """One end of an operating range.

    `gradient` (tesla) is the root-found boundary of a closed end
    when refinement ran, and the last passing grid point otherwise.
    `limit` is the (initial_state, qubit index) that fails just outside a
    closed end, None for an open one.
    """
    gradient: float
    open: bool
    limit: tuple = None


@dataclass(frozen=True)
class SweepResult:
    """Per-gradient verdicts plus the extracted operating range.

    range_indices are grid-aligned (lo, hi) inclusive indices of the
    longest contiguous passing run, and `low` and `high` its two ends; all
    three are None when no point passes.
    """
    gradients: np.ndarray
    points: list
    range_indices: tuple = None
    low: Boundary = None
    high: Boundary = None

    @property
    def empty(self) -> bool:
        return self.range_indices is None


def coherent_model(cfg: DeviceConfig) -> tuple:
    """Noise-free model: (resolved config, drive-free eigensystem, H_rwa)."""
    eig = device.static_eigensystem(cfg)
    cfg = device.resolve_drive(cfg, eig)
    return cfg, eig, device.build_hamiltonian_rwa(cfg)


def collapse_model(cfg: DeviceConfig, eig: EigenSystem, noise: NoiseConfig) -> CollapseSet:
    """Collapse set of a `coherent_model` under one noise setting."""
    zeeman = _basis_zeeman(cfg) if noise.phonon_e_mode == "bare_zeeman" else None
    return build_collapse_set(eig, noise, zeeman_energies=zeeman)


@dataclass(frozen=True, eq=False)
class CoherentPoint:
    """Noise-free part of one gradient point: its `coherent_model`, flip time,
    and the `NoiseFreePart` of H_rwa and the basis states in the eigenbasis."""
    gradient: float
    cfg: DeviceConfig
    eig: EigenSystem
    t_flip: float
    part: NoiseFreePart


def coherent_point(template: SweepTemplate, gradient: float) -> CoherentPoint:
    """A gradient's `CoherentPoint`; model and flip-time failures name the gradient."""
    try:
        cfg, eig, h = coherent_model(template.config(gradient))
        return CoherentPoint(float(gradient), cfg, eig, flip_time(cfg, h_rwa=h),
                             noise_free_part(h, eig.vectors, _basis_states(cfg.dim)))
    except (ValueError, KeyError, FlipTimeError, SolverError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) else exc  # str() would quote it
        raise type(exc)(f"gradient {gradient} T: {detail}") from exc


def evaluate_point(point: CoherentPoint, noise: NoiseConfig,
                   thresholds: Thresholds) -> PointResult:
    """Classify every basis state propagated to the flip time; failures name the gradient."""
    cfg = point.cfg
    try:
        finals = point.part.propagate(collapse_model(cfg, point.eig, noise), point.t_flip)[:, -1]
    except (ValueError, SolverError) as exc:
        raise type(exc)(f"gradient {point.gradient} T: {exc}") from exc
    (p_up := populations_up(finals)).setflags(write=False)
    return PointResult(gradient=point.gradient, t_flip=point.t_flip, gate=cfg.gate,
                       p_up=p_up, margins=classify(p_up, cfg.gate, thresholds))


@functools.cache
def _basis_states(dim: int) -> np.ndarray:
    """Read-only complex stack of the `dim` basis density matrices, in index order."""
    (states := np.einsum("ki,kj->kij", *[np.eye(dim, dtype=complex)] * 2)).setflags(write=False)
    return states


def _basis_zeeman(cfg: DeviceConfig) -> np.ndarray:
    """Diagonal static Zeeman energy of every computational basis state:
    sum_q s e_q (+1 up, -1 down), in qubit order as `device._spin_hamiltonian`."""
    signs = np.where(up_mask(cfg.n_qubits), 1.0, -1.0)
    s = cfg.layout.zeeman_sign
    return sum(s * e * signs[:, q] for q, e in enumerate(cfg.zeeman_energies))


def run_sweep(template: SweepTemplate, gradients, noise: NoiseConfig,
              thresholds: Thresholds, *, refine: bool = False) -> SweepResult:
    """Evaluate every gradient point, in order, and extract the operating range.

    The range is the longest contiguous passing run, the earliest one on a
    tie.  A closed end is the last passing grid point, limited by its failing
    neighbour's first failure; with `refine` `refine_boundary` builds it
    instead, low end first.
    """
    gradients = np.asarray(gradients, dtype=float)
    if gradients.size == 0:
        raise ValueError("sweep grid is empty")
    if np.any(np.diff(gradients) <= 0):
        raise ValueError("gradient axis must be strictly increasing")
    points = [evaluate_point(coherent_point(template, g), noise, thresholds) for g in gradients]
    best = start = None
    for i, ok in enumerate([*(p.passed for p in points), False]):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if best is None or (i - start) > (best[1] - best[0] + 1):
                best = (start, i - 1)
            start = None
    if best is None:
        return SweepResult(gradients=gradients, points=points)

    def boundary(inside: int, outside: int) -> Boundary:
        if not 0 <= outside < len(points):
            return Boundary(points[inside].gradient, open=True)
        if refine:
            return refine_boundary(template, noise, thresholds, points[inside], points[outside])
        return Boundary(points[inside].gradient, open=False, limit=points[outside].first_failure())

    lo, hi = best
    return SweepResult(gradients=gradients, points=points, range_indices=best,
                       low=boundary(lo, lo - 1), high=boundary(hi, hi + 1))


def find_boundary(margin, passing: float, failing: float, width: float,
                  m_passing: float, m_failing: float) -> float:
    """Root of a verdict margin: shrink its pass/fail bracket to at most `width`.

    ITP (Oliveira & Takahashi, ACM TOMS 47, 5 (2021)), n0 = 0, kappa2 = 2,
    kappa1 = 0.2 / |failing - passing|: each step evaluates the regula-falsi
    point, truncated toward the midpoint and projected into the radius that
    keeps bisection's step count.  `margin(x)` > 0 where x passes, with
    `m_passing` > 0 >= `m_failing` at the ends, in either order; margins of
    +-1 give bisection bit for bit.  Returns the final bracket's midpoint.
    """
    # bisection's step count, a last halving within round-off of `width`
    # counting as closing; the final bracket `reach` keeps the same reserve
    # below `width`, and is 0 (every step a halving) when no slack is left
    reserve = 16.0 * math.ulp(max(abs(passing), abs(failing)))
    steps, top = 0, abs(failing - passing)
    while top > width + reserve:
        steps, top = steps + 1, 0.5 * top
    reach = width - reserve if top <= width - reserve else 0.0
    kappa1 = 0.2 / abs(failing - passing)
    while (span := abs(failing - passing)) > width:
        steps -= 1
        mid = 0.5 * (passing + failing)
        falsi = (m_passing * failing - m_failing * passing) / (m_passing - m_failing)
        sigma = math.copysign(1.0, mid - falsi) if mid != falsi else 0.0
        delta = kappa1 * span ** 2
        x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        radius = max(0.0, math.ldexp(reach, steps) - 0.5 * span)
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        if (m := margin(x)) > 0.0:
            passing, m_passing = x, m
        else:
            failing, m_failing = x, m
    return 0.5 * (passing + failing)


def refine_boundary(template: SweepTemplate, noise: NoiseConfig, thresholds: Thresholds,
                    passing: PointResult, failing: PointResult) -> Boundary:
    """The closed `Boundary` between a passing and a failing grid point.

    `find_boundary` root-finds the margin between them, starting from their
    stored margins, to REFINE_SIG_FIGS significant figures.  Each failing
    point it evaluates replaces `failing`, whose first failure is the limit.
    """
    def margin(gradient):
        nonlocal failing
        point = evaluate_point(coherent_point(template, gradient), noise, thresholds)
        if not point.passed:
            failing = point
        return point.margin

    scale = 10.0 ** (math.floor(math.log10(max(abs(passing.gradient), abs(failing.gradient))))
                     - REFINE_SIG_FIGS + 1)
    gradient = find_boundary(margin, passing.gradient, failing.gradient, 0.5 * scale,
                             passing.margin, failing.margin)
    return Boundary(gradient, open=False, limit=failing.first_failure())
