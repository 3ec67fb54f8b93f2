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
reused for every noisy initial state, so that decoherence is never
conflated with timing drift.  One `propagate(h, collapse, rho0s, t_flip)`
call, a single exact expm(L t_flip) step, gives all noisy states at the
flip time, and one `populations_up` call their (d, n) P_up table; it
raises rather than clips.  That table is a point's only verdict data:
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
from .noise import NoiseConfig, build_collapse_set
from .lindblad import SolverError, propagate
from .operators import index_to_label, label_to_index, n_qubits_of, up_mask

FLIP_WINDOW_FACTOR = 4.0
FLIP_SAMPLES = 2000        # evenly spaced times of the flip-time scan
FLIP_BLOCK = 256           # samples evaluated at a time by the scan
REFINE_SIG_FIGS = 3        # significant figures of a refined boundary


class FlipTimeError(RuntimeError):
    """No conditional flip found: off-resonant or misconfigured drive."""


@dataclass(frozen=True)
class Thresholds:
    t_up: float = 0.8
    t_down: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.t_down < self.t_up < 1.0:
            raise ValueError("thresholds must satisfy 0 < t_down < t_up < 1")


def populations_up(states: np.ndarray) -> np.ndarray:
    """Spin-up probability of every qubit: (..., d, d) states -> (..., n_qubits).

    Each state's diagonal times `up_mask`.  Raises ValueError beyond 1e-9
    outside [0, 1], NaN included, and clamps within that tolerance.
    """
    pops = np.einsum("...ii->...i", states).real @ up_mask(n_qubits_of(states.shape[-1]))
    bad = ~((pops >= -1e-9) & (pops <= 1.0 + 1e-9))
    if bad.any():
        raise ValueError(f"population {pops[bad][0]} outside [0, 1] beyond tolerance")
    return np.clip(pops, 0.0, 1.0)


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
    times = np.linspace(0.0, window, FLIP_SAMPLES)

    def p_up(start, stop):
        amplitudes = weights @ np.exp(-1j * np.outer(energies, times[start:stop]))
        return np.sum(np.abs(amplitudes) ** 2, axis=0)

    idx = _scan_first_minimum(p_up, FLIP_SAMPLES)
    if idx is None:
        raise FlipTimeError("target never reached a P_up minimum below 0.5 within "
                            f"{FLIP_WINDOW_FACTOR}x the Rabi half-period")
    return _stationary_point(energies, weights, times[idx - 1], times[idx + 1], times[idx])


def _up_amplitudes(cfg: DeviceConfig, h_rwa: np.ndarray) -> tuple:
    """(E, w) with P_up(t) = sum_r |sum_k w_rk exp(-i E_k t)|^2 of the target.

    psi(t) = U exp(-i E t) U^+ psi0 from the basis state |u...u> (index 0);
    the rows r are the basis states whose target spin is up.
    """
    energies, vectors = np.linalg.eigh(h_rwa)
    up = up_mask(cfg.n_qubits)[:, device.TARGET_QUBIT]
    return energies, (vectors * vectors[0].conj())[up]


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


def _p_up_slopes(energies: np.ndarray, weights: np.ndarray, t: float) -> tuple:
    """Closed-form (dP_up/dt, d2P_up/dt2) at time `t`.

    With a = sum w e^{-iEt}, a' = sum w (-iE) e^{-iEt} and
    a'' = sum w (-E^2) e^{-iEt} per row: P' = 2 Re sum conj(a) a' and
    P'' = 2 sum (|a'|^2 + Re conj(a) a'').
    """
    phases = np.exp(-1j * energies * t)
    a = weights @ phases
    a1 = weights @ (-1j * energies * phases)
    a2 = weights @ (-energies ** 2 * phases)
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
    while True:
        slope, curvature = _p_up_slopes(energies, weights, t)
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


def point_model(cfg: DeviceConfig, noise: NoiseConfig) -> tuple:
    """(resolved config, H_rwa, collapse set) of one device configuration.

    The drive-free eigensystem is built once and serves both the drive
    resolution and the collapse set.
    """
    eig = device.static_eigensystem(cfg)
    cfg = device.resolve_drive(cfg, eig)
    zeeman = _basis_zeeman(cfg) if noise.phonon_e_mode == "bare_zeeman" else None
    collapse = build_collapse_set(eig, noise, zeeman_energies=zeeman)
    return cfg, device.build_hamiltonian_rwa(cfg), collapse


def evaluate_point(template: SweepTemplate, gradient: float, noise: NoiseConfig,
                   thresholds: Thresholds) -> PointResult:
    """Propagate every initial basis state to the flip time and classify.

    Model, flip-time, propagation and population failures name the gradient.
    """
    try:
        cfg, h, collapse = point_model(template.config(gradient), noise)
        t_flip = flip_time(cfg, h_rwa=h)
        basis = np.eye(cfg.dim)
        finals = propagate(h, collapse, np.einsum("ki,kj->kij", basis, basis), t_flip)[:, -1]
        p_up = populations_up(finals)
    except (ValueError, FlipTimeError, SolverError) as exc:
        raise type(exc)(f"gradient {gradient} T: {exc}") from exc
    p_up.setflags(write=False)
    return PointResult(gradient=float(gradient), t_flip=t_flip, gate=cfg.gate, p_up=p_up,
                       margins=classify(p_up, cfg.gate, thresholds))


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
    tie.  With `refine` each closed end is refined by `refine_boundary`
    from its grid points' margins, low end first; its limiting state is the
    refinement's when it found a failing point, and the grid neighbour's
    first failure otherwise.
    """
    gradients = np.asarray(gradients, dtype=float)
    if gradients.size == 0:
        raise ValueError("sweep grid is empty")
    if np.any(np.diff(gradients) <= 0):
        raise ValueError("gradient axis must be strictly increasing")
    points = [evaluate_point(template, g, noise, thresholds) for g in gradients]
    best = None
    start = None
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
        gradient, limit = gradients[inside], None
        if not 0 <= outside < len(points):
            return Boundary(float(gradient), open=True)
        if refine:
            gradient, limit = refine_boundary(template, noise, thresholds,
                                              gradient, gradients[outside],
                                              points[inside].margin,
                                              points[outside].margin)
        if limit is None:
            limit = points[outside].first_failure()
        return Boundary(float(gradient), open=False, limit=limit)

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


def refine_boundary(template: SweepTemplate, noise: NoiseConfig,
                    thresholds: Thresholds, passing: float, failing: float,
                    m_passing: float, m_failing: float):
    """Root-find a pass/fail boundary, with end margins known, to REFINE_SIG_FIGS
    significant figures.  Returns (boundary_gradient, (initial_state, qubit)):
    the first failure at the final failing end, None if that is `failing`.
    """
    limit = None

    def margin(gradient):
        nonlocal limit
        point = evaluate_point(template, gradient, noise, thresholds)
        if not point.passed:
            limit = point.first_failure()
        return point.margin

    scale = 10.0 ** (math.floor(math.log10(max(abs(passing), abs(failing))))
                     - REFINE_SIG_FIGS + 1)
    return find_boundary(margin, passing, failing, 0.5 * scale, m_passing, m_failing), limit
