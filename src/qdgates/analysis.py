"""Gate verdicts, flip-time detection and operating-range extraction.

A gate configuration passes at one gradient point when, for every initial
computational basis state, every qubit whose truth-table output is up has
P_up above t_up and every qubit expected down has P_up below t_down at the
flip time.  P_up inside the dead zone [t_down, t_up] is a failure.  The
flip time is found once per configuration from the noise-free
rotating-frame evolution, in closed form from the eigenvectors of H_rwa,
and reused for every noisy initial state, so that decoherence is never
conflated with timing drift.  One `propagate(h, collapse, rho0s, t_flip)`
call, a single exact expm(L t_flip) step, gives all noisy states at the
flip time; `population_up` raises rather than clips.
Every pass/fail boundary, here and in the calibration fits, is located by
the one bisection `bisect_boundary`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import device
from .device import DeviceConfig, CNOT
from .noise import NoiseConfig, build_collapse_set
from .lindblad import SolverError, propagate
from .operators import basis_density, index_to_label, partial_trace

FLIP_WINDOW_FACTOR = 4.0
FLIP_SAMPLES = 2000        # evenly spaced times of the flip-time scan
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


@dataclass(frozen=True)
class GateVerdict:
    """Thresholded outcome for one initial basis state."""
    initial_state: str
    expected: str
    p_up: tuple                  # per-qubit P_up at the flip time
    passed: bool
    failing_qubits: tuple        # qubit indices, empty when passed


def population_up(rho: np.ndarray, qubit: int) -> float:
    """Probability that `qubit`'s reduced state is spin-up.

    Raises ValueError when the value lies more than 1e-9 outside [0, 1];
    a value within that tolerance is clamped into the interval.
    """
    value = partial_trace(rho, qubit)[0, 0].real
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ValueError(f"population {value} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def expected_final(gate: str, initial: str) -> str:
    """Truth-table output label for one initial basis label."""
    n = 2 if gate == CNOT else 3
    if len(initial) != n or any(ch not in "ud" for ch in initial):
        raise ValueError(f"initial state {initial!r} does not match {gate}")
    controls = (0,) if gate == CNOT else (0, 2)
    target = 1
    bits = list(initial)
    if all(bits[c] == "u" for c in controls):
        bits[target] = "d" if bits[target] == "u" else "u"
    return "".join(bits)


def _failing_qubits(p_up, expected: str, thresholds: Thresholds) -> tuple:
    """Indices of the qubits whose P_up misses its truth-table threshold."""
    return tuple(q for q, (p, want) in enumerate(zip(p_up, expected))
                 if not (p > thresholds.t_up if want == "u" else p < thresholds.t_down))


def classify(rho: np.ndarray, gate: str, initial: str,
             thresholds: Thresholds) -> GateVerdict:
    """Verdict from per-qubit P_up of the state `rho` at the flip time."""
    expected = expected_final(gate, initial)
    p_up = tuple(population_up(rho, q) for q in range(len(initial)))
    failing = _failing_qubits(p_up, expected, thresholds)
    return GateVerdict(initial_state=initial, expected=expected, p_up=p_up,
                       passed=not failing, failing_qubits=failing)


def reclassify(verdict: GateVerdict, thresholds: Thresholds) -> GateVerdict:
    """Re-threshold a stored verdict without re-running the dynamics."""
    failing = _failing_qubits(verdict.p_up, verdict.expected, thresholds)
    return replace(verdict, passed=not failing, failing_qubits=failing)


def flip_time(cfg: DeviceConfig, *, h_rwa=None) -> float:
    """Time of the conditional pi flip in the noise-free rotating frame.

    Starts from the all-controls-up state, follows the target's P_up, in
    closed form from the eigenvectors of H_rwa, on FLIP_SAMPLES evenly
    spaced times and returns the first interior local minimum below one half,
    refined by golden-section search.  Raises FlipTimeError if no such
    minimum occurs within FLIP_WINDOW_FACTOR times the analytic Rabi
    half-period pi / (2 g mu_B B_ac).  `h_rwa` is H_rwa of the resolved
    `cfg` when the caller has built it already.
    """
    cfg = device.resolve_drive(cfg)
    b = abs(cfg.drive_energy)
    if b == 0:
        raise FlipTimeError("zero drive amplitude cannot flip the target")
    window = FLIP_WINDOW_FACTOR * math.pi / (2.0 * b)
    if h_rwa is None:
        h_rwa = device.build_hamiltonian_rwa(cfg)
    energies, vectors = np.linalg.eigh(h_rwa)
    # psi(t) = U exp(-i E t) U^+ psi0, with psi0 the basis state |u...u> (index 0);
    # keep the rows of the basis states whose target spin is up
    up_rows = (vectors * vectors[0].conj())[
        [index_to_label(i, cfg.n_qubits)[cfg.target_qubit] == "u" for i in range(cfg.dim)]]

    def p_up(t):
        amplitudes = up_rows @ np.exp(-1j * np.outer(energies, np.atleast_1d(t)))
        return np.sum(np.abs(amplitudes) ** 2, axis=0)

    times = np.linspace(0.0, window, FLIP_SAMPLES)
    pops = p_up(times)
    idx = None
    for i in range(1, len(pops) - 1):
        if pops[i] < 0.5 and pops[i] <= pops[i - 1] and pops[i] <= pops[i + 1]:
            idx = i
            break
    if idx is None:
        raise FlipTimeError("target never reached a P_up minimum below 0.5 within "
                            f"{FLIP_WINDOW_FACTOR}x the Rabi half-period")
    return _golden_minimize(lambda t: p_up(t)[0], times[idx - 1], times[idx + 1])


def _golden_minimize(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section minimizer for a unimodal scalar function on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


@dataclass(frozen=True)
class SweepTemplate:
    """Everything that stays fixed along one gradient sweep line."""
    gate: str
    fixed_field: float           # B_target for cnot, B_left-control for toffoli
    b_ac: float
    exchange: tuple
    g: float = device.G_DEFAULT

    def config(self, gradient: float) -> DeviceConfig:
        if self.gate == CNOT:
            return device.cnot_config(self.fixed_field, gradient, j=self.exchange[0],
                                      b_ac=self.b_ac, g=self.g)
        return device.toffoli_config(self.fixed_field, gradient,
                                     j12=self.exchange[0], j23=self.exchange[1],
                                     b_ac=self.b_ac, g=self.g)


@dataclass(frozen=True)
class PointResult:
    """All-initial-state outcome at one gradient point."""
    gradient: float
    t_flip: float
    verdicts: tuple

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def first_failure(self):
        """(initial_state, qubit index) of the first failing verdict, or None."""
        for v in self.verdicts:
            if not v.passed:
                return v.initial_state, v.failing_qubits[0]
        return None


@dataclass
class SweepResult:
    """Per-gradient verdicts plus the extracted operating range.

    range_indices are grid-aligned (lo, hi) inclusive indices of the
    longest contiguous passing run, or None when no point passes.
    refined_low/high are bisection-refined boundary gradients (tesla) when
    refinement ran and the corresponding side is closed; limiting_low/high
    give (initial_state, qubit index) of the state that fails just outside
    each closed boundary.
    """
    gradients: np.ndarray
    points: list
    range_indices: tuple = None
    open_low: bool = False
    open_high: bool = False
    refined_low: float = None
    refined_high: float = None
    limiting_low: tuple = None
    limiting_high: tuple = None

    @property
    def empty(self) -> bool:
        return self.range_indices is None

    @property
    def range_gradients(self) -> tuple:
        if self.empty:
            return None
        lo, hi = self.range_indices
        return float(self.gradients[lo]), float(self.gradients[hi])


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

    Model-building, flip-time and propagation failures are re-raised with
    the failing gradient attached.
    """
    try:
        cfg, h, collapse = point_model(template.config(gradient), noise)
    except ValueError as exc:
        raise ValueError(f"gradient {gradient} T: {exc}") from exc
    try:
        t_flip = flip_time(cfg, h_rwa=h)
    except FlipTimeError as exc:
        raise FlipTimeError(f"gradient {gradient} T, flip-time search: {exc}") from exc
    labels = [index_to_label(idx, cfg.n_qubits) for idx in range(cfg.dim)]
    try:
        finals = propagate(h, collapse, [basis_density(s) for s in labels], t_flip)[:, -1]
    except SolverError as exc:
        raise SolverError(f"gradient {gradient} T: {exc}") from exc
    verdicts = tuple(classify(rho, cfg.gate, initial, thresholds)
                     for rho, initial in zip(finals, labels))
    return PointResult(gradient=float(gradient), t_flip=t_flip, verdicts=verdicts)


def _basis_zeeman(cfg: DeviceConfig) -> np.ndarray:
    """Diagonal static Zeeman energy of every computational basis state."""
    return device._spin_hamiltonian(cfg, exchange=False).diagonal().real.copy()


def run_sweep(template: SweepTemplate, gradients, noise: NoiseConfig,
              thresholds: Thresholds) -> SweepResult:
    """Evaluate every gradient point, in order."""
    gradients = np.asarray(gradients, dtype=float)
    if gradients.size == 0:
        raise ValueError("sweep grid is empty")
    if np.any(np.diff(gradients) <= 0):
        raise ValueError("gradient axis must be strictly increasing")
    points = [evaluate_point(template, g, noise, thresholds) for g in gradients]
    result = SweepResult(gradients=gradients, points=points)
    _extract_range(result)
    return result


def _extract_range(result: SweepResult) -> None:
    """Mark the longest contiguous passing run and its boundary failures."""
    passing = [p.passed for p in result.points]
    best = None
    start = None
    for i, ok in enumerate([*passing, False]):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if best is None or (i - start) > (best[1] - best[0] + 1):
                best = (start, i - 1)
            start = None
    if best is None:
        result.range_indices = None
        return
    lo, hi = best
    result.range_indices = (lo, hi)
    result.open_low = lo == 0
    result.open_high = hi == len(result.points) - 1
    if not result.open_low:
        result.limiting_low = result.points[lo - 1].first_failure()
    if not result.open_high:
        result.limiting_high = result.points[hi + 1].first_failure()


def bisect_boundary(passes, passing: float, failing: float, width: float) -> float:
    """Halve a pass/fail bracket until it is at most `width` wide.

    `passes(x)` decides each midpoint; `passing` and `failing` are the ends
    known to pass and to fail, in either order.  Returns the midpoint of
    the final bracket.
    """
    while abs(failing - passing) > width:
        mid = 0.5 * (passing + failing)
        if passes(mid):
            passing = mid
        else:
            failing = mid
    return 0.5 * (passing + failing)


def refine_boundary(template: SweepTemplate, noise: NoiseConfig,
                    thresholds: Thresholds, passing: float, failing: float):
    """Bisect a pass/fail boundary to REFINE_SIG_FIGS significant figures.

    Returns (boundary_gradient, (initial_state, qubit)) where the limiting
    info comes from the failing evaluation closest to the boundary.
    """
    limit = None

    def passes(gradient):
        nonlocal limit
        point = evaluate_point(template, gradient, noise, thresholds)
        if not point.passed:
            limit = point.first_failure()
        return point.passed

    scale = 10.0 ** (math.floor(math.log10(max(abs(passing), abs(failing))))
                     - REFINE_SIG_FIGS + 1)
    return bisect_boundary(passes, passing, failing, 0.5 * scale), limit


def operating_range(template: SweepTemplate, gradients, noise: NoiseConfig,
                    thresholds: Thresholds, *, refine: bool = False) -> SweepResult:
    """Sweep a gradient grid and extract the operating range.

    With `refine` the two closed boundaries of the passing run are
    bisected to REFINE_SIG_FIGS significant figures; grid-aligned endpoints
    stay in range_indices and the refined values land in refined_low/high.
    """
    result = run_sweep(template, gradients, noise, thresholds)
    if refine and not result.empty:
        lo, hi = result.range_indices
        if not result.open_low:
            grad, limit = refine_boundary(template, noise, thresholds,
                                          result.gradients[lo], result.gradients[lo - 1])
            result.refined_low = grad
            if limit is not None:
                result.limiting_low = limit
        if not result.open_high:
            grad, limit = refine_boundary(template, noise, thresholds,
                                          result.gradients[hi], result.gradients[hi + 1])
            result.refined_high = grad
            if limit is not None:
                result.limiting_high = limit
    return result
