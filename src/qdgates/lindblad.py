"""Lindblad master-equation propagation: exact, RK45 and an oracle.

The equation of motion is

    drho/dt = -i [H, rho] + sum_n ( C_n rho C_n^+ - 1/2 {C_n^+ C_n, rho} )

with hbar = 1 (energies in ueV, time in model units).  For a static H,
`propagate` evaluates rho(t) = exp(L t) rho(0) on evenly spaced times:
one scaling-and-squaring Pade exponential E = expm(L dt) (Al-Mohy &
Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009); Moler & Van Loan,
SIAM Rev. 45, 3 (2003)), applied step by step to all initial states at
once.  It needs no eigendecomposition of L, so it stays accurate at
exceptional points.  `evolve` integrates the flattened real representation
of rho with scipy's adaptive RK45 (Dormand-Prince 5(4)); it serves the
time-dependent lab frame and the cross-checks.  `expm_oracle` is the
single-time matrix-exponential reference.  Trace renormalization is never
applied: trace drift is kept as a measured error signal.

Vectorization uses row stacking (vec(rho) = rho.ravel() in C order), so

    L = -i (H (x) I - I (x) H^T) + sum_n C_n (x) conj(C_n)
        - 1/2 ( S (x) I + I (x) S^T ),    S = sum_n C_n^+ C_n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DEFAULT_SAMPLES = 2000
HERMITIZATION_TOL = 1e-8


class SolverError(RuntimeError):
    """Propagation failed (step-size underflow, tolerance or Hermiticity failure)."""


def _collapse_matrices(collapse) -> list:
    """Accept a CollapseSet, a sequence of arrays, or None."""
    if collapse is None:
        return []
    matrices = getattr(collapse, "matrices", None)
    if matrices is not None:
        return list(matrices)
    return [np.asarray(c, dtype=complex) for c in collapse]


def lindblad_rhs(h: np.ndarray, collapse, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H, rho] + dissipator, evaluated densely."""
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if h.shape != rho.shape:
        raise ValueError(f"dimension mismatch: H {h.shape} vs rho {rho.shape}")
    out = -1j * (h @ rho - rho @ h)
    for c in _collapse_matrices(collapse):
        if c.shape != rho.shape:
            raise ValueError(f"dimension mismatch: collapse {c.shape} vs rho {rho.shape}")
        cd = c.conj().T
        cdc = cd @ c
        out += c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def liouvillian(h: np.ndarray, collapse) -> np.ndarray:
    """Vectorized generator L with vec(rho) = rho.ravel() (row stacking)."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    mats = _collapse_matrices(collapse)
    if mats:
        c = np.stack(mats)
        lv += np.einsum("kij,kab->iajb", c, c.conj(),
                        optimize=True).reshape(d * d, d * d)
        cdc = np.einsum("kji,kjl->il", c.conj(), c, optimize=True)
        lv -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return lv


def _real_liouvillian(lv: np.ndarray) -> np.ndarray:
    """Real 2d^2 x 2d^2 block form acting on [Re vec(rho); Im vec(rho)]."""
    re, im = lv.real.copy(), lv.imag.copy()
    return np.block([[re, -im], [im, re]])


def expm_oracle(h: np.ndarray, collapse, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact rho(t) for time-independent H via Pade scaling-and-squaring."""
    if callable(h):
        raise ValueError("expm_oracle requires a time-independent Hamiltonian")
    h = np.asarray(h, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    d = h.shape[0]
    lv = liouvillian(h, collapse)
    vec = expm(lv * t) @ rho0.ravel()
    return vec.reshape(d, d)


def _hermitized(states: np.ndarray) -> np.ndarray:
    """Symmetrize (..., d, d) states after checking their Hermiticity deviation."""
    adjoint = states.conj().swapaxes(-1, -2)
    herm_dev = np.abs(states - adjoint).max()
    if herm_dev > HERMITIZATION_TOL:
        raise SolverError(f"Hermiticity deviation {herm_dev:.3e} exceeds "
                          f"{HERMITIZATION_TOL} before symmetrization")
    return (states + adjoint) / 2.0


def propagate(h: np.ndarray, collapse, rho0s, t_end: float,
              samples: int = 2) -> np.ndarray:
    """Exact rho on np.linspace(0, t_end, samples) for a static H.

    Returns shape (len(rho0s), samples, d, d).  One step E = expm(L dt),
    dt = t_end / (samples - 1), is applied `samples - 1` times to all
    initial states at once.  The Hermiticity check of `evolve` applies;
    the trace is not renormalized.
    """
    if callable(h):
        raise ValueError("propagate requires a time-independent Hamiltonian")
    h = np.asarray(h, dtype=complex)
    rho0s = np.asarray(rho0s, dtype=complex)
    d = h.shape[0]
    if rho0s.ndim != 3 or rho0s.shape[1:] != h.shape:
        raise ValueError(f"initial states {rho0s.shape} do not match H {h.shape}")
    if not t_end >= 0 or samples < 2:
        raise ValueError("propagate needs t_end >= 0 and samples >= 2")
    step = expm(liouvillian(h, collapse) * (t_end / (samples - 1)))
    vecs = np.empty((samples, d * d, len(rho0s)), dtype=complex)
    vecs[0] = rho0s.reshape(len(rho0s), d * d).T
    for k in range(1, samples):
        vecs[k] = step @ vecs[k - 1]
    states = vecs.transpose(2, 0, 1).reshape(len(rho0s), samples, d, d)
    return _hermitized(states)


@dataclass
class Trajectory:
    """Sampled density-matrix evolution in model time units."""
    times: np.ndarray
    states: np.ndarray           # (n_samples, d, d)

    def trace_error(self) -> np.ndarray:
        """Signed trace deviation Tr(rho) - 1 at every sample."""
        return np.einsum("nii->n", self.states).real - 1.0


def evolve(h, collapse, rho0: np.ndarray, t_end: float, *,
           rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
           samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Integrate the master equation from rho0 over [0, t_end] with RK45.

    `h` is either a static (d, d) array or a callable t -> (d, d) array.
    The ODE state is the concatenated real and imaginary parts of
    vec(rho); Hermiticity is enforced only at the sampling points, and the
    pre-symmetrization deviation must stay below 1e-8 or the run aborts.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    n = d * d
    mats = _collapse_matrices(collapse)

    if callable(h):
        lr_diss = _real_liouvillian(liouvillian(np.zeros((d, d)), mats)) if mats else None

        def rhs(t, y):
            rho = (y[:n] + 1j * y[n:]).reshape(d, d)
            hm = np.asarray(h(t), dtype=complex)
            drho = -1j * (hm @ rho - rho @ hm)
            out = np.concatenate((drho.real.ravel(), drho.imag.ravel()))
            if lr_diss is not None:
                out += lr_diss @ y
            return out
    else:
        lr = _real_liouvillian(liouvillian(h, mats))

        def rhs(t, y):
            return lr @ y

    y0 = np.concatenate((rho0.real.ravel(), rho0.imag.ravel()))
    t_eval = np.linspace(0.0, t_end, samples)
    result = solve_ivp(rhs, (0.0, t_end), y0, method="RK45", rtol=rtol,
                       atol=atol, t_eval=t_eval)
    if not result.success:
        raise SolverError(f"integration failed at t = {result.t[-1] if result.t.size else 0.0}"
                          f" of {t_end}: {result.message}")

    raw = result.y.T[:, :n] + 1j * result.y.T[:, n:]
    return Trajectory(times=t_eval, states=_hermitized(raw.reshape(-1, d, d)))
