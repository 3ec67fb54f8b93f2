"""Lindblad master-equation propagation: exact, RK45 and an oracle.

The equation of motion is

    drho/dt = -i [H, rho] + sum_n ( C_n rho C_n^+ - 1/2 {C_n^+ C_n, rho} )

with hbar = 1 (energies in ueV, time in model units).  For a static H,
`propagate` evaluates rho(t) = exp(L t) rho(0) on evenly spaced times.  L
maps Hermitian matrices to Hermitian ones, so on the d^2 real coordinates
of a Hermitian rho (the coherence-vector form: Alicki & Lendi, Quantum
Dynamical Semigroups, 1987) it is a real matrix G.  The rate table is the
generator: in the collapse set's basis, the static eigenbasis, each
relaxation row only moves population and damps coherences (the Pauli
master equation: Breuer & Petruccione, The Theory of Open Quantum Systems,
2002), so G is built there with no collapse matrix formed.  One exponential
E = exp(G dt) by the scaling-and-squaring Pade [13/13] method in numpy
(`_expm`: Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005); Moler & Van
Loan, SIAM Rev. 45, 3 (2003)) is applied step by step to all initial
states at once.  It needs no eigendecomposition of L, so it stays
accurate at exceptional points.  The dense computational-basis L of
`liouvillian` serves the references only: `evolve` integrates the
flattened real representation of rho with scipy's adaptive RK45
(Dormand-Prince 5(4)); it serves the time-dependent lab frame and the
cross-checks.  `expm_oracle` is the single-time matrix-exponential
reference, by scipy's `expm` (Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 31, 970 (2009)), independent of `_expm`.  Only `expm_oracle` and
`evolve` load scipy, so no CLI mode imports it.  Trace renormalization is
never applied: trace drift is kept as a measured error signal.

Vectorization uses row stacking (vec(rho) = rho.ravel() in C order).  With
the effective Hamiltonian K = H - (i/2) sum_n C_n^+ C_n, which carries the
anticommutator term, and H Hermitian,

    L = -i K (x) I + i I (x) conj(K) + sum_n C_n (x) conj(C_n).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .noise import sigma_z_string
from .operators import skew

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DEFAULT_SAMPLES = 2000
HERMITIZATION_TOL = 1e-8
# Largest |Tr(rho) - 1| a propagated state may show.  Below it the drift is
# an error signal (simulate's trace_error); above it the propagator has
# broken down, e.g. squarings that underflowed to the zero matrix.
TRACE_TOL = 1e-3
# Least eigenvalue a propagated state may show (criterion 2's floor)
EIG_FLOOR = -1e-7

# Pade [13/13] coefficients of exp, and the largest 1-norm at which that
# approximant's backward error stays below unit roundoff (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class SolverError(RuntimeError):
    """Propagation failed: step-size underflow, tolerance, Hermiticity, a
    negative eigenvalue, a non-finite value or a collapsed trace."""


def _collapse_matrices(collapse) -> np.ndarray:
    """(m, d, d) collapse matrices from a CollapseSet, a sequence of arrays, or None."""
    if collapse is None:
        return np.empty((0, 0, 0), dtype=complex)
    return np.asarray(getattr(collapse, "matrices", collapse), dtype=complex)


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two d x d matrices, by broadcasting."""
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def _check_hermitian(h: np.ndarray, scale: float) -> None:
    """Raise SolverError if H deviates from Hermitian by more than
    HERMITIZATION_TOL of `scale`, the generator's largest entry."""
    dev = skew(h)
    if not dev <= HERMITIZATION_TOL * scale:      # also catches NaN
        raise SolverError(f"generator is not Hermitian: H deviates by {dev:.3e}")


def liouvillian(h: np.ndarray, collapse) -> np.ndarray:
    """Vectorized generator L with vec(rho) = rho.ravel() (row stacking).

    conj(K) stands in for the transposes of H and sum_n C_n^+ C_n, so a
    non-Hermitian `h` raises SolverError instead of giving wrong dynamics.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d)
    c = _collapse_matrices(collapse)
    if len(c):
        k = h - 0.5j * np.einsum("kji,kjl->il", c.conj(), c, optimize=True)
        jumps = np.einsum("kij,kab->iajb", c, c.conj(),
                          optimize=True).reshape(d * d, d * d)
    else:
        k, jumps = h, 0.0
    lv = _kron(-1j * k, eye) + _kron(eye, 1j * k.conj()) + jumps
    _check_hermitian(h, np.abs(lv).max())
    return lv


def _real_liouvillian(lv: np.ndarray) -> np.ndarray:
    """Real 2d^2 x 2d^2 block form acting on [Re vec(rho); Im vec(rho)]."""
    re, im = lv.real.copy(), lv.imag.copy()
    return np.block([[re, -im], [im, re]])


@functools.cache
def _hermitian_indices(d: int) -> tuple:
    """Read-only vec indices (diag, up, lo) = (k(d+1), kd+l, ld+k), k < l."""
    k, l = np.triu_indices(d, 1)
    out = (np.arange(d) * (d + 1), k * d + l, l * d + k)
    for a in out:
        a.flags.writeable = False
    return out


def _to_real(rho: np.ndarray) -> np.ndarray:
    """(..., d, d) -> (..., d^2): the diagonal, then Re and Im of the upper triangle."""
    diag, up, _ = _hermitian_indices(rho.shape[-1])
    vec = rho.reshape(*rho.shape[:-2], -1)
    return np.concatenate((vec[..., diag].real, vec[..., up].real, vec[..., up].imag), axis=-1)


def _from_real(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian (..., d, d) matrices of real coordinates (..., d^2)."""
    diag, up, lo = _hermitian_indices(d)
    vec = np.zeros((*x.shape[:-1], d * d), dtype=complex)
    vec.real[..., diag] = x[..., :d]
    vec.real[..., up] = vec.real[..., lo] = x[..., d:d + len(up)]
    vec.imag[..., up] = x[..., d + len(up):]
    vec.imag[..., lo] = -x[..., d + len(up):]
    return vec.reshape(*x.shape[:-1], d, d)


def _generator(h: np.ndarray, collapse) -> tuple:
    """(G, V): L on the real coordinates of V^+ rho V, with V the collapse
    set's basis (the identity for None; d must be 2^n either way).

    In V, L is -i K' (x) I + i I (x) conj(K') + gamma_phi Z' (x) conj(Z'),
    K' = V^+ H V - (i/2)(diag Gamma + gamma_phi Z'^+ Z'), Z' = V^+ sigma_z V
    and Gamma the total rate out of each level, gathered onto the Hermitian
    basis, plus each relaxation rate at G[to, from].  Raises SolverError if
    H is not Hermitian to HERMITIZATION_TOL of G's largest entry.
    """
    d = h.shape[0]
    if collapse is None:
        v, src, dst, rate = np.eye(d), np.empty(0, int), np.empty(0, int), np.empty(0)
    else:
        v, src, dst, rate = collapse.basis, collapse.src, collapse.dst, collapse.rate
        if v.shape != h.shape:
            raise ValueError(f"collapse basis {v.shape} does not match H {h.shape}")
    relaxation = src >= 0
    gamma_phi = rate[~relaxation].sum()
    # transfer[to, from] sums the rates of the relaxation rows from -> to
    transfer = np.bincount(dst[relaxation] * d + src[relaxation], rate[relaxation],
                           d * d).reshape(d, d)
    vh = v.conj().T
    k = vh @ h @ v
    k[np.diag_indices(d)] -= 0.5j * transfer.sum(axis=0)
    z = vh @ sigma_z_string(d) @ v
    k -= 0.5j * gamma_phi * (z.conj().T @ z)
    # m[i, a, j, b] is the complex part's entry at row (i, a), column (j, b)
    m = gamma_phi * z[:, None, :, None] * z.conj()[None, :, None, :]
    levels = np.arange(d)
    m[:, levels, :, levels] += -1j * k            # -i K' (x) I
    m[levels, :, levels, :] += 1j * k.conj()      # i I (x) conj(K')
    diag, up, lo = _hermitian_indices(d)
    m = m.reshape(d * d, d * d)[np.concatenate((diag, up))]
    m_up, m_lo = m[:, up], m[:, lo]
    cols = np.concatenate((m[:, diag], m_up + m_lo, 1j * (m_up - m_lo)), axis=1)
    g = np.concatenate((cols.real, cols[d:].imag))
    g[:d, :d] += transfer
    _check_hermitian(h, np.abs(g).max())
    return g, v


def _check_physical(states: np.ndarray, where: str) -> None:
    """Raise SolverError if a state has an eigenvalue below EIG_FLOOR, or NaN."""
    least = np.linalg.eigvalsh(states).min()
    if not least >= EIG_FLOOR:              # also catches NaN
        raise SolverError(f"{where}: least eigenvalue {least:.3e} below {EIG_FLOOR}")


def expm_oracle(h: np.ndarray, collapse, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact rho(t) for time-independent H via scipy's Pade scaling-and-squaring.

    `rho0` is one (d, d) state or a stack (..., d, d) of them; one scipy
    `expm` serves them all, and the result has the shape of `rho0`.
    """
    # imported here: the reference is kept independent of `_expm`, and no
    # CLI mode should pay scipy's import time
    from scipy.linalg import expm

    if callable(h):
        raise ValueError("expm_oracle requires a time-independent Hamiltonian")
    h = np.asarray(h, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    d = h.shape[0]
    step = expm(liouvillian(h, collapse) * t)
    return (rho0.reshape(-1, d * d) @ step.T).reshape(rho0.shape)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the Pade [13/13] approximant.

    The m = 13 branch of Higham (2005), Algorithm 2.3: scale a by 2^-s so
    that its 1-norm is at most theta_13, evaluate r = q^-1 p with
    p = V + U and q = V - U, and square r s times.
    """
    norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        raise SolverError(f"propagation: exponent L dt has 1-norm {norm}")
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _hermitized(states: np.ndarray) -> np.ndarray:
    """Symmetrize (..., d, d) states after checking their Hermiticity deviation."""
    herm_dev = skew(states)
    if not herm_dev <= HERMITIZATION_TOL:      # also catches NaN
        raise SolverError(f"Hermiticity deviation {herm_dev:.3e} exceeds "
                          f"{HERMITIZATION_TOL} before symmetrization")
    return (states + states.conj().swapaxes(-1, -2)) / 2.0


def propagate(h: np.ndarray, collapse, rho0s, t_end: float,
              samples: int = 2) -> np.ndarray:
    """Exact rho on np.linspace(0, t_end, samples) for a static H.

    `collapse` is a `CollapseSet` or None.  Returns shape
    (len(rho0s), samples, d, d).  One step E = expm(G dt) of the real
    generator, dt = t_end / (samples - 1), is applied `samples - 1` times to
    the real coordinates of all initial states at once, in the collapse
    set's basis; the trace is not renormalized.  A non-Hermitian initial
    state, or a basis that does not match H, raises ValueError.  A
    non-Hermitian H, a non-finite step or state, a trace drift beyond
    TRACE_TOL, or a propagated state with an eigenvalue below EIG_FLOOR
    raises SolverError.
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
    if not (dev := skew(rho0s)) <= HERMITIZATION_TOL:      # also catches NaN
        raise ValueError(f"initial state is not Hermitian: deviation {dev:.3e}")
    generator, v = _generator(h, collapse)
    vh = v.conj().T
    # overflow is not warned about here: the checks below raise on its result
    with np.errstate(over="ignore", invalid="ignore"):
        step = _expm(generator * (t_end / (samples - 1)))
        coords = np.empty((samples, d * d, len(rho0s)))
        coords[0] = _to_real(vh @ rho0s @ v).T
        for k in range(1, samples):
            coords[k] = step @ coords[k - 1]
    where = f"propagation to t = {t_end:.6g}"
    if not np.isfinite(coords).all():
        what = "state" if np.isfinite(step).all() else "step exp(L dt)"
        raise SolverError(f"{where}: non-finite {what}")
    coords = coords.transpose(2, 0, 1)
    drift = np.abs(coords[..., :d].sum(axis=-1) - 1.0).max()
    if drift > TRACE_TOL:
        raise SolverError(f"{where}: trace drift {drift:.3e} exceeds {TRACE_TOL}")
    states = v @ _from_real(coords, d) @ vh
    _check_physical(states[:, 1:], where)
    return states


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
    # imported here: scipy.integrate nearly doubles the package's import
    # time, and no CLI mode integrates
    from scipy.integrate import solve_ivp

    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    n = d * d
    mats = _collapse_matrices(collapse)

    if callable(h):
        lr_diss = (_real_liouvillian(liouvillian(np.zeros((d, d)), mats))
                   if len(mats) else None)

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
