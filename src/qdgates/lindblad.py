"""Lindblad master-equation propagation: exact, RK45 and an oracle.

The equation of motion is

    drho/dt = -i [H, rho] + sum_n ( C_n rho C_n^+ - 1/2 {C_n^+ C_n, rho} )

with hbar = 1 (energies in ueV, time in model units).  For a static H,
`propagate` evaluates rho(t) = exp(L t) rho(0) on evenly spaced times.  L
maps Hermitian matrices to Hermitian ones, so on the d^2 real coordinates
of a Hermitian rho (the coherence-vector form: Alicki & Lendi, Quantum
Dynamical Semigroups, 1987) it is a real matrix G.  In the collapse set's
basis, the static eigenbasis, G = G_H + gamma_phi G_Z + R: the noise-free
`NoiseFreePart` (G_H, and the unit dephasing direction G_Z), built once per
H, plus the rate table's part R, built from its rows with no collapse
matrix formed, since there each relaxation row only moves population and
damps coherences (the Pauli master equation: Breuer & Petruccione, The
Theory of Open Quantum Systems, 2002).  One exponential
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

from .noise import CollapseSet, sigma_z_string
from .operators import kron, skew

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
# Together the two checks are the one physicality policy: a diagonal entry
# is at least the least eigenvalue, and a qubit's P_up sums d/2 of the d
# diagonal entries, so every P_up of an accepted state lies in
# [d/2 EIG_FLOOR, 1 + TRACE_TOL - d/2 EIG_FLOOR].

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
    lv = kron(-1j * k, eye) + kron(eye, 1j * k.conj()) + jumps
    _check_hermitian(h, np.abs(lv).max())
    return lv


def _real_liouvillian(lv: np.ndarray) -> np.ndarray:
    """Real 2d^2 x 2d^2 block form acting on [Re vec(rho); Im vec(rho)]."""
    re, im = lv.real.copy(), lv.imag.copy()
    return np.block([[re, -im], [im, re]])


@functools.cache
def _hermitian_gathers(d: int) -> tuple:
    """Read-only index tables of the real coordinates x, with vec indices
    diag, up, lo = k(d+1), kd+l, ld+k (k < l): the vec entries (diag, up),
    for `_to_real`; each vec entry's (Re, Im) indices into [x, -x_Im, 0], for
    `_from_real`; for `noise_free_part`, over the entries of L at rows (i, a)
    in (diag, up) and columns (j, b) in (diag, up, lo), the flat id + j and
    ad + b, and the entries with a = b and with i = j, where K (x) I and
    I (x) K act; and the (d^2, d) map from the total rate out of each level
    to the damping -(Gamma_i + Gamma_a)/2 of rho_ia, for `NoiseFreePart`."""
    k, l = np.triu_indices(d, 1)
    diag, up, lo = np.arange(d) * (d + 1), k * d + l, l * d + k
    picks, n, p = np.concatenate((diag, up)), d * d, len(up)
    fills = np.full((n, 2), n + p)                  # Im of the diagonal reads the 0
    fills[picks, 0], fills[lo, 0] = np.arange(d + p), np.arange(d, d + p)
    fills[up, 1], fills[lo, 1] = np.arange(d + p, n), np.arange(n, n + p)
    (i, a), (j, b) = np.divmod(picks, d), np.divmod(np.concatenate((diag, up, lo)), d)
    damping = -0.5 * (np.eye(d)[i] + np.eye(d)[a])
    out = (picks, fills.ravel(), (i[:, None] * d + j).ravel(), (a[:, None] * d + b).ravel(),
           np.flatnonzero(a[:, None] == b), np.flatnonzero(i[:, None] == j),
           np.concatenate((damping, damping[d:])))
    for x in out:
        x.flags.writeable = False
    return out


def _to_real(rho: np.ndarray) -> np.ndarray:
    """(..., d, d) -> (..., d^2): the diagonal, then Re and Im of the upper triangle."""
    d = rho.shape[-1]
    picked = rho.reshape(*rho.shape[:-2], -1).take(_hermitian_gathers(d)[0], axis=-1)
    return np.concatenate((picked.real, picked[..., d:].imag), axis=-1)


def _from_real(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian (..., d, d) matrices of real coordinates (..., d^2)."""
    lead = x.shape[:-1]
    x = np.concatenate((x, -x[..., (d * d + d) // 2:], np.zeros((*lead, 1))), axis=-1)
    return x.take(_hermitian_gathers(d)[1], axis=-1).view(complex).reshape(*lead, d, d)


def _propagation_error(t_end: float, what: str) -> SolverError:
    return SolverError(f"propagation to t = {t_end:.6g}: {what}")


def _check_physical(states: np.ndarray, t_end: float) -> None:
    """Raise SolverError if a state propagated to `t_end` has an eigenvalue
    below EIG_FLOOR, or NaN."""
    least = np.linalg.eigvalsh(states).min()
    if not least >= EIG_FLOOR:              # also catches NaN
        raise _propagation_error(t_end, f"least eigenvalue {least:.3e} below {EIG_FLOOR}")


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


@dataclass(frozen=True, eq=False)
class NoiseFreePart:
    """What propagation under a static H keeps across noise settings, read-only:
    on the real coordinates of V^+ rho V, V the unitary `basis`, the generator
    G_H of -i[V^+ H V, .], the unit-rate collective dephasing G_Z of
    rho -> Z' rho Z'^+ - rho (Z' = V^+ sigma_z^(x)n V), and the `initial`
    states' coordinates, one column each."""
    basis: np.ndarray
    hamiltonian: np.ndarray
    dephasing: np.ndarray
    initial: np.ndarray

    def generator(self, collapse: CollapseSet) -> np.ndarray:
        """G = G_H + gamma_phi G_Z + R, affine in the rates of a `CollapseSet`
        on `basis`: gamma_phi sums the dephasing rates, and R puts each
        relaxation rate at G[to, from] and its damping on the diagonal."""
        d, src, dst, rate = len(self.basis), collapse.src, collapse.dst, collapse.rate
        if collapse.basis is not self.basis:
            raise ValueError("collapse basis is not the noise-free part's basis")
        relaxation = src >= 0
        src, dst, relax = src[relaxation], dst[relaxation], rate[relaxation]
        g = self.hamiltonian + rate[~relaxation].sum() * self.dephasing
        transfer = np.bincount(dst * d + src, relax, d * d).reshape(d, d)
        g[:d, :d] += transfer
        g.reshape(-1)[::d * d + 1] += _hermitian_gathers(d)[6] @ transfer.sum(axis=0)
        return g

    def propagate(self, collapse: CollapseSet, t_end: float, samples: int = 2) -> np.ndarray:
        """`propagate` of the initial states under `generator(collapse)`."""
        if not t_end >= 0 or samples < 2:
            raise ValueError("propagate needs t_end >= 0 and samples >= 2")
        v, d = self.basis, len(self.basis)
        # overflow is not warned about here: the checks below raise on its result
        with np.errstate(over="ignore", invalid="ignore"):
            step = _expm(self.generator(collapse) * (t_end / (samples - 1)))
            coords = np.empty((samples, *self.initial.shape))
            coords[0] = self.initial
            for k in range(1, samples):
                coords[k] = step @ coords[k - 1]
        if not np.isfinite(coords).all():
            what = "state" if np.isfinite(step).all() else "step exp(L dt)"
            raise _propagation_error(t_end, f"non-finite {what}")
        coords = coords.transpose(2, 0, 1)
        drift = np.abs(coords[..., :d].sum(axis=-1) - 1.0).max()
        if drift > TRACE_TOL:
            raise _propagation_error(t_end, f"trace drift {drift:.3e} exceeds {TRACE_TOL}")
        states = v @ _from_real(coords, d) @ v.conj().T
        _check_physical(states[:, 1:], t_end)
        return states


def noise_free_part(h: np.ndarray, v: np.ndarray, rho0s) -> NoiseFreePart:
    """The `NoiseFreePart` of a static H and initial states in the basis V.
    A basis or states that do not match H, or a non-Hermitian initial state,
    raise ValueError, and an H that is not Hermitian to HERMITIZATION_TOL of
    G_H's largest entry SolverError."""
    h = np.asarray(h, dtype=complex)
    rho0s = np.asarray(rho0s, dtype=complex)
    d = h.shape[0]
    if v.shape != h.shape:
        raise ValueError(f"collapse basis {v.shape} does not match H {h.shape}")
    if rho0s.ndim != 3 or rho0s.shape[1:] != h.shape:
        raise ValueError(f"initial states {rho0s.shape} do not match H {h.shape}")
    if not (dev := skew(rho0s)) <= HERMITIZATION_TOL:      # also catches NaN
        raise ValueError(f"initial state is not Hermitian: deviation {dev:.3e}")
    vh, pairs = v.conj().T, d * (d - 1) // 2
    k, z = (vh @ h @ v).ravel(), (vh @ sigma_z_string(d) @ v).ravel()
    ij, ab, left, right = _hermitian_gathers(d)[2:6]
    # the gathered entries of L: -i K (x) I + i I (x) conj(K), K = V^+ H V,
    # then Z' (x) conj(Z'); Z'^+ Z' = I, so the dephasing's -(1/2){Z'^+ Z', rho}
    # is -rho, added on the real coordinates
    m = np.zeros((2, len(ij)), dtype=complex)
    m[0, left] = -1j * k[ij[left]]
    m[0, right] += 1j * k[ab[right]].conj()
    m[1] = z[ij] * z[ab].conj()
    m = m.reshape(2, d + pairs, d * d)
    m_up, m_lo = m[..., d:d + pairs], m[..., d + pairs:]
    cols = np.concatenate((m[..., :d], m_up + m_lo, 1j * (m_up - m_lo)), axis=-1)
    g = np.concatenate((cols.real, cols[:, d:].imag), axis=1)
    g[1].reshape(-1)[::d * d + 1] -= 1.0
    _check_hermitian(h, np.abs(g[0]).max())
    initial = _to_real(vh @ rho0s @ v).T
    g.flags.writeable = initial.flags.writeable = False
    return NoiseFreePart(v, g[0], g[1], initial)


def propagate(h: np.ndarray, collapse, rho0s, t_end: float,
              samples: int = 2) -> np.ndarray:
    """Exact rho on np.linspace(0, t_end, samples) for a static H.

    `collapse` is a `CollapseSet`, or None for no noise.  Returns shape
    (len(rho0s), samples, d, d).  One step E = expm(G dt) of the real
    generator, its `noise_free_part` plus the rate table's part, with
    dt = t_end / (samples - 1), is applied `samples - 1` times to the real
    coordinates of all initial states at once, in the collapse set's basis;
    the trace is not renormalized.  Beside `noise_free_part`'s errors, a
    non-finite step or state, a trace drift beyond TRACE_TOL, or a state
    with an eigenvalue below EIG_FLOOR raises SolverError.
    """
    if callable(h):
        raise ValueError("propagate requires a time-independent Hamiltonian")
    if collapse is None:        # no rows, in the computational basis
        collapse = CollapseSet((), (), *[np.empty(0, int)] * 2, np.empty(0), np.eye(len(h)))
    return noise_free_part(h, collapse.basis, rho0s).propagate(collapse, t_end, samples)


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
