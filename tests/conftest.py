import numpy as np
import pytest

from qdgates.device import (
    build_hamiltonian_rwa,
    cnot_config,
    resolve_drive,
    static_eigensystem,
    toffoli_config,
)
from qdgates.lindblad import liouvillian
from qdgates.noise import NoiseConfig, build_collapse_set


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_density(rng, dim):
    """Random full-rank density matrix via a Wishart construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


def partial_trace_by_summation(rho, keep, n_qubits):
    """Index-summation partial trace, independent of the library routine."""
    out = np.zeros((2, 2), dtype=complex)
    shift = n_qubits - 1 - keep
    rest_bits = n_qubits - 1
    for a in (0, 1):
        for b in (0, 1):
            total = 0.0
            for rest in range(1 << rest_bits):
                # splice the kept qubit's bit into position `keep`
                high = rest >> shift
                low = rest & ((1 << shift) - 1)
                i = (high << (shift + 1)) | (a << shift) | low
                j = (high << (shift + 1)) | (b << shift) | low
                total += rho[i, j]
            out[a, b] = total
    return out


def random_noisy_setup(rng, gate):
    """Random noisy CNOT or Toffoli device: (H_rwa, collapse set, config)."""
    if gate == "cnot":
        cfg = cnot_config(rng.uniform(0.3, 1.0), rng.uniform(0.1, 1.5),
                          j=rng.uniform(0.1, 0.5),
                          b_ac=rng.uniform(0.001, 0.006))
    else:
        cfg = toffoli_config(rng.uniform(0.05, 0.3), rng.uniform(0.1, 0.8),
                             j12=rng.uniform(0.1, 0.5), j23=rng.uniform(0.1, 0.5),
                             b_ac=rng.uniform(0.001, 0.006))
    cfg = resolve_drive(cfg)
    collapse = build_collapse_set(static_eigensystem(cfg), NoiseConfig())
    return build_hamiltonian_rwa(cfg), collapse, cfg


def eigenvector_reference(h, collapse, rho0, t):
    """rho(t) = V exp(lambda t) V^-1 vec(rho0) from the eigenvectors of L.

    A second exact route, independent of the matrix exponential that both
    `propagate` and `expm_oracle` use; trusted only where V is well
    conditioned.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    lam, v = np.linalg.eig(liouvillian(h, collapse))
    vec = v @ (np.exp(lam * t) * np.linalg.solve(v, rho0.ravel()))
    return vec.reshape(rho0.shape)
