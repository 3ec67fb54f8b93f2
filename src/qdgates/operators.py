"""Dense multi-qubit operator algebra in the computational (z) basis.

Basis convention, fixed once for the whole package: basis index i encodes
the spin pattern of the qubits with qubit 0 as the most significant bit and
bit value 0 meaning spin-up.  For two qubits |uu> = 0, |ud> = 1, |du> = 2,
|dd> = 3; the same rule extends to any qubit count.  Labels are strings of
'u'/'d' characters, one per qubit.

Everything here is plain numpy: operators are (d, d) complex arrays,
density matrices are operators that additionally satisfy
`check_density_matrix`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

SIGMA_X.setflags(write=False)
SIGMA_Y.setflags(write=False)
SIGMA_Z.setflags(write=False)
IDENTITY_2.setflags(write=False)

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-12     # smallest level spacing, relative to the spectral span


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant bits."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a Hilbert dimension that must be a power of 2."""
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


@cache
def embed_pauli(axis: str, qubit: int, n_qubits: int) -> np.ndarray:
    """Pauli sigma_axis acting on `qubit`, identity elsewhere.

    Built once per argument triple and returned read-only, since every
    caller shares the same array.
    """
    if axis not in PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
    op = np.eye(1, dtype=complex)
    for pos in range(n_qubits):
        op = kron(op, PAULI[axis] if pos == qubit else IDENTITY_2)
    op.setflags(write=False)
    return op


def index_to_label(index: int, n_qubits: int) -> str:
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index} out of range")
    return "".join("d" if (index >> (n_qubits - 1 - q)) & 1 else "u"
                   for q in range(n_qubits))


@cache
def basis_labels(n_qubits: int) -> tuple:
    """`index_to_label` of every basis index, in index order."""
    return tuple(index_to_label(k, n_qubits) for k in range(1 << n_qubits))


@cache
def up_mask(n_qubits: int) -> np.ndarray:
    """Read-only (2**n, n) boolean mask: [k, q] is True when qubit q is up in state k."""
    mask = np.array([[ch == "u" for ch in label] for label in basis_labels(n_qubits)])
    mask.setflags(write=False)
    return mask


def label_to_index(label: str) -> int:
    index = 0
    for ch in label:
        if ch not in "ud":
            raise ValueError(f"invalid spin label {label!r}")
        index = (index << 1) | (ch == "d")
    return index


def basis_ket(label: str) -> np.ndarray:
    ket = np.zeros(1 << len(label), dtype=complex)
    ket[label_to_index(label)] = 1.0
    return ket


def basis_density(label: str) -> np.ndarray:
    """Density matrix of the computational basis state `label`."""
    ket = basis_ket(label)
    return np.outer(ket, ket.conj())


def skew(a: np.ndarray) -> float:
    """Largest entry of |a - a^+| over a stack of square matrices; NaN propagates."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max()


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    a = np.asarray(a)
    scale = max(1.0, np.abs(a).max()) if a.size else 1.0
    return bool(skew(a) <= tol * scale)


def check_density_matrix(rho: np.ndarray, *, trace_tol: float = 1e-9,
                         herm_tol: float = 1e-9, eig_floor: float = -1e-9) -> None:
    """Raise ValueError unless rho is unit-trace, Hermitian and PSD.

    Tolerances default to the construction-time requirements; callers
    validating integrated states pass a looser `eig_floor`.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} deviates from 1 by more than {trace_tol}")
    if skew(rho) > herm_tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if evals.min() < eig_floor:
        raise ValueError(f"negative eigenvalue {evals.min()} below {eig_floor}")


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced 2x2 state of qubit `keep`, tracing out all other qubits."""
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits_of(rho.shape[0])
    if not 0 <= keep < n:
        raise ValueError(f"qubit {keep} out of range for {n} qubits")
    tensor = rho.reshape((2,) * (2 * n))
    row = list(range(n))
    col = [q if q != keep else n + keep for q in range(n)]
    return np.einsum(tensor, row + col, [keep, n + keep])


@dataclass(frozen=True)
class EigenSystem:
    """Sorted spectrum of a Hermitian operator with basis-state labels.

    energies are ascending; vectors[:, k] is the k-th eigenvector;
    labels[k] is the computational basis label with the largest overlap,
    or None when no overlap exceeds one half (degenerate or strongly mixed
    spectrum).
    """
    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no eigenstate labeled {label!r}") from None

    def energy_of(self, label: str) -> float:
        return float(self.energies[self.index_of(label)])

    def is_degenerate(self) -> bool:
        span = max(float(self.energies[-1] - self.energies[0]), 1.0)
        return bool(np.diff(self.energies).min() < DEGENERACY_TOL * span)


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian operator; rejects non-Hermitian input."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("eigensystem requires a Hermitian operator")
    energies, vectors = np.linalg.eigh(h)
    overlaps = np.abs(vectors) ** 2
    names = basis_labels(n_qubits_of(h.shape[0]))
    labels = tuple(names[best] if found else None for best, found in
                   zip(overlaps.argmax(axis=0).tolist(), (overlaps.max(axis=0) > 0.5).tolist()))
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(energies=energies, vectors=vectors, labels=labels)
