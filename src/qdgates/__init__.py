"""Quantum-dot spin-qubit CNOT/Toffoli gate simulator with decoherence."""

__version__ = "0.1.0"

from .operators import (
    EigenSystem,
    basis_density,
    basis_ket,
    check_density_matrix,
    eigensystem,
    embed_pauli,
    index_to_label,
    kron,
    label_to_index,
    partial_trace,
)
from .device import (
    CNOT,
    TOFFOLI,
    DeviceConfig,
    build_hamiltonian_lab,
    build_hamiltonian_rwa,
    cnot_config,
    field_to_energy,
    resolve_drive,
    resonance_frequency,
    static_eigensystem,
    static_hamiltonian,
    toffoli_config,
)
from .noise import (
    CollapseSet,
    NoiseConfig,
    build_collapse_set,
    hyperfine_rate_down,
    hyperfine_rate_up,
    phonon_rate,
)
from .lindblad import (
    SolverError,
    Trajectory,
    evolve,
    expm_oracle,
    lindblad_rhs,
    liouvillian,
    propagate,
)
from .analysis import (
    Boundary,
    FlipTimeError,
    GateVerdict,
    SweepResult,
    SweepTemplate,
    Thresholds,
    classify,
    evaluate_point,
    expected_final,
    flip_time,
    populations_up,
    run_sweep,
)
from .config import ConfigError, RunSpec, parse_config, render_config
