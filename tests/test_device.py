from functools import reduce

import numpy as np
import pytest

from qdgates.analysis import _basis_zeeman
from qdgates.device import (
    G_GAAS,
    DeviceConfig,
    build_hamiltonian_lab,
    build_hamiltonian_rwa,
    cnot_config,
    field_to_energy,
    gate_transition,
    resolve_drive,
    static_eigensystem,
    static_hamiltonian,
    toffoli_config,
)
from qdgates.lindblad import evolve
from qdgates.operators import basis_density, embed_pauli, index_to_label, is_hermitian

PAULI_2X2 = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def cnot_cfg(**overrides):
    kwargs = dict(gate="cnot", b_fields=(1.0, 0.4), b_ac=0.004,
                  exchange=(0.42,))
    kwargs.update(overrides)
    return DeviceConfig(**kwargs)


class TestFieldToEnergy:
    def test_zero_field(self):
        assert field_to_energy(0.0, 2.0) == 0.0

    def test_one_tesla_g2(self):
        # 2 * 57.883818
        assert field_to_energy(1.0, 2.0) == pytest.approx(115.767636, abs=1e-9)

    def test_drive_amplitude_scale(self):
        # 2 * 57.883818 * 0.004
        assert field_to_energy(0.004, 2.0) == pytest.approx(0.463070544, abs=1e-9)


class TestLabHamiltonian:
    def test_diagonal_when_uncoupled(self):
        cfg = cnot_cfg(exchange=(0.0,), b_ac=0.0, drive_frequency=0.0)
        h = build_hamiltonian_lab(cfg)(0.0)
        e1, e2 = cfg.zeeman_energies
        np.testing.assert_allclose(
            h, np.diag([e1 + e2, e1 - e2, -e1 + e2, -e1 - e2]).astype(complex),
            atol=1e-12)

    def test_drive_term_at_t0(self):
        cfg = resolve_drive(cnot_cfg())
        h0 = build_hamiltonian_lab(cfg)(0.0)
        drive = h0 - static_hamiltonian(cfg)
        b = cfg.drive_energy
        expected = -b * (embed_pauli("x", 0, 2) + embed_pauli("x", 1, 2))
        np.testing.assert_allclose(drive, expected, atol=1e-12)

    def test_toffoli_uncoupled_spectrum(self):
        # g = 2, B = (0.1, 0.2, 0.4) T -> E = (11.5767636, 23.1535272,
        # 46.3070544); the three-spin chain carries a negative Zeeman sign,
        # so the diagonal entries are -(+-E1 +-E2 +-E3).
        cfg = DeviceConfig(gate="toffoli", b_fields=(0.1, 0.2, 0.4), b_ac=0.0,
                           exchange=(0.0, 0.0), drive_frequency=0.0)
        h = build_hamiltonian_lab(cfg)(0.0)
        e = (11.5767636, 23.1535272, 46.3070544)
        expected = sorted(-(s1 * e[0] + s2 * e[1] + s3 * e[2])
                          for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), expected,
                                   atol=1e-9)

    def test_hermitian_at_random_times(self, rng):
        for cfg in (resolve_drive(cnot_cfg()),
                    resolve_drive(toffoli_config(0.1, 0.3, j12=0.42, j23=0.42,
                                                 b_ac=0.004))):
            h = build_hamiltonian_lab(cfg)
            for t in rng.uniform(0.0, 50.0, size=20):
                assert is_hermitian(h(t), tol=1e-12)

    def test_unresolved_drive_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian_lab(cnot_cfg())


class TestRwaHamiltonian:
    def test_zero_drive_zero_frequency_matches_lab(self):
        cfg = cnot_cfg(b_ac=0.0, drive_frequency=0.0)
        np.testing.assert_allclose(build_hamiltonian_rwa(cfg),
                                   build_hamiltonian_lab(cfg)(0.0), atol=1e-12)

    def test_linear_in_drive_amplitude(self):
        base = resolve_drive(cnot_cfg())
        doubled = cnot_cfg(b_ac=2 * base.b_ac,
                           drive_frequency=base.drive_frequency)
        diff = build_hamiltonian_rwa(doubled) - build_hamiltonian_rwa(base)
        b = base.drive_energy
        expected = -b * (embed_pauli("x", 0, 2) + embed_pauli("x", 1, 2))
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    def test_resonant_level_scheme(self):
        # At the drive resolved on the uu <-> ud transition, those two
        # levels are degenerate in the rotating frame and split by the
        # drive into a pair separated by the Rabi energy.
        cfg = resolve_drive(cnot_cfg(b_fields=(0.3, 0.1)))
        h = build_hamiltonian_rwa(cfg)
        cfg0 = cnot_cfg(b_fields=(0.3, 0.1), b_ac=0.0,
                        drive_frequency=cfg.drive_frequency)
        h0 = build_hamiltonian_rwa(cfg0)
        eig0 = np.linalg.eigvalsh(h0)
        gaps = np.diff(np.sort(eig0))
        assert gaps.min() < 1e-6  # the driven pair is degenerate at B_ac = 0
        eig = np.linalg.eigvalsh(h)
        split = np.diff(np.sort(eig)).min()
        assert split == pytest.approx(2 * cfg.drive_energy, rel=0.05)


def on_qubits(ops: dict, n: int) -> np.ndarray:
    """Tensor product with ops[q] on qubit q and identity elsewhere."""
    return reduce(np.kron, [ops.get(q, np.eye(2, dtype=complex)) for q in range(n)])


def pauli_sum(axis: str, n: int) -> np.ndarray:
    return sum(on_qubits({q: PAULI_2X2[axis]}, n) for q in range(n))


class TestHamiltonianTerms:
    @pytest.mark.filterwarnings("ignore:(cnot|toffoli) expects")
    @pytest.mark.parametrize("gate, exchange", [("cnot", (0.42,)),
                                                ("toffoli", (0.42, 0.17))])
    def test_exchange_term_at_zero_field(self, gate, exchange):
        n = len(exchange) + 1
        cfg = DeviceConfig(gate=gate, b_fields=(0.0,) * n, b_ac=0.0,
                           exchange=exchange)
        expected = sum(j * on_qubits({bond: PAULI_2X2[a], bond + 1: PAULI_2X2[a]}, n)
                       for bond, j in enumerate(exchange) for a in "xyz")
        np.testing.assert_allclose(static_hamiltonian(cfg), expected,
                                   rtol=0, atol=1e-14)

    def test_toffoli_rotating_frame_shift_and_drive(self):
        cfg = resolve_drive(toffoli_config(0.1, 0.3, j12=0.42, j23=0.31,
                                           b_ac=0.004))
        omega = float(cfg.drive_frequency)
        expected = (omega / 2) * pauli_sum("z", 3) - cfg.drive_energy * pauli_sum("x", 3)
        np.testing.assert_allclose(
            build_hamiltonian_rwa(cfg) - static_hamiltonian(cfg), expected,
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg", [
        cnot_config(0.4, 0.6, j=0.0, b_ac=0.004),
        toffoli_config(0.1, 0.3, j12=0.0, j23=0.0, b_ac=0.004),
    ])
    def test_basis_zeeman_is_uncoupled_diagonal(self, cfg):
        h = static_hamiltonian(cfg)
        np.testing.assert_allclose(_basis_zeeman(cfg), np.diagonal(h).real,
                                   rtol=0, atol=1e-12)
        assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0
        # label-by-label reference, summed in the same order as the builder
        reference = np.zeros(cfg.dim)
        for idx in range(cfg.dim):
            label = index_to_label(idx, cfg.n_qubits)
            for q, e in enumerate(cfg.zeeman_energies):
                reference[idx] += cfg.layout.zeeman_sign * e * (1.0 if label[q] == "u" else -1.0)
        np.testing.assert_array_equal(_basis_zeeman(cfg), reference)


def spin_hamiltonian_by_embedding(cfg, shift=0.0):
    """The chain Hamiltonian summed term by term from `embed_pauli`, in the
    order the builders state: exchange bond by bond (x, y, z), then Zeeman."""
    n = cfg.n_qubits
    h = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for bond, j in enumerate(cfg.exchange):
        for axis in "xyz":
            h += j * (embed_pauli(axis, bond, n) @ embed_pauli(axis, bond + 1, n))
    for q, e in enumerate(cfg.zeeman_energies):
        h += (cfg.layout.zeeman_sign * e + shift) * embed_pauli("z", q, n)
    return h


class TestCachedTerms:
    @pytest.mark.parametrize("cfg", [
        cnot_config(1.0, 0.5, j=0.42, b_ac=0.004),
        cnot_config(0.008, 0.02, j=0.0042, b_ac=4e-5, g=G_GAAS),
        toffoli_config(0.25, 0.45, j12=0.42, j23=0.42, b_ac=0.004),
        toffoli_config(0.1, 0.3, j12=0.42, j23=0.31, b_ac=0.004, g=G_GAAS),
    ], ids=["cnot", "cnot-gaas", "toffoli", "toffoli-gaas"])
    def test_hamiltonians_match_the_embedded_build_bit_for_bit(self, cfg):
        cfg = resolve_drive(cfg)
        n, omega, b = cfg.n_qubits, float(cfg.drive_frequency), cfg.drive_energy
        drive = {axis: sum(embed_pauli(axis, q, n) for q in range(n)) for axis in "xy"}
        static = spin_hamiltonian_by_embedding(cfg)
        rwa = spin_hamiltonian_by_embedding(cfg, omega / 2.0)
        rwa -= b * drive["x"]
        t = 0.37
        lab = static - b * (np.cos(omega * t) * drive["x"] - np.sin(omega * t) * drive["y"])
        for got, want in ((static_hamiltonian(cfg), static), (build_hamiltonian_rwa(cfg), rwa),
                          (build_hamiltonian_lab(cfg)(t), lab)):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()      # signed zeros too


class TestResonance:
    def test_bare_gap_matches_double_zeeman(self):
        cfg = cnot_cfg(exchange=(0.0,), b_ac=0.0)
        gap = abs(resolve_drive(cfg).drive_frequency)
        assert gap == pytest.approx(2 * cfg.zeeman_energies[1], rel=1e-12)

    def test_toffoli_bare_gap(self):
        cfg = toffoli_config(0.1, 0.2, j12=0.0, j23=0.0, b_ac=0.0)
        gap = abs(resolve_drive(cfg).drive_frequency)
        assert gap == pytest.approx(2 * cfg.zeeman_energies[1], rel=1e-12)

    def test_auto_resolution_magnitude_and_sign(self):
        cnot = resolve_drive(cnot_cfg())
        eig = static_eigensystem(cnot)
        assert abs(cnot.drive_frequency) == pytest.approx(
            abs(eig.energy_of("uu") - eig.energy_of("ud")), rel=1e-12)
        assert cnot.drive_frequency < 0  # two-spin chain, positive Zeeman sign
        toff = resolve_drive(toffoli_config(0.1, 0.3, j12=0.42, j23=0.42,
                                            b_ac=0.004))
        eig3 = static_eigensystem(toff)
        assert abs(toff.drive_frequency) == pytest.approx(
            abs(eig3.energy_of("uuu") - eig3.energy_of("udu")), rel=1e-12)
        assert toff.drive_frequency > 0  # three-spin chain, negative Zeeman sign

    @pytest.mark.parametrize("cfg", [
        cnot_cfg(),
        toffoli_config(0.1, 0.3, j12=0.42, j23=0.42, b_ac=0.004),
        cnot_cfg(g=G_GAAS),
    ], ids=["cnot", "toffoli", "gaas"])
    def test_auto_resolution_is_the_signed_single_flip_gap(self, cfg):
        # the gate transition flips one spin, so the degenerate rotating
        # frame needs exactly the signed gap, with no magnetization factor
        eig = static_eigensystem(cfg)
        up, flipped = gate_transition(cfg)
        assert sum(a != b for a, b in zip(up, flipped)) == 1
        assert resolve_drive(cfg, eig).drive_frequency == \
            eig.energy_of(flipped) - eig.energy_of(up)

    def test_unlabeled_transition_rejected(self):
        eig = static_eigensystem(cnot_cfg())
        with pytest.raises(KeyError):
            eig.energy_of("xx")


class TestEnergyOrdering:
    def test_two_spin_chain_over_parameter_box(self):
        # uu > ud > du > dd across the high-field reference box
        for b_target in (0.5, 0.75, 1.0):
            for gradient in (0.1, 0.5, 1.0, 2.0):
                cfg = cnot_config(b_target, gradient, j=0.42, b_ac=0.004)
                eig = static_eigensystem(cfg)
                order = [eig.energy_of(s) for s in ("uu", "ud", "du", "dd")]
                assert order == sorted(order, reverse=True)

    def test_three_spin_chain_small_step_region(self):
        # ddd > udd > dud > ddu > uud > udu > duu > uuu; the middle link
        # (ddu above uud) requires B1 + B2 > B3, i.e. step < B_left, so the
        # full chain is checked in that region only.
        chain = ("ddd", "udd", "dud", "ddu", "uud", "udu", "duu", "uuu")
        for b_left in (0.2, 0.3):
            for gradient in (0.05, 0.1, 0.15):
                cfg = toffoli_config(b_left, gradient, j12=0.42, j23=0.42,
                                     b_ac=0.004)
                eig = static_eigensystem(cfg)
                order = [eig.energy_of(s) for s in chain]
                assert order == sorted(order, reverse=True)

    def test_three_spin_extremes_any_step(self):
        # ddd highest and uuu lowest hold over the whole reference box.
        for gradient in (0.1, 0.5, 1.0):
            cfg = toffoli_config(0.1, gradient, j12=0.42, j23=0.42, b_ac=0.004)
            eig = static_eigensystem(cfg)
            energies = {label: eig.energy_of(label) for label in eig.labels}
            assert max(energies, key=energies.get) == "ddd"
            assert min(energies, key=energies.get) == "uuu"


class TestConfigValidation:
    def test_gradient_shape_warning_cnot(self):
        with pytest.warns(UserWarning):
            DeviceConfig(gate="cnot", b_fields=(0.4, 1.0), b_ac=0.004,
                         exchange=(0.42,))

    def test_gradient_shape_warning_toffoli(self):
        with pytest.warns(UserWarning):
            DeviceConfig(gate="toffoli", b_fields=(0.3, 0.2, 0.1), b_ac=0.004,
                         exchange=(0.42, 0.42))

    def test_negative_drive_amplitude_rejected(self):
        with pytest.raises(ValueError):
            cnot_cfg(b_ac=-1e-3)

    def test_negative_exchange_rejected(self):
        with pytest.raises(ValueError):
            cnot_cfg(exchange=(-0.1,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["b_fields", "b_ac", "exchange", "g",
                                       "drive_frequency"])
    def test_non_finite_parameter_rejected(self, field, bad):
        value = {"b_fields": (1.0, bad), "exchange": (bad,)}.get(field, bad)
        with pytest.raises(ValueError, match="device parameters must be finite"):
            cnot_cfg(**{field: value})

    def test_wrong_field_count(self):
        with pytest.raises(ValueError):
            DeviceConfig(gate="cnot", b_fields=(1.0, 0.5, 0.1), b_ac=0.0,
                         exchange=(0.42,))


class TestFrameEquivalence:
    def test_lab_vs_rwa_populations(self):
        # weak drive: g mu B_ac = 0.02 * g mu delta B
        cfg = resolve_drive(cnot_config(0.05, 0.05, j=0.42, b_ac=0.001))
        h_rwa = build_hamiltonian_rwa(cfg)
        h_lab = build_hamiltonian_lab(cfg)

        b = cfg.drive_energy
        t_end = np.pi / (2 * b)  # one conditional flip
        for initial in ("uu", "du"):
            rho0 = basis_density(initial)
            traj_rwa = evolve(h_rwa, None, rho0, t_end, samples=60)
            traj_lab = evolve(h_lab, None, rho0, t_end, samples=60)
            pop_rwa = np.array([np.diagonal(s).real for s in traj_rwa.states])
            pop_lab = np.array([np.diagonal(s).real for s in traj_lab.states])
            assert np.abs(pop_rwa - pop_lab).max() <= 2e-2
