import numpy as np
import pytest

from qdgates.operators import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
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

from conftest import partial_trace_by_summation, random_density, random_hermitian


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_pair_is_diagonal_parity(self):
        np.testing.assert_allclose(kron(SIGMA_Z, SIGMA_Z),
                                   np.diag([1, -1, -1, 1]).astype(complex))

    def test_bit_flip_on_qubit0_maps_index_0_to_2(self):
        ket = kron(SIGMA_X, IDENTITY_2) @ basis_ket("uu")
        np.testing.assert_allclose(ket, basis_ket("du"))

    def test_associativity(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.abs(left - right).max() <= 1e-12


class TestEmbedPauli:
    def test_z_on_qubit0_of_two(self):
        np.testing.assert_allclose(embed_pauli("z", 0, 2),
                                   np.diag([1, 1, -1, -1]).astype(complex))

    def test_involution(self):
        op = embed_pauli("x", 1, 2)
        np.testing.assert_allclose(op @ op, np.eye(4), atol=1e-15)

    def test_three_qubit_shape_and_trace(self):
        op = embed_pauli("y", 2, 3)
        assert op.shape == (8, 8)
        assert abs(np.trace(op)) < 1e-15

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            embed_pauli("x", 2, 2)

    def test_shared_result_is_read_only(self):
        op = embed_pauli("z", 0, 2)
        with pytest.raises(ValueError):
            op += embed_pauli("x", 1, 2)
        np.testing.assert_array_equal(embed_pauli("z", 0, 2),
                                      np.diag([1, 1, -1, -1]).astype(complex))

    def test_different_qubits_commute(self):
        for n in (2, 3):
            for ax1 in "xyz":
                for ax2 in "xyz":
                    a = embed_pauli(ax1, 0, n)
                    b = embed_pauli(ax2, n - 1, n)
                    assert np.abs(a @ b - b @ a).max() < 1e-14

    def test_same_qubit_algebra(self):
        # sigma_x sigma_y = i sigma_z on the embedded qubit
        for q in range(3):
            x = embed_pauli("x", q, 3)
            y = embed_pauli("y", q, 3)
            z = embed_pauli("z", q, 3)
            np.testing.assert_allclose(x @ y, 1j * z, atol=1e-15)


class TestLabels:
    def test_round_trip(self):
        for n in (1, 2, 3):
            for i in range(1 << n):
                assert label_to_index(index_to_label(i, n)) == i

    def test_known_values(self):
        assert index_to_label(0, 2) == "uu"
        assert index_to_label(1, 2) == "ud"
        assert index_to_label(2, 2) == "du"
        assert index_to_label(3, 2) == "dd"
        assert label_to_index("udu") == 2

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            label_to_index("ux")


class TestEigensystem:
    def test_diagonal_input(self):
        eig = eigensystem(np.diag([1.0, 3.0]).astype(complex))
        np.testing.assert_allclose(eig.energies, [1.0, 3.0])

    def test_sigma_x_spectrum(self):
        eig = eigensystem(SIGMA_X)
        np.testing.assert_allclose(eig.energies, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for col, ref in ((0, minus), (1, plus)):
            vec = eig.vectors[:, col]
            phase = vec[np.argmax(np.abs(vec))]
            phase /= abs(phase)
            np.testing.assert_allclose(vec / phase, ref, atol=1e-12)

    def test_two_spin_diagonal_zeeman_spectrum(self):
        # g = 2, B = (1.0, 0.4) T: energies are +-(E1 +- E2) with
        # E1 = 115.767636 and E2 = 46.3070544 ueV (hand arithmetic).
        e1, e2 = 115.767636, 46.3070544
        h = e1 * embed_pauli("z", 0, 2) + e2 * embed_pauli("z", 1, 2)
        eig = eigensystem(h)
        expected = sorted([e1 + e2, e1 - e2, -e1 + e2, -e1 - e2])
        np.testing.assert_allclose(eig.energies, expected, atol=1e-9)

    def test_labels_form_permutation_for_weak_mixing(self):
        h = np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex)
        h[1, 2] = h[2, 1] = 0.05  # weak mixing keeps overlaps above 1/2
        eig = eigensystem(h)
        assert sorted(eig.labels) == ["dd", "du", "ud", "uu"]

    def test_reconstruction(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 8, scale=5.0)
            eig = eigensystem(h)
            rebuilt = eig.vectors @ np.diag(eig.energies) @ eig.vectors.conj().T
            norm = np.linalg.norm(h)
            assert np.abs(rebuilt - h).max() <= 1e-9 * max(norm, 1.0)

    def test_rejects_non_hermitian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            eigensystem(h)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_labels_match_the_per_column_rule(self, rng, dim):
        # diagonal levels plus a mixing term from weak to dominant, so that
        # some spectra label every level and, above two levels, some none
        counts = {"all": 0, "none": 0}
        for scale in (1e-3, 0.1, 0.5, 2.0, 50.0):
            for _ in range(20):
                h = np.diag(rng.normal(size=dim) * 3.0) + random_hermitian(rng, dim, scale)
                eig = eigensystem(h)
                assert eig.labels == labels_by_column(eig.vectors)
                counts["all"] += None not in eig.labels
                counts["none"] += set(eig.labels) == {None}
        # a two-level column always has an overlap of at least one half
        assert counts["all"] > 0 and (counts["none"] > 0 or dim == 2)


def labels_by_column(vectors):
    """Each column's label by the rule `eigensystem` states: the basis label
    of its largest overlap, or None unless that overlap exceeds one half."""
    n = len(vectors).bit_length() - 1
    labels = []
    for k in range(len(vectors)):
        overlaps = np.abs(vectors[:, k]) ** 2
        best = int(np.argmax(overlaps))
        labels.append(index_to_label(best, n) if overlaps[best] > 0.5 else None)
    return tuple(labels)


class TestPartialTrace:
    def test_product_state(self):
        rho = kron(basis_density("u"), basis_density("d"))
        np.testing.assert_allclose(partial_trace(rho, 0), basis_density("u"),
                                   atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, 1), basis_density("d"),
                                   atol=1e-14)

    def test_bell_state(self):
        ket = (basis_ket("uu") + basis_ket("dd")) / np.sqrt(2.0)
        rho = np.outer(ket, ket.conj())
        for q in (0, 1):
            np.testing.assert_allclose(partial_trace(rho, q), np.eye(2) / 2,
                                       atol=1e-14)

    def test_ghz_state_against_summation_oracle(self):
        ket = (basis_ket("uuu") + basis_ket("ddd")) / np.sqrt(2.0)
        rho = np.outer(ket, ket.conj())
        for q in range(3):
            oracle = partial_trace_by_summation(rho, q, 3)
            np.testing.assert_allclose(partial_trace(rho, q), oracle, atol=1e-14)
            np.testing.assert_allclose(oracle, np.eye(2) / 2, atol=1e-14)

    def test_random_states_match_oracle_and_stay_valid(self, rng):
        for n in (2, 3):
            for _ in range(10):
                rho = random_density(rng, 1 << n)
                for q in range(n):
                    red = partial_trace(rho, q)
                    oracle = partial_trace_by_summation(rho, q, n)
                    np.testing.assert_allclose(red, oracle, atol=1e-12)
                    check_density_matrix(red)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, 2)


class TestDensityMatrixChecks:
    def test_valid_state_passes(self, rng):
        check_density_matrix(random_density(rng, 8))

    def test_bad_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2))

    def test_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            check_density_matrix(rho)
