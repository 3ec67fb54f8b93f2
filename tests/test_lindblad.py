import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from qdgates import lindblad
from qdgates.analysis import (SweepTemplate, Thresholds, coherent_model, collapse_model,
                              coherent_point, evaluate_point, flip_time)
from qdgates.calibration import HIGH_ROW, LOW_ROW
from qdgates.device import (
    build_hamiltonian_rwa,
    cnot_config,
    resolve_drive,
    static_eigensystem,
)
from qdgates.lindblad import (
    _THETA13,
    EIG_FLOOR,
    SolverError,
    _check_physical,
    _expm,
    _from_real,
    _hermitized,
    _to_real,
    evolve,
    expm_oracle,
    lindblad_rhs,
    liouvillian,
    noise_free_part,
    propagate,
)
from qdgates.noise import (
    RATE_FLOOR,
    CollapseSet,
    NoiseConfig,
    build_collapse_set,
)
from qdgates.operators import SIGMA_X, SIGMA_Z, basis_density, index_to_label, kron

from conftest import (
    eigenvector_reference,
    random_density,
    random_hermitian,
    random_noisy_setup,
)

TOFFOLI_ROW = SweepTemplate(gate="toffoli", fixed_field=0.25, b_ac=0.004,
                            exchange=(0.42, 0.42))


def flip_step_generator(row: SweepTemplate, gradient: float) -> np.ndarray:
    """L t_flip at one grid point: the matrix that `evaluate_point` exponentiates."""
    cfg, eig, h = coherent_model(row.config(gradient))
    return liouvillian(h, collapse_model(cfg, eig, NoiseConfig())) * flip_time(cfg, h_rwa=h)


def exceptional_point_setup() -> tuple:
    """Driven decaying two-level system at Omega = gamma / 4 (gamma = 1),
    where two eigenvalues of L coalesce: one decay row 0 -> 1 at rate 1 in
    the computational basis."""
    decay = CollapseSet(("hyperfine",), ("-",), np.array([0]), np.array([1]), np.array([1.0]),
                        np.eye(2))
    return 0.5 * 0.25 * SIGMA_X, decay


def random_rate_table(rng, d: int, dephasing: bool) -> CollapseSet:
    """A rate table on a random unitary basis (QR of a complex Gaussian) with
    a row for every ordered level pair: rates exactly 0, below RATE_FLOOR or
    of order one, and an optional dephasing row."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    basis = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    src, dst = np.nonzero(~np.eye(d, dtype=bool))
    rate = rng.choice([0.0, 0.1 * RATE_FLOOR, 1.0], size=len(src)) * rng.uniform(size=len(src))
    channel, sign = ("hyperfine",) * len(src), ("+",) * len(src)
    if dephasing:
        channel, sign = channel + ("dephasing",), sign + ("",)
        src, dst = np.append(src, -1), np.append(dst, -1)
        rate = np.append(rate, rng.uniform(0.1, 1.0))
    return CollapseSet(channel, sign, src, dst, rate, basis)


def small_norm_generator() -> np.ndarray:
    """A complex 6x6 matrix with 1-norm below theta_13, so `_expm` does not scale."""
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a *= 0.9 * _THETA13 / np.abs(a).sum(axis=0).max()
    return a


EXPM_CASES = (
    [pytest.param(functools.partial(flip_step_generator, TOFFOLI_ROW, g),
                  id=f"toffoli-{g:.3g}T") for g in np.linspace(0.15, 2.25, 8)]
    + [pytest.param(functools.partial(flip_step_generator, HIGH_ROW, g),
                    id=f"cnot-{g:.3g}T") for g in np.geomspace(0.005, 2.5, 8)]
    + [pytest.param(functools.partial(flip_step_generator, LOW_ROW, g),
                    id=f"low-row-{g:.3g}T") for g in np.geomspace(0.003, 0.1, 6)]
    + [pytest.param(lambda: np.zeros((4, 4), dtype=complex), id="zero"),
       pytest.param(small_norm_generator, id="unscaled"),
       pytest.param(lambda: liouvillian(*exceptional_point_setup()) * 20.0,
                    id="exceptional-point")]
)


class TestRhs:
    def test_stationary_without_hamiltonian(self):
        rho = basis_density("ud")
        np.testing.assert_allclose(lindblad_rhs(np.zeros((4, 4)), None, rho),
                                   np.zeros((4, 4)), atol=1e-15)

    def test_identity_state_commutes(self, rng):
        h = random_hermitian(rng, 4, scale=3.0)
        rho = np.eye(4, dtype=complex) / 4.0
        np.testing.assert_allclose(lindblad_rhs(h, None, rho),
                                   np.zeros((4, 4)), atol=1e-14)

    def test_amplitude_damping_algebra(self):
        # C = sqrt(gamma) |0><1| on rho = |1><1| gives
        # drho/dt = gamma (|0><0| - |1><1|)  (two-level algebra by hand)
        gamma = 0.37
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = math.sqrt(gamma)
        rho = np.diag([0.0, 1.0]).astype(complex)
        expected = gamma * np.diag([1.0, -1.0]).astype(complex)
        np.testing.assert_allclose(lindblad_rhs(np.zeros((2, 2)), [c], rho),
                                   expected, atol=1e-15)

    def test_traceless_and_hermitian(self, rng):
        cfg = resolve_drive(cnot_config(0.5, 0.3, j=0.42, b_ac=0.004))
        collapse = build_collapse_set(static_eigensystem(cfg), NoiseConfig())
        h = build_hamiltonian_rwa(cfg)
        for _ in range(5):
            rho = random_density(rng, 4)
            out = lindblad_rhs(h, collapse, rho)
            assert abs(np.trace(out)) < 1e-10
            assert np.abs(out - out.conj().T).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_rhs(np.zeros((2, 2)), None, np.eye(4) / 4)


class TestLiouvillian:
    def test_matches_rhs_on_random_states(self, rng):
        # definitional consistency: unvectorized L vec(rho) == lindblad_rhs
        cfg = resolve_drive(cnot_config(0.5, 0.3, j=0.42, b_ac=0.004))
        collapse = build_collapse_set(static_eigensystem(cfg), NoiseConfig())
        h = build_hamiltonian_rwa(cfg)
        lv = liouvillian(h, collapse)
        scale = max(np.abs(lv).max(), 1.0)
        for _ in range(50):
            rho = random_density(rng, 4)
            via_l = (lv @ rho.ravel()).reshape(4, 4)
            direct = lindblad_rhs(h, collapse, rho)
            assert np.abs(via_l - direct).max() <= 1e-12 * scale

    def test_batched_assembly_matches_per_operator_krons(self, rng):
        # complex collapse operators, so a dropped conjugate shows; the
        # reference sums the three Kronecker products operator by operator
        d = 4
        h = random_hermitian(rng, d)
        ops = [random_hermitian(rng, d) + 1j * random_hermitian(rng, d)
               for _ in range(5)]
        eye = np.eye(d)
        ref = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for c in ops:
            cdc = c.conj().T @ c
            ref += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
        np.testing.assert_allclose(liouvillian(h, ops), ref, rtol=0, atol=1e-13)


def hermitian_basis(d: int) -> np.ndarray:
    """Dense T: its columns are vec of the Hermitian basis that the real
    coordinates use, |k><k|, then |k><l| + |l><k| and i|k><l| - i|l><k| for
    k < l in row-major order."""
    pairs = [(k, l) for k in range(d) for l in range(k + 1, d)]
    cols = []
    for entries in ([[(k, k, 1.0)] for k in range(d)],
                    [[(k, l, 1.0), (l, k, 1.0)] for k, l in pairs],
                    [[(k, l, 1j), (l, k, -1j)] for k, l in pairs]):
        for group in entries:
            e = np.zeros((d, d), dtype=complex)
            for i, j, v in group:
                e[i, j] = v
            cols.append(e.ravel())
    return np.array(cols).T


class TestRealCoordinates:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(d=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1),
           dephasing=st.booleans())
    def test_generator_is_l_in_the_collapse_basis(self, d, seed, dephasing):
        # vec(V rho V^+) = (V (x) conj(V)) vec(rho), so in the basis V the
        # dense L of the `matrices` view is W^+ L W with W = V (x) conj(V)
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, d)
        collapse = random_rate_table(rng, d, dephasing)
        part = noise_free_part(h, collapse.basis, [np.eye(d) / d])
        generator, v = part.generator(collapse), part.basis
        assert v is collapse.basis
        w = np.kron(v, v.conj())
        t = hermitian_basis(d)
        lv = liouvillian(h, collapse)
        dense = np.linalg.solve(t, w.conj().T @ lv @ w @ t)
        tol = 1e-12 * np.abs(lv).max()
        assert np.abs(dense.imag).max() <= tol
        assert np.abs(generator - dense.real).max() <= tol
        rho = random_hermitian(rng, d)
        coords = _to_real(rho)
        assert np.array_equal(_from_real(coords, d), rho)
        assert np.abs(t @ coords - rho.ravel()).max() <= 1e-15 * np.abs(rho).max()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(d=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1),
           dephasing=st.booleans(), scale=st.floats(0.0, 1e3))
    def test_generator_is_affine_in_the_rates(self, d, seed, dephasing, scale):
        # G(a r) - G(0) = a (G(r) - G(0)), and G(0) is the noise-free part
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, d)
        collapse = random_rate_table(rng, d, dephasing)
        part = noise_free_part(h, collapse.basis, [np.eye(d) / d])

        def generator(factor):
            return part.generator(replace(collapse, rate=factor * collapse.rate))

        base = generator(0.0)
        assert np.array_equal(base, part.hamiltonian)
        tol = 1e-12 * np.abs(liouvillian(h, replace(collapse, rate=scale * collapse.rate))).max()
        assert np.abs((generator(scale) - base) - scale * (generator(1.0) - base)).max() <= tol

    def test_rate_table_of_another_basis_is_rejected(self, rng):
        collapse = random_rate_table(rng, 4, True)
        part = noise_free_part(random_hermitian(rng, 4), np.eye(4), [np.eye(4) / 4])
        with pytest.raises(ValueError, match="collapse basis"):
            part.propagate(collapse, 1.0)

    def test_non_hermitian_hamiltonian_is_a_generator_error(self, rng):
        h = random_hermitian(rng, 4)
        h[0, 1] += 1e-3
        with pytest.raises(SolverError, match="generator"):
            propagate(h, None, [np.eye(4) / 4], 1.0)

    def test_non_hermitian_hamiltonian_fails_the_dense_references(self):
        # conj(K) stands in for the transposes: without the check, this h
        # gave a Hermitian state of trace 1.11 at t = 1
        h = np.diag([1.0, -1.0]).astype(complex)
        h[0, 1] = 0.3
        with pytest.raises(SolverError, match="generator"):
            expm_oracle(h, None, basis_density("u"), 1.0)
        with pytest.raises(SolverError, match="generator"):
            evolve(h, None, basis_density("u"), 1.0)

    def test_non_unitary_basis_is_rejected(self, rng):
        basis = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        basis[:, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            CollapseSet((), (), np.empty(0, int), np.empty(0, int), np.empty(0), basis)
        with pytest.raises(ValueError, match="not unitary"):
            CollapseSet((), (), np.empty(0, int), np.empty(0, int), np.empty(0),
                        np.eye(4)[:, :3])

    def test_basis_of_another_dimension_is_rejected(self, rng):
        with pytest.raises(ValueError, match="collapse basis"):
            propagate(random_hermitian(rng, 4), exceptional_point_setup()[1],
                      [np.eye(4) / 4], 1.0)

    def test_non_hermitian_initial_state_is_rejected(self, rng):
        rho = random_density(rng, 4)
        rho[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            propagate(random_hermitian(rng, 4), None, [rho], 1.0)

    def test_physicality_floor(self):
        ok = np.diag([1.0 - 0.5 * EIG_FLOOR, 0.5 * EIG_FLOOR]).astype(complex)
        _check_physical(ok[None], 2.5)
        bad = np.diag([1.0 - 2.0 * EIG_FLOOR, 2.0 * EIG_FLOOR]).astype(complex)
        with pytest.raises(SolverError, match="propagation to t = 2.5: least eigenvalue"):
            _check_physical(bad[None], 2.5)
        # NaN compares False with any floor; the check must still fail
        with pytest.raises(SolverError, match="eigenvalue nan"):
            _check_physical(np.full((1, 2, 2), np.nan, dtype=complex), 2.5)


class TestPropagate:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gate=st.sampled_from(["cnot", "toffoli"]),
           seed=st.integers(0, 2**32 - 1),
           t_end=st.floats(0.2, 3.0))
    def test_matches_oracle_and_rk45_and_is_physical(self, gate, seed, t_end):
        rng = np.random.default_rng(seed)
        h, collapse, cfg = random_noisy_setup(rng, gate)
        labels = [index_to_label(i, cfg.n_qubits) for i in range(cfg.dim)]
        rho0s = [basis_density(s) for s in labels]
        states = propagate(h, collapse, rho0s, t_end, 3)
        assert states.shape == (cfg.dim, 3, cfg.dim, cfg.dim)
        for k, t in ((1, 0.5 * t_end), (2, t_end)):
            for reference in (expm_oracle, eigenvector_reference):
                assert np.abs(states[:, k] - reference(h, collapse, rho0s, t)).max() <= 1e-10
        for row in states:
            for rho in row[1:]:
                assert abs(np.trace(rho) - 1.0) <= 1e-8
                assert np.abs(rho - rho.conj().T).max() <= 1e-8
                assert np.linalg.eigvalsh(rho).min() >= -1e-9
        k = int(rng.integers(cfg.dim))
        traj = evolve(h, collapse, rho0s[k], t_end, samples=2)
        assert np.abs(traj.states[-1] - states[k, -1]).max() <= 1e-6

    def test_exact_at_exceptional_point(self):
        # driven decaying two-level system at Omega = gamma / 4, where two
        # eigenvalues of L coalesce and V is nearly singular: an
        # eigenvector route loses accuracy here, the stepped expm must not
        h, collapse = exceptional_point_setup()
        _, v = np.linalg.eig(liouvillian(h, collapse))
        assert np.linalg.cond(v) > 1e5
        rho0 = basis_density("u")
        states = propagate(h, collapse, [rho0], 20.0, 41)[0]     # steps of 0.5
        for k, t in ((1, 0.5), (6, 3.0), (40, 20.0)):
            np.testing.assert_allclose(states[k], expm_oracle(h, collapse, rho0, t),
                                       rtol=0, atol=1e-14)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(d=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1),
           dephasing=st.booleans(), t_end=st.floats(0.1, 2.0))
    def test_any_rate_table_matches_the_oracle(self, d, seed, dephasing, t_end):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, d)
        collapse = random_rate_table(rng, d, dephasing)
        rho0s = np.array([random_density(rng, d) for _ in range(3)])
        states = propagate(h, collapse, rho0s, t_end, 3)
        for k, t in ((1, 0.5 * t_end), (2, t_end)):
            assert np.abs(states[:, k] - expm_oracle(h, collapse, rho0s, t)).max() <= 1e-12

    def test_run_path_forms_no_dense_operator(self, monkeypatch):
        # the dense L and the dyads are the references' route only, so
        # `expm_oracle` shares no generator code with what it checks
        def off_run_path(*args):
            raise AssertionError("dense route called on the run path")
        monkeypatch.setattr(lindblad, "liouvillian", off_run_path)
        monkeypatch.setattr(CollapseSet, "matrices", property(off_run_path))
        for row, gradient in ((HIGH_ROW, 1.0), (LOW_ROW, 0.1441), (TOFFOLI_ROW, 1.0)):
            point = evaluate_point(coherent_point(row, gradient), NoiseConfig(), Thresholds())
            assert point.p_up.shape[0] == row.config(gradient).dim

    def test_time_zero_returns_initial_states(self, rng):
        h = random_hermitian(rng, 4)
        rho0s = [random_density(rng, 4) for _ in range(3)]
        states = propagate(h, None, rho0s, 0.0)
        np.testing.assert_allclose(states[:, -1], rho0s, atol=1e-13)

    def test_nan_state_fails_the_hermiticity_check(self):
        # NaN compares False with any tolerance; the check must still fail
        with pytest.raises(SolverError, match="Hermiticity"):
            _hermitized(np.full((1, 2, 2), np.nan, dtype=complex))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            propagate(lambda t: np.zeros((2, 2)), None, [np.eye(2) / 2], 1.0)
        with pytest.raises(ValueError):
            propagate(np.zeros((2, 2)), None, [np.eye(4) / 4], 1.0)
        with pytest.raises(ValueError):
            propagate(np.zeros((2, 2)), None, [np.eye(2) / 2], -1.0)
        with pytest.raises(ValueError):
            propagate(np.zeros((2, 2)), None, [np.eye(2) / 2], 1.0, 1)


class TestExpmOracle:
    @pytest.mark.parametrize("make", EXPM_CASES)
    def test_pade13_matches_scipy_expm(self, make):
        # `propagate` steps with the numpy `_expm`; the oracle stays scipy's
        a = make()
        assert np.abs(_expm(a) - scipy_expm(a)).max() <= 1e-10

    def test_time_zero_is_identity(self, rng):
        rho = random_density(rng, 4)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(expm_oracle(h, None, rho, 0.0), rho,
                                   atol=1e-14)

    def test_stack_matches_single_states(self, rng):
        h, collapse, cfg = random_noisy_setup(rng, "cnot")
        rho0s = np.array([random_density(rng, cfg.dim) for _ in range(3)])
        stacked = expm_oracle(h, collapse, rho0s, 0.8)
        assert stacked.shape == rho0s.shape
        for rho0, rho in zip(rho0s, stacked):
            single = expm_oracle(h, collapse, rho0, 0.8)
            assert single.shape == rho0.shape
            np.testing.assert_allclose(rho, single, rtol=0, atol=1e-15)

    def test_rejects_callable_hamiltonian(self):
        with pytest.raises(ValueError):
            expm_oracle(lambda t: np.zeros((2, 2)), None, np.eye(2) / 2, 1.0)

    def test_free_precession_phase(self):
        # H = (gap/2) sigma_z on |+><+|: coherence rotates at the gap
        # frequency, populations stay put.
        gap = 3.0
        h = 0.5 * gap * SIGMA_Z
        plus = np.full((2, 2), 0.5, dtype=complex)
        t = 0.77
        rho_t = expm_oracle(h, None, plus, t)
        assert rho_t[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert rho_t[0, 1] == pytest.approx(0.5 * np.exp(-1j * gap * t), abs=1e-12)


class TestEvolve:
    def test_free_precession_populations_constant(self):
        gap = 5.0
        h = 0.5 * gap * SIGMA_Z
        plus = np.full((2, 2), 0.5, dtype=complex)
        traj = evolve(h, None, plus, 2.0, samples=50)
        pops = np.array([np.diagonal(s).real for s in traj.states])
        np.testing.assert_allclose(pops, 0.5, atol=1e-9)
        # off-diagonal phase rotates at the gap frequency
        coher = np.array([s[0, 1] for s in traj.states])
        np.testing.assert_allclose(coher, 0.5 * np.exp(-1j * gap * traj.times),
                                   atol=1e-8)

    def test_pure_dephasing_rate_fixed_by_oracle(self):
        # collective sigma_z x sigma_z dephasing on |+>|u>: the qubit-0
        # coherence decays as exp(-t / t2_star); the exponent is fixed by
        # the superoperator oracle, which the trajectory must match.
        t2 = 40.0
        c = math.sqrt(0.5 / t2) * kron(SIGMA_Z, SIGMA_Z)
        plus = np.full((2, 2), 0.5, dtype=complex)
        rho0 = kron(plus, basis_density("u"))
        t_end = 30.0
        traj = evolve(np.zeros((4, 4)), [c], rho0, t_end, samples=40)
        for i in (10, 25, 39):
            t = traj.times[i]
            ref = expm_oracle(np.zeros((4, 4)), [c], rho0, t)
            assert np.abs(traj.states[i] - ref).max() <= 1e-6
            assert traj.states[i][0, 2] == pytest.approx(
                0.5 * math.exp(-t / t2), abs=1e-8)

    def test_resonant_rabi_pi_time(self):
        # two-level flop: P_up minimum at t = pi / (2 b) for H = -b sigma_x
        b = 0.8
        h = -b * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        traj = evolve(h, None, basis_density("u"), math.pi / (2 * b), samples=200)
        assert traj.states[-1][0, 0].real == pytest.approx(0.0, abs=1e-8)
        ref = expm_oracle(h, None, basis_density("u"), traj.times[-1])
        assert np.abs(traj.states[-1] - ref).max() <= 1e-8

    def test_oracle_equivalence_noisy_cnot(self):
        cfg = resolve_drive(cnot_config(1.0, 1.5, j=0.42, b_ac=0.004))
        collapse = build_collapse_set(static_eigensystem(cfg), NoiseConfig())
        h = build_hamiltonian_rwa(cfg)
        rho0 = basis_density("dd")
        traj = evolve(h, collapse, rho0, 3.0, samples=100)
        for i in (20, 60, 99):
            ref = expm_oracle(h, collapse, rho0, traj.times[i])
            assert np.abs(traj.states[i] - ref).max() <= 1e-6

    def test_trace_and_positivity(self):
        cfg = resolve_drive(cnot_config(1.0, 2.0, j=0.42, b_ac=0.004))
        collapse = build_collapse_set(static_eigensystem(cfg), NoiseConfig())
        h = build_hamiltonian_rwa(cfg)
        traj = evolve(h, collapse, basis_density("du"), 3.0, samples=60)
        assert np.abs(traj.trace_error()).max() <= 1e-8
        for state in traj.states:
            assert np.linalg.eigvalsh(state).min() >= -1e-7

    def test_thermal_stationary_state(self):
        # one detailed-balance pair drives the two-level populations to the
        # Boltzmann ratio exp(-omega/t_k)
        omega, t_k = 10.0, 10.0
        gamma_down = 0.12
        gamma_up = gamma_down * math.exp(-omega / t_k)
        h = 0.5 * omega * SIGMA_Z
        lower = np.zeros((2, 2), dtype=complex)
        lower[1, 0] = math.sqrt(gamma_down)   # |down><up|, drains the upper level
        raise_ = np.zeros((2, 2), dtype=complex)
        raise_[0, 1] = math.sqrt(gamma_up)
        t_end = 50.0 / min(gamma_up, gamma_down)
        traj = evolve(h, [lower, raise_], basis_density("u"), t_end, samples=50)
        final = traj.states[-1]
        ratio = final[0, 0].real / final[1, 1].real
        assert ratio == pytest.approx(math.exp(-omega / t_k), abs=1e-6)

    def test_convergence_order_at_least_four(self):
        # forced-step integration against the oracle: halving the step must
        # shrink the error by at least 2^4
        from scipy.integrate import solve_ivp

        h = -0.8 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        lv = liouvillian(h, None)
        rho0 = basis_density("u")
        y0 = np.concatenate((rho0.real.ravel(), rho0.imag.ravel()))
        lr = np.block([[lv.real, -lv.imag], [lv.imag, lv.real]])
        t_end = 2.0
        ref = expm_oracle(h, None, rho0, t_end)

        def final_error(step):
            res = solve_ivp(lambda t, y: lr @ y, (0.0, t_end), y0,
                            method="RK45", max_step=step, rtol=1e-2, atol=1e-12)
            y = res.y[:, -1]
            rho = (y[:4] + 1j * y[4:]).reshape(2, 2)
            return np.abs(rho - ref).max()

        e_coarse = final_error(0.1)
        e_fine = final_error(0.05)
        order = math.log2(e_coarse / e_fine)
        assert order >= 4.0

    def test_tolerance_refinement_improves_oracle_agreement(self):
        cfg = resolve_drive(cnot_config(0.5, 0.3, j=0.42, b_ac=0.004))
        collapse = build_collapse_set(static_eigensystem(cfg), NoiseConfig())
        h = build_hamiltonian_rwa(cfg)
        rho0 = basis_density("uu")
        ref = expm_oracle(h, collapse, rho0, 2.0)
        errors = []
        for rtol, atol in ((1e-5, 1e-7), (1e-8, 1e-10)):
            traj = evolve(h, collapse, rho0, 2.0, rtol=rtol, atol=atol, samples=10)
            errors.append(np.abs(traj.states[-1] - ref).max())
        assert errors[1] < errors[0]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            evolve(np.zeros((2, 2)), None, np.eye(2) / 2, -1.0)
        with pytest.raises(ValueError):
            evolve(np.zeros((2, 2)), None, np.eye(2) / 2, 1.0, rtol=-1e-8)
