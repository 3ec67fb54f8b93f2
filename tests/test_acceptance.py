"""Acceptance suite: one test per exit criterion, slowest criteria last.

Each test prints a single PASS line when it completes (visible with
pytest -s); the test name carries the criterion number so a plain
`pytest -v` run also yields one line per criterion.
"""
import math

import numpy as np

from qdgates import analysis
from qdgates.analysis import (
    SweepTemplate,
    Thresholds,
    coherent_point,
    evaluate_point,
    find_boundary,
    flip_time,
    reclassify,
    run_sweep,
)
from qdgates.device import (
    build_hamiltonian_lab,
    build_hamiltonian_rwa,
    cnot_config,
    resolve_drive,
    static_eigensystem,
    toffoli_config,
)
from qdgates.lindblad import Trajectory, evolve, expm_oracle, propagate
from qdgates.noise import (
    NoiseConfig,
    build_collapse_set,
    hyperfine_rate,
    phonon_rate,
)
from qdgates.operators import SIGMA_Z, basis_density, index_to_label, label_to_index

from qdgates.calibration import LOW_ROW

from conftest import random_noisy_setup


def assert_physical(traj, trace_tol=1e-8, herm_tol=1e-8, eig_floor=-1e-7):
    assert np.abs(traj.trace_error()).max() <= trace_tol
    for state in traj.states:
        assert np.abs(state - state.conj().T).max() <= herm_tol
        assert np.linalg.eigvalsh(state).min() >= eig_floor


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(42)
    t_end = 3.0
    for gate, count in (("cnot", 5), ("toffoli", 3)):
        for _ in range(count):
            h, collapse, cfg = random_noisy_setup(rng, gate)
            rho0 = basis_density(index_to_label(int(rng.integers(cfg.dim)),
                                                cfg.n_qubits))
            traj = evolve(h, collapse, rho0, t_end, samples=200)
            assert_physical(traj)
            worst = 0.0
            for i in np.linspace(19, 199, 10, dtype=int):
                ref = expm_oracle(h, collapse, rho0, traj.times[i])
                worst = max(worst, np.abs(traj.states[i] - ref).max())
            assert worst <= 1e-6, f"{gate} deviated by {worst}"
    print("\n[criterion 1] PASS - evolve matches the exponential oracle to 1e-6 "
          "on 5 cnot + 3 toffoli noisy configs")


def test_criterion_02_physicality():
    cases = (
        resolve_drive(cnot_config(1.0, 2.0, j=0.42, b_ac=0.004)),
        resolve_drive(toffoli_config(0.25, 1.0, j12=0.42, j23=0.42, b_ac=0.004)),
    )
    for cfg in cases:
        collapse = build_collapse_set(static_eigensystem(cfg), NoiseConfig())
        h = build_hamiltonian_rwa(cfg)
        t_flip = flip_time(cfg)
        times = np.linspace(0.0, t_flip, 500)
        for initial in ("u" * cfg.n_qubits, "d" * cfg.n_qubits):
            states = propagate(h, collapse, [basis_density(initial)], t_flip, 500)[0]
            assert_physical(Trajectory(times=times, states=states))
    print("\n[criterion 2] PASS - trace within 1e-8, Hermiticity within 1e-8, "
          "eigenvalues above -1e-7 on exactly propagated noisy runs of both gates")


def test_criterion_03_detailed_balance():
    rng = np.random.default_rng(7)
    t_k = 10.0
    delta_wide = 400.0  # keeps the Gaussian representable over the gap range
    laws = (lambda w: hyperfine_rate(w, 1.0, delta_wide, t_k),
            lambda w: phonon_rate(w, abs(w), 1.0, t_k))
    for omega in rng.uniform(1e-3, 100.0 * t_k, size=100):
        boltzmann = math.exp(-omega / t_k)
        for rate in laws:
            assert abs(rate(-omega) / rate(omega) - boltzmann) <= 1e-12 * boltzmann

    # stationary two-level populations from one detailed-balance pair
    omega = 10.0
    gamma_down = 0.12
    gamma_up = gamma_down * math.exp(-omega / t_k)
    h = 0.5 * omega * SIGMA_Z
    lower = np.zeros((2, 2), dtype=complex)
    lower[1, 0] = math.sqrt(gamma_down)
    raise_ = np.zeros((2, 2), dtype=complex)
    raise_[0, 1] = math.sqrt(gamma_up)
    t_end = 50.0 / min(gamma_up, gamma_down)
    traj = evolve(h, [lower, raise_], basis_density("u"), t_end, samples=50)
    ratio = traj.states[-1][0, 0].real / traj.states[-1][1, 1].real
    assert abs(ratio - math.exp(-omega / t_k)) <= 1e-6
    print("\n[criterion 3] PASS - up/down ratios equal exp(-w/T_k) to 1e-12; "
          "stationary populations thermalize to 1e-6")


def test_criterion_04_collapse_counting():
    cnot = cnot_config(1.0, 0.5, j=0.42, b_ac=0.004)
    toffoli = toffoli_config(0.1, 0.4, j12=0.42, j23=0.42, b_ac=0.004)
    cs2 = build_collapse_set(static_eigensystem(cnot), NoiseConfig())
    cs3 = build_collapse_set(static_eigensystem(toffoli), NoiseConfig())
    assert len(cs2) == 25
    assert len(cs3) == 113
    for cs, per_channel in ((cs2, 6), (cs3, 28)):
        for channel in ("hyperfine", "phonon"):
            for sign in ("+", "-"):
                assert cs.count(channel, sign) == per_channel
        assert cs.count("dephasing") == 1
    print("\n[criterion 4] PASS - 25 operators for 4 levels, 113 for 8 levels "
          "(6 and 28 per directional channel plus dephasing)")


def test_criterion_05_noise_free_truth_tables():
    # reference parameter points: B_ac = 4 mT, J = 0.42 ueV
    checks = (
        ("cnot", resolve_drive(cnot_config(1.0, 0.5, j=0.42, b_ac=0.004)), 0.99),
        ("toffoli", resolve_drive(toffoli_config(0.1, 0.5, j12=0.42, j23=0.42,
                                                 b_ac=0.004)), 0.98),
    )
    for gate, cfg, bound in checks:
        t_flip = flip_time(cfg)
        times = np.linspace(0.0, t_flip, 500)
        h = build_hamiltonian_rwa(cfg)
        for idx in range(cfg.dim):
            initial = index_to_label(idx, cfg.n_qubits)
            expected = analysis.expected_final(gate, initial)
            states = propagate(h, None, [basis_density(initial)], t_flip, 500)[0]
            assert_physical(Trajectory(times=times, states=states))
            k = label_to_index(expected)
            fidelity = states[-1][k, k].real
            assert fidelity >= bound, (gate, initial, fidelity)
    print("\n[criterion 5] PASS - noise-free state fidelities >= 0.99 (cnot) "
          "and >= 0.98 (toffoli) for all initial states")


def test_criterion_06_frame_equivalence():
    """Lab-frame and rotating-frame populations agree over one flip time.

    For this model the rotating frame is exact for populations, not an
    approximation: the drive is circular, the static H conserves total S_z,
    and every rate-table row joins S_z eigenstates, so the frame change
    only adds phases.  The measured differences are 1.1e-8 (`uu`) and
    3.8e-9 (`du`), at RK45 tolerance, against the 2e-2 allowed here; so
    `build_hamiltonian_lab` and `evolve`'s time-dependent branch test the
    integrator.
    """
    # g mu B_ac = 0.02 * g mu delta B_z exactly at the allowed limit
    cfg = resolve_drive(cnot_config(0.05, 0.05, j=0.42, b_ac=0.001))
    h_rwa = build_hamiltonian_rwa(cfg)
    t_end = flip_time(cfg)
    for initial in ("uu", "du"):
        rho0 = basis_density(initial)
        traj_rwa = evolve(h_rwa, None, rho0, t_end, samples=50)
        traj_lab = evolve(build_hamiltonian_lab(cfg), None, rho0, t_end, samples=50)
        assert_physical(traj_lab)
        pops_rwa = np.array([np.diagonal(s).real for s in traj_rwa.states])
        pops_lab = np.array([np.diagonal(s).real for s in traj_lab.states])
        assert np.abs(pops_rwa - pops_lab).max() <= 2e-2
    print("\n[criterion 6] PASS - lab-frame and rotating-frame populations "
          "agree within 2e-2 over one flip time")


def margin_at(template, noise, thresholds):
    """Verdict margin over the gradient for `find_boundary`."""
    return lambda gradient: evaluate_point(coherent_point(template, gradient), noise,
                                           thresholds).margin


def test_criterion_07_calibrated_trend():
    noise = NoiseConfig()
    thresholds = Thresholds()
    uppers = {}
    for b_target in (1.0, 0.75, 0.5):
        template = SweepTemplate(gate="cnot", fixed_field=b_target, b_ac=0.004,
                                 exchange=(0.42,))
        margin = margin_at(template, noise, thresholds)
        m_in, m_out = margin(1.2), margin(3.6)
        assert m_in > 0 and not m_out > 0
        gradient = find_boundary(margin, 1.2, 3.6, 2e-3, m_in, m_out)
        uppers[b_target] = b_target + gradient
        just_failing = evaluate_point(coherent_point(template, gradient + 0.02), noise,
                                      thresholds)
        state, qubit = just_failing.first_failure()
        assert state == "dd", f"B_T={b_target}: limiting state {state}"
        assert qubit == 0, f"B_T={b_target}: limiting qubit {qubit}"  # control

    assert abs(uppers[1.0] - 3.01) <= 0.301  # calibrated row within +-10%
    assert uppers[1.0] < uppers[0.75] < uppers[0.5]  # 3.01 < 3.19 < 3.35 shape

    # low-field row: the lower boundary is owned by the du state, i.e. du
    # is the last initial state to recover as the gradient grows
    def verdicts_at(gradient):
        # initial label -> least margin over that state's qubits
        point = evaluate_point(coherent_point(LOW_ROW, gradient), noise, thresholds)
        return {index_to_label(k, 2): float(m) for k, m in enumerate(point.margins.min(axis=1))}

    def du_margin(gradient):
        return verdicts_at(gradient)["du"]

    def rest_margin(gradient):
        return min(m for s, m in verdicts_at(gradient).items() if s != "du")

    boundaries = []
    for margin in (du_margin, rest_margin):
        m_out, m_in = margin(0.005), margin(0.012)
        assert not m_out > 0 and m_in > 0
        boundaries.append(find_boundary(margin, 0.012, 0.005, 5e-5, m_in, m_out))
    b_du, b_rest = boundaries
    assert b_du > b_rest, (b_du, b_rest)
    print(f"\n[criterion 7] PASS - upper control-field bounds "
          f"{uppers[1.0]:.3f} < {uppers[0.75]:.3f} < {uppers[0.5]:.3f} T "
          f"(reference 3.01/3.19/3.35), dd/control limiting at the top, "
          f"du limiting at {b_du * 1e3:.2f} mT on the low row")


SHARED_GRID = np.linspace(0.15, 2.25, 8)


def test_criterion_08_cnot_contains_toffoli():
    noise = NoiseConfig()
    thresholds = Thresholds()
    passing = {}
    for gate, exchange in (("cnot", (0.42,)), ("toffoli", (0.42, 0.42))):
        template = SweepTemplate(gate=gate, fixed_field=0.25, b_ac=0.004,
                                 exchange=exchange)
        result = run_sweep(template, SHARED_GRID, noise, thresholds)
        passing[gate] = {i for i, p in enumerate(result.points) if p.passed}
    assert passing["toffoli"], "toffoli passing set must not be empty"
    assert passing["toffoli"] < passing["cnot"], (passing["toffoli"],
                                                  passing["cnot"])

    # the three-spin upper boundary is decided by a right-control crossing
    template = SweepTemplate(gate="toffoli", fixed_field=0.25, b_ac=0.004,
                             exchange=(0.42, 0.42))
    margin = margin_at(template, noise, thresholds)
    m_in, m_out = margin(1.05), margin(1.65)
    assert m_in > 0 and not m_out > 0
    boundary = find_boundary(margin, 1.05, 1.65, 5e-3, m_in, m_out)
    outside = evaluate_point(coherent_point(template, boundary + 0.01), noise, thresholds)
    state, qubit = outside.first_failure()
    assert qubit == 2, (state, qubit)  # right control
    print("\n[criterion 8] PASS - cnot passing interval strictly contains the "
          "toffoli interval on a shared grid; right control limits the "
          "three-spin range")


def test_criterion_09_monotonicity():
    noise = NoiseConfig()
    strict = Thresholds()
    template = SweepTemplate(gate="cnot", fixed_field=1.0, b_ac=0.004,
                             exchange=(0.42,))
    grid = np.linspace(1.2, 2.6, 10)

    base = run_sweep(template, grid, noise, strict)
    base_passing = {i for i, p in enumerate(base.points) if p.passed}

    # relaxing thresholds never shrinks the range (re-thresholding the
    # stored populations, no re-integration)
    relaxed = Thresholds(t_up=0.7, t_down=0.3)
    relaxed_passing = {i for i, point in enumerate(base.points)
                       if reclassify(point, relaxed).passed}
    assert base_passing <= relaxed_passing

    # scaling both rate constants by 10 never grows the range
    loud = run_sweep(template, grid, noise.scaled(10.0), strict)
    loud_passing = {i for i, p in enumerate(loud.points) if p.passed}
    assert loud_passing <= base_passing
    print("\n[criterion 9] PASS - relaxed thresholds only widen, 10x noise "
          "only narrows the operating range on a 10-point grid")


def test_criterion_10_cli_contract(tmp_path):
    import test_cli
    from qdgates.config import parse_config, render_config
    from test_config import random_spec

    out = test_cli.run_cli(tmp_path, "sim", test_cli.SIMULATE_CFG, "simulate")
    test_cli.compare_csv(out / "trajectory.csv",
                         test_cli.GOLDEN_DIR / "trajectory.csv")
    out = test_cli.run_cli(tmp_path, "swp", test_cli.SWEEP_CFG, "sweep")
    test_cli.compare_csv(out / "sweep_row0.csv",
                         test_cli.GOLDEN_DIR / "sweep_row0.csv")
    out = test_cli.run_cli(tmp_path, "rng", test_cli.RANGES_CFG, "ranges")
    test_cli.compare_csv(out / "ranges.csv", test_cli.GOLDEN_DIR / "ranges.csv",
                         float_tol=1e-6)

    rng = np.random.default_rng(99)
    for _ in range(100):
        spec = random_spec(rng)
        assert parse_config(render_config(spec)) == spec
    print("\n[criterion 10] PASS - golden CSV schemas reproduced and 100 "
          "random configs round-trip")
