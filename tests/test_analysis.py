import math

import numpy as np
import pytest

from qdgates.analysis import (
    FlipTimeError,
    SweepTemplate,
    Thresholds,
    classify,
    evaluate_point,
    expected_final,
    flip_time,
    population_up,
    reclassify,
    run_sweep,
)
from qdgates.device import G_GAAS, cnot_config, resolve_drive, build_hamiltonian_rwa
from qdgates.lindblad import propagate
from qdgates.noise import NoiseConfig
from qdgates.operators import basis_density, basis_ket

from conftest import partial_trace_by_summation


class TestPopulationUp:
    def test_basis_state(self):
        rho = basis_density("ud")
        assert population_up(rho, 0) == pytest.approx(1.0)
        assert population_up(rho, 1) == pytest.approx(0.0)

    def test_bell_state(self):
        ket = (basis_ket("uu") + basis_ket("dd")) / math.sqrt(2.0)
        rho = np.outer(ket, ket.conj())
        assert population_up(rho, 0) == pytest.approx(0.5)
        assert population_up(rho, 1) == pytest.approx(0.5)

    def test_ghz_state_matches_summation_oracle(self):
        ket = (basis_ket("uuu") + basis_ket("ddd")) / math.sqrt(2.0)
        rho = np.outer(ket, ket.conj())
        for q in range(3):
            oracle = partial_trace_by_summation(rho, q, 3)[0, 0].real
            assert population_up(rho, q) == pytest.approx(oracle)
            assert population_up(rho, q) == pytest.approx(0.5)


class TestExpectedFinal:
    def test_cnot_truth_table(self):
        assert expected_final("cnot", "uu") == "ud"
        assert expected_final("cnot", "ud") == "uu"
        assert expected_final("cnot", "du") == "du"
        assert expected_final("cnot", "dd") == "dd"

    def test_toffoli_truth_table(self):
        assert expected_final("toffoli", "uuu") == "udu"
        assert expected_final("toffoli", "udu") == "uuu"
        # a single control down leaves the target alone
        for label in ("duu", "uud", "dud", "ddu", "dud", "ddd", "udd"):
            assert expected_final("toffoli", label) == label

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            expected_final("cnot", "uuu")
        with pytest.raises(ValueError):
            expected_final("toffoli", "ud")


class TestFlipTime:
    def test_close_to_isolated_rabi_formula(self):
        cfg = cnot_config(0.5, 0.5, j=0.42, b_ac=0.004)
        t = flip_time(cfg)
        b = abs(resolve_drive(cfg).drive_energy)
        # exchange mixing speeds the conditional flop up slightly
        assert t == pytest.approx(math.pi / (2 * b), rel=0.02)

    def test_doubling_drive_halves_flip_time(self):
        base = cnot_config(0.5, 0.5, j=0.42, b_ac=0.004)
        strong = cnot_config(0.5, 0.5, j=0.42, b_ac=0.008)
        ratio = flip_time(base) / flip_time(strong)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_detuned_drive_raises(self):
        cfg = resolve_drive(cnot_config(0.5, 0.5, j=0.42, b_ac=0.004))
        b = cfg.drive_energy
        detuned = cnot_config(0.5, 0.5, j=0.42, b_ac=0.004,
                              drive_frequency=cfg.drive_frequency + 20.0 * b)
        with pytest.raises(FlipTimeError):
            flip_time(detuned)

    def test_zero_drive_raises(self):
        with pytest.raises(FlipTimeError):
            flip_time(cnot_config(0.5, 0.5, j=0.42, b_ac=0.0,
                                  drive_frequency=1.0))

    # Flip times found by the RK45 dense-output search that the closed
    # form replaced (rtol 1e-8, atol 1e-10, golden-section on the
    # interpolant).
    @pytest.mark.parametrize("cfg, rk45_value", [
        (cnot_config(0.5, 0.5, j=0.42, b_ac=0.004), 3.3555879043456542),
        (cnot_config(0.5, 0.5, j=0.42, b_ac=0.008), 1.6785373005265931),
        (cnot_config(0.5, 0.5, j=0.42, b_ac=0.004, g=G_GAAS), 15.62039229219684),
    ])
    def test_closed_form_agrees_with_rk45_search(self, cfg, rk45_value):
        assert flip_time(cfg) == pytest.approx(rk45_value, rel=1e-7)


def product_state(p_up_per_qubit):
    """Product density matrix with the given per-qubit P_up."""
    single = [np.diag([p, 1.0 - p]).astype(complex) for p in p_up_per_qubit]
    rho = single[0]
    for s in single[1:]:
        rho = np.kron(rho, s)
    return rho


class TestClassify:
    def test_dead_zone_fails(self):
        verdict = classify(product_state([1.0, 0.5]), "cnot", "uu", Thresholds())
        assert not verdict.passed
        assert verdict.failing_qubits == (1,)

    def test_truth_table_pass(self):
        verdict = classify(product_state([0.95, 0.03]), "cnot", "uu", Thresholds())
        assert verdict.passed
        assert verdict.expected == "ud"

    def test_population_outside_unit_interval_raises(self):
        # a drifted state is reported, not clipped into a verdict
        rho = product_state([1.0, 0.0])
        rho[0, 0] += 1e-6
        with pytest.raises(ValueError):
            classify(rho, "cnot", "uu", Thresholds())

    def test_noise_free_cnot_from_uu_and_dd(self):
        cfg = resolve_drive(cnot_config(0.5, 0.5, j=0.42, b_ac=0.004))
        t_flip = flip_time(cfg)
        h = build_hamiltonian_rwa(cfg)
        finals = propagate(h, None, [basis_density("uu"), basis_density("dd")],
                           t_flip)[:, -1]
        for initial, rho in zip(("uu", "dd"), finals):
            verdict = classify(rho, "cnot", initial, Thresholds())
            assert verdict.passed, verdict

    def test_threshold_monotonicity(self):
        # relaxing (t_up down, t_down up) never turns a pass into a fail
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0, size=2)
            initial = rng.choice(["uu", "ud", "du", "dd"])
            strict = classify(product_state(list(p)), "cnot", initial,
                              Thresholds(t_up=0.9, t_down=0.1))
            relaxed = reclassify(strict, Thresholds(t_up=0.7, t_down=0.3))
            if strict.passed:
                assert relaxed.passed


class TestThresholds:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Thresholds(t_up=0.2, t_down=0.8)
        with pytest.raises(ValueError):
            Thresholds(t_up=1.2, t_down=0.1)


NOISELESS = NoiseConfig(hyperfine=False, phonon=False, dephasing=False)


class TestSweep:
    def test_noise_free_grid_fully_passes(self):
        template = SweepTemplate(gate="cnot", fixed_field=0.5, b_ac=0.004,
                                 exchange=(0.42,))
        gradients = np.linspace(0.2, 1.0, 4)
        result = run_sweep(template, gradients, NOISELESS, Thresholds())
        assert not result.empty
        assert result.range_indices == (0, 3)
        assert result.open_low and result.open_high

    def test_huge_noise_empties_range(self):
        template = SweepTemplate(gate="cnot", fixed_field=0.5, b_ac=0.004,
                                 exchange=(0.42,))
        gradients = np.linspace(0.2, 1.0, 3)
        loud = NoiseConfig().scaled(1e4)
        result = run_sweep(template, gradients, loud, Thresholds())
        assert result.empty

    def test_range_nesting_in_noise_scale(self):
        # enlarging the rate constants never enlarges the operating range
        template = SweepTemplate(gate="cnot", fixed_field=1.0, b_ac=0.004,
                                 exchange=(0.42,))
        gradients = np.linspace(1.2, 2.8, 6)
        passing_sets = []
        for factor in (1.0, 10.0, 100.0):
            result = run_sweep(template, gradients, NoiseConfig().scaled(factor),
                               Thresholds())
            passing_sets.append({i for i, p in enumerate(result.points)
                                 if p.passed})
        assert passing_sets[1] <= passing_sets[0]
        assert passing_sets[2] <= passing_sets[1]

    def test_empty_grid_rejected(self):
        template = SweepTemplate(gate="cnot", fixed_field=0.5, b_ac=0.004,
                                 exchange=(0.42,))
        with pytest.raises(ValueError):
            run_sweep(template, [], NOISELESS, Thresholds())

    def test_decreasing_axis_rejected(self):
        template = SweepTemplate(gate="cnot", fixed_field=0.5, b_ac=0.004,
                                 exchange=(0.42,))
        with pytest.raises(ValueError):
            run_sweep(template, [0.5, 0.3], NOISELESS, Thresholds())

    def test_evaluate_point_runs_all_initial_states(self):
        template = SweepTemplate(gate="cnot", fixed_field=0.5, b_ac=0.004,
                                 exchange=(0.42,))
        point = evaluate_point(template, 0.5, NOISELESS, Thresholds())
        assert [v.initial_state for v in point.verdicts] == ["uu", "ud", "du", "dd"]
        assert point.passed

    def test_degenerate_spectrum_names_the_gradient(self):
        # zero target field and zero exchange leave uu/ud and du/dd degenerate
        template = SweepTemplate(gate="cnot", fixed_field=0.0, b_ac=0.004,
                                 exchange=(0.0,))
        with pytest.raises(ValueError, match=r"gradient 0\.5 T: .*nondegenerate"):
            evaluate_point(template, 0.5, NoiseConfig(), Thresholds())

    def test_operating_range_refines_boundary_to_three_figures(self):
        from qdgates.analysis import operating_range

        template = SweepTemplate(gate="cnot", fixed_field=1.0, b_ac=0.004,
                                 exchange=(0.42,))
        gradients = np.linspace(1.7, 2.3, 4)  # boundary sits near 2.01
        result = operating_range(template, gradients, NoiseConfig(),
                                 Thresholds(), refine=True)
        assert not result.empty
        lo, hi = result.range_indices
        assert result.open_low and not result.open_high
        assert result.refined_high is not None
        assert gradients[hi] <= result.refined_high <= gradients[hi + 1]
        # three significant figures: the bisection interval closes below
        # half a unit in the third figure
        assert result.refined_high == pytest.approx(2.01, abs=0.03)
        assert result.limiting_high == ("dd", 0)

    def test_negative_g_factor_still_flips(self):
        # GaAs-like preset: the signed drive resolution flips polarity with
        # the Zeeman sign, so the conditional flop still happens
        cfg = cnot_config(0.5, 0.5, j=0.42, b_ac=0.004, g=G_GAAS)
        resolved = resolve_drive(cfg)
        assert resolved.drive_frequency > 0  # opposite sign to the g=2 case
        t = flip_time(cfg)
        b = abs(resolved.drive_energy)
        assert t == pytest.approx(math.pi / (2 * b), rel=0.02)
