import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdgates import analysis
from qdgates.analysis import (
    FLIP_BLOCK,
    FLIP_SAMPLES,
    FLIP_WINDOW_FACTOR,
    FlipTimeError,
    PointResult,
    SweepTemplate,
    Thresholds,
    classify,
    evaluate_point,
    expected_final,
    expected_up,
    find_boundary,
    flip_time,
    point_model,
    populations_up,
    reclassify,
    run_sweep,
    _first_minimum_below_half,
    _p_up_slopes,
    _scan_first_minimum,
    _stationary_point,
    _up_amplitudes,
)
from qdgates.calibration import HIGH_ROW, LOW_ROW
from qdgates.device import (
    G_GAAS,
    DeviceConfig,
    build_hamiltonian_rwa,
    cnot_config,
    line_config,
    resolve_drive,
    toffoli_config,
)
from qdgates.lindblad import propagate
from qdgates.noise import NoiseConfig
from qdgates.operators import (basis_density, basis_ket, index_to_label, label_to_index,
                               partial_trace)

from conftest import partial_trace_by_summation, random_density


class TestPopulationUp:
    def test_basis_state(self):
        rho = basis_density("ud")
        assert populations_up(rho)[0] == pytest.approx(1.0)
        assert populations_up(rho)[1] == pytest.approx(0.0)

    def test_bell_state(self):
        ket = (basis_ket("uu") + basis_ket("dd")) / math.sqrt(2.0)
        rho = np.outer(ket, ket.conj())
        assert populations_up(rho)[0] == pytest.approx(0.5)
        assert populations_up(rho)[1] == pytest.approx(0.5)

    def test_ghz_state_matches_summation_oracle(self):
        ket = (basis_ket("uuu") + basis_ket("ddd")) / math.sqrt(2.0)
        rho = np.outer(ket, ket.conj())
        for q in range(3):
            oracle = partial_trace_by_summation(rho, q, 3)[0, 0].real
            assert populations_up(rho)[q] == pytest.approx(oracle)
            assert populations_up(rho)[q] == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_partial_trace_and_batches(self, n_qubits, seed):
        rng = np.random.default_rng(seed)
        states = np.stack([random_density(rng, 2 ** n_qubits) for _ in range(4)])
        batch = populations_up(states)
        assert batch.shape == (4, n_qubits)
        for rho, row in zip(states, batch):
            np.testing.assert_array_equal(populations_up(rho), row)
            reference = [partial_trace(rho, q)[0, 0].real for q in range(n_qubits)]
            np.testing.assert_allclose(row, reference, rtol=0.0, atol=1e-15)

    def test_nan_state_raises(self):
        rho = basis_density("ud")
        rho[3, 3] = np.nan
        with pytest.raises(ValueError, match="population nan"):
            populations_up(rho)


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

    def test_unknown_gate_rejected(self):
        # no gate name but "cnot" may fall through to the Toffoli table
        with pytest.raises(ValueError, match="gate 'CNOT'"):
            expected_final("CNOT", "uuu")
        with pytest.raises(ValueError, match="gate 'bogus'"):
            expected_up("bogus")


class TestSweepLine:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(1e-4, 10.0), st.floats(1e-5, 10.0))
    def test_fields_on_the_line(self, f, g):
        # qubit q at fixed + offsets[q] * gradient, bit for bit
        cnot = SweepTemplate(gate="cnot", fixed_field=f, b_ac=0.004,
                             exchange=(0.42,)).config(g)
        toffoli = SweepTemplate(gate="toffoli", fixed_field=f, b_ac=0.004,
                                exchange=(0.42, 0.17)).config(g)
        assert cnot.b_fields == (f + g, f)
        assert toffoli.b_fields == (f, f + g, f + 2 * g)
        assert cnot_config(f, g, j=0.42, b_ac=0.004) == cnot == line_config(
            "cnot", f, g, exchange=(0.42,), b_ac=0.004)
        assert toffoli_config(f, g, j12=0.42, j23=0.17, b_ac=0.004) == toffoli == line_config(
            "toffoli", f, g, exchange=(0.42, 0.17), b_ac=0.004)

    @pytest.mark.parametrize("build, match", [
        (lambda: SweepTemplate(gate="CNOT", fixed_field=1.0, b_ac=0.004,
                               exchange=(0.42,)).config(0.5), "gate 'CNOT'"),
        (lambda: SweepTemplate(gate="bogus", fixed_field=0.1, b_ac=0.004,
                               exchange=(0.42, 0.42)).config(0.5), "gate 'bogus'"),
        (lambda: SweepTemplate(gate="cnot", fixed_field=1.0, b_ac=0.004,
                               exchange=(0.42, 0.42)).config(0.5), "needs 1 exchange"),
        (lambda: SweepTemplate(gate="toffoli", fixed_field=0.1, b_ac=0.004,
                               exchange=(0.42,)).config(0.5), "needs 2 exchange"),
        (lambda: line_config("Toffoli", 0.1, 0.5, exchange=(0.42, 0.42), b_ac=0.004),
         "gate 'Toffoli'"),
        (lambda: line_config("toffoli", 0.1, 0.5, exchange=(), b_ac=0.004),
         "needs 2 exchange"),
        (lambda: DeviceConfig(gate="CNOT", b_fields=(1.5, 1.0), b_ac=0.004,
                              exchange=(0.42,)), "gate 'CNOT'"),
        (lambda: DeviceConfig(gate="cnot", b_fields=(1.5, 1.0), b_ac=0.004,
                              exchange=(0.42, 0.42)), "needs 1 exchange"),
        (lambda: expected_final("bogus", "uu"), "gate 'bogus'"),
        (lambda: expected_up("CNOT"), "gate 'CNOT'"),
    ], ids=["template-CNOT", "template-bogus", "template-cnot-2j", "template-toffoli-1j",
            "line-Toffoli", "line-toffoli-0j", "device-CNOT", "device-cnot-2j",
            "expected_final-bogus", "expected_up-CNOT"])
    def test_wrong_gate_or_coupling_count_rejected(self, build, match):
        # a ValueError naming the gate or the count, not a KeyError or
        # IndexError, and no other gate's chain built in its place
        with pytest.raises(ValueError, match=match):
            build()


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

    # Flip times of the golden-section search that the Newton step
    # replaced.  Comparing function values, it located the flat minimum
    # only to about sqrt(machine epsilon) of the bracket.
    @pytest.mark.parametrize("cfg, golden_value", [
        (cnot_config(0.5, 0.5, j=0.42, b_ac=0.004), 3.35558785474062),
        (cnot_config(0.5, 0.5, j=0.42, b_ac=0.008), 1.678537275191796),
        (cnot_config(0.5, 0.5, j=0.42, b_ac=0.004, g=G_GAAS), 15.620391392571756),
    ])
    def test_newton_agrees_with_golden_section_and_is_stationary(self, cfg, golden_value):
        t = flip_time(cfg)
        assert t == pytest.approx(golden_value, rel=1e-8)
        energies, weights = closed_form(cfg)
        # roundoff of dP/dt: every phase E t carries an error of about eps |E| t
        eps = np.finfo(float).eps
        phase_error = eps * (1.0 + np.abs(energies).max() * t)
        slope_roundoff = phase_error * np.sum(np.abs(weights) * np.abs(energies))
        slope, curvature = _p_up_slopes(energies, weights, t)
        golden_slope, _ = _p_up_slopes(energies, weights, golden_value)
        assert curvature > 0.0
        assert abs(slope) <= slope_roundoff < 1e-2 * abs(golden_slope)
        # P_up differs by about P'' (t - golden)^2 / 2, far below its roundoff
        assert p_up(energies, weights, t) <= (p_up(energies, weights, golden_value)
                                              + phase_error)

    @pytest.mark.parametrize("cfg", [
        cnot_config(0.5, 0.5, j=0.42, b_ac=0.004),
        toffoli_config(0.25, 1.0, j12=0.42, j23=0.42, b_ac=0.004),
    ], ids=["cnot", "toffoli"])
    def test_closed_form_slopes_match_finite_differences(self, cfg):
        energies, weights = closed_form(cfg)
        h = 1e-5
        for t in (0.3, 1.1, 2.9):
            slope, curvature = _p_up_slopes(energies, weights, t)
            p_minus, p_plus = (p_up(energies, weights, t + s) for s in (-h, h))
            slope_minus, slope_plus = (_p_up_slopes(energies, weights, t + s)[0]
                                       for s in (-h, h))
            assert slope == pytest.approx((p_plus - p_minus) / (2 * h), rel=1e-6, abs=1e-9)
            assert curvature == pytest.approx((slope_plus - slope_minus) / (2 * h),
                                              rel=1e-6, abs=1e-9)

    def test_rippled_minimum_is_a_stationary_minimum_in_the_scan_bracket(self):
        # On the hyperfine-dominated low row P_up carries a fast ripple of
        # amplitude ~1e-8 whose curvature turns P'' negative near the flip,
        # so the safeguard has to bisect before Newton converges.
        cfg = resolve_drive(LOW_ROW.config(0.1441))
        energies, weights = closed_form(cfg)
        t = flip_time(cfg)
        slope, curvature = _p_up_slopes(energies, weights, t)
        window = FLIP_WINDOW_FACTOR * math.pi / (2.0 * abs(cfg.drive_energy))
        times = np.linspace(0.0, window, FLIP_SAMPLES)
        idx = _first_minimum_below_half(p_up(energies, weights, times))
        assert times[idx - 1] <= t <= times[idx + 1]
        assert curvature > 0.0
        assert abs(slope) < 1e-12


def closed_form(cfg):
    """(E, w) of the target's P_up for a resolved copy of `cfg`."""
    cfg = resolve_drive(cfg)
    return _up_amplitudes(cfg, build_hamiltonian_rwa(cfg))


def p_up(energies, weights, t):
    """P_up(t) = sum_r |sum_k w_rk exp(-i E_k t)|^2, at one time or an array of them."""
    amplitudes = weights @ np.exp(-1j * np.outer(energies, np.atleast_1d(t)))
    return np.sum(np.abs(amplitudes) ** 2, axis=0).squeeze()


def first_minimum_by_loop(pops):
    """The scan rule as the flip-time search first wrote it, one sample at a time."""
    for i in range(1, len(pops) - 1):
        if pops[i] < 0.5 and pops[i] <= pops[i - 1] and pops[i] <= pops[i + 1]:
            return i
    return None


class TestFirstMinimum:
    # Few distinct values make plateaus and ties common; values at and above
    # one half make arrays without any qualifying minimum.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0.0, 0.2, 0.49, 0.5, 0.51, 0.9])
                    | st.floats(0.0, 1.0), max_size=12))
    def test_vectorised_rule_matches_loop(self, values):
        pops = np.array(values, dtype=float)
        assert _first_minimum_below_half(pops) == first_minimum_by_loop(pops)

    def test_plateau_takes_its_first_sample(self):
        pops = np.array([0.9, 0.3, 0.1, 0.1, 0.1, 0.4])
        assert _first_minimum_below_half(pops) == 2

    def test_no_minimum_below_half(self):
        assert _first_minimum_below_half(np.array([0.9, 0.5, 0.9, 0.2])) is None


def flip_time_by_full_scan(cfg):
    """The flip time from all FLIP_SAMPLES samples at once, as before blocking."""
    cfg = resolve_drive(cfg)
    energies, weights = closed_form(cfg)
    window = FLIP_WINDOW_FACTOR * math.pi / (2.0 * abs(cfg.drive_energy))
    times = np.linspace(0.0, window, FLIP_SAMPLES)
    idx = _first_minimum_below_half(p_up(energies, weights, times))
    return _stationary_point(energies, weights, times[idx - 1], times[idx + 1], times[idx])


TOFFOLI_ROW = SweepTemplate(gate="toffoli", fixed_field=0.25, b_ac=0.004,
                            exchange=(0.42, 0.42))
SCAN_GRIDS = (
    [pytest.param(TOFFOLI_ROW.config(g), id=f"toffoli-{g:.3g}T")
     for g in np.linspace(0.15, 2.25, 8)]
    + [pytest.param(HIGH_ROW.config(g), id=f"high-row-{g:.3g}T")
       for g in np.geomspace(0.005, 2.5, 8)]
    + [pytest.param(LOW_ROW.config(g), id=f"low-row-{g:.4g}T")
       for g in np.geomspace(0.003, 0.1441, 7)]
)


class TestBlockScan:
    @pytest.mark.parametrize("cfg", SCAN_GRIDS)
    def test_flip_time_matches_the_full_scan_bit_for_bit(self, cfg):
        assert flip_time(cfg) == flip_time_by_full_scan(cfg)

    def test_minimum_at_every_sample(self):
        # a lone minimum anywhere, block edges included, is found where the
        # full rule finds it
        for where in range(1, FLIP_SAMPLES - 1):
            pops = np.full(FLIP_SAMPLES, 0.9)
            pops[where] = 0.1
            assert _scan_first_minimum(lambda a, b: pops[a:b], FLIP_SAMPLES) == where

    @pytest.mark.parametrize("start", [FLIP_BLOCK - 4, FLIP_BLOCK - 3, FLIP_BLOCK - 2])
    def test_plateau_across_a_block_edge_takes_its_first_sample(self, start):
        pops = np.full(FLIP_SAMPLES, 0.9)
        pops[start:start + 4] = 0.1
        assert _scan_first_minimum(lambda a, b: pops[a:b], FLIP_SAMPLES) == start

    def test_stops_at_the_first_block_with_a_hit(self):
        pops = np.full(FLIP_SAMPLES, 0.9)
        pops[FLIP_BLOCK + 10] = 0.1
        pops[3 * FLIP_BLOCK] = 0.0
        blocks = []

        def recorded(a, b):
            blocks.append((a, b))
            return pops[a:b]

        assert _scan_first_minimum(recorded, FLIP_SAMPLES) == FLIP_BLOCK + 10
        assert blocks == [(0, FLIP_BLOCK), (FLIP_BLOCK - 2, 2 * FLIP_BLOCK - 2)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0.0, 0.2, 0.49, 0.5, 0.51, 0.9])
                    | st.floats(0.0, 1.0), max_size=30),
           st.integers(3, 8))
    def test_any_block_size_matches_the_loop(self, values, block):
        pops = np.array(values, dtype=float)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "FLIP_BLOCK", block)
            found = _scan_first_minimum(lambda a, b: pops[a:b], len(pops))
        assert found == first_minimum_by_loop(pops)


def product_state(p_up_per_qubit):
    """Product density matrix with the given per-qubit P_up."""
    single = [np.diag([p, 1.0 - p]).astype(complex) for p in p_up_per_qubit]
    rho = single[0]
    for s in single[1:]:
        rho = np.kron(rho, s)
    return rho


def truth_table_point(gate, thresholds, **cells):
    """PointResult of the ideal truth-table P_up (1 up, 0 down), with the rows
    named in `cells` (initial label -> P_up row) replaced."""
    p_up = expected_up(gate).astype(float)
    for label, row in cells.items():
        p_up[label_to_index(label)] = row
    return PointResult(gradient=1.0, t_flip=1.0, gate=gate, p_up=p_up,
                       margins=classify(p_up, gate, thresholds))


class TestClassify:
    def test_dead_zone_fails(self):
        point = truth_table_point("cnot", Thresholds(), uu=[1.0, 0.5])
        assert not point.passed
        assert point.first_failure() == ("uu", 1)
        assert np.flatnonzero(~(point.margins[0] > 0)).tolist() == [1]

    def test_truth_table_pass(self):
        point = truth_table_point("cnot", Thresholds(), uu=[0.95, 0.03])
        assert point.passed
        assert expected_final("cnot", "uu") == "ud"
        assert expected_up("cnot")[0].tolist() == [True, False]

    @pytest.mark.parametrize("gate", ["cnot", "toffoli"])
    def test_expected_up_is_the_truth_table(self, gate):
        n = 2 if gate == "cnot" else 3
        table = expected_up(gate)
        assert table.shape == (1 << n, n) and table.dtype == bool
        for k in range(1 << n):
            final = expected_final(gate, index_to_label(k, n))
            assert table[k].tolist() == [ch == "u" for ch in final]
        assert expected_up(gate) is table
        with pytest.raises(ValueError):
            table[0, 0] = not table[0, 0]

    def test_table_shape_must_match_the_gate(self):
        # one state's row would broadcast against the whole truth table
        with pytest.raises(ValueError, match="does not match"):
            classify(np.array([0.95, 0.03]), "cnot", Thresholds())
        with pytest.raises(ValueError, match="does not match"):
            classify(np.zeros((4, 2)), "toffoli", Thresholds())

    def test_population_outside_unit_interval_raises(self):
        # a drifted state is reported, not clipped into a verdict
        rho = product_state([1.0, 0.0])
        rho[0, 0] += 1e-6
        with pytest.raises(ValueError):
            populations_up(rho)

    def test_noise_free_cnot_from_uu_and_dd(self):
        cfg = resolve_drive(cnot_config(0.5, 0.5, j=0.42, b_ac=0.004))
        t_flip = flip_time(cfg)
        h = build_hamiltonian_rwa(cfg)
        labels = [index_to_label(k, 2) for k in range(4)]
        finals = propagate(h, None, [basis_density(s) for s in labels], t_flip)[:, -1]
        margins = classify(populations_up(finals), "cnot", Thresholds())
        for initial in ("uu", "dd"):
            assert (margins[label_to_index(initial)] > 0).all(), (initial, margins)

    def test_threshold_monotonicity(self):
        # relaxing (t_up down, t_down up) never turns a pass into a fail
        rng = np.random.default_rng(7)
        for _ in range(50):
            p_up = rng.uniform(0.0, 1.0, size=(4, 2))
            strict = PointResult(gradient=1.0, t_flip=1.0, gate="cnot", p_up=p_up,
                                 margins=classify(p_up, "cnot",
                                                  Thresholds(t_up=0.9, t_down=0.1)))
            relaxed = reclassify(strict, Thresholds(t_up=0.7, t_down=0.3))
            strict_rows = (strict.margins > 0).all(axis=1)
            assert (relaxed.margins > 0).all(axis=1)[strict_rows].all()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), gate=st.sampled_from(["cnot", "toffoli"]),
           t_up=st.floats(0.51, 0.99), t_down=st.floats(0.01, 0.49))
    def test_margin_is_positive_exactly_when_the_strict_test_passes(self, data, gate,
                                                                     t_up, t_down):
        n = 2 if gate == "cnot" else 3
        d = 1 << n
        thresholds = Thresholds(t_up=t_up, t_down=t_down)
        expected = [expected_final(gate, index_to_label(k, n)) for k in range(d)]
        # cells exactly at a threshold must fail: the tests are strict; cells
        # not drawn keep their truth-table value, so whole tables also pass
        cell = st.floats(0.0, 1.0) | st.sampled_from([t_up, t_down, 0.0, 1.0])
        drawn = data.draw(st.dictionaries(
            st.tuples(st.integers(0, d - 1), st.integers(0, n - 1)), cell))
        rows = [[drawn.get((k, q), 1.0 if want == "u" else 0.0)
                 for q, want in enumerate(expected[k])] for k in range(d)]
        p_up = np.array(rows)
        point = PointResult(gradient=1.0, t_flip=1.0, gate=gate, p_up=p_up,
                            margins=classify(p_up, gate, thresholds))
        margins = [[p - t_up if want == "u" else t_down - p
                    for p, want in zip(row, expected[k])] for k, row in enumerate(rows)]
        strict = [[p > t_up if want == "u" else p < t_down
                   for p, want in zip(row, expected[k])] for k, row in enumerate(rows)]
        assert point.margins.tolist() == margins
        assert not point.margins.flags.writeable
        assert point.margin == min(min(row) for row in margins)
        assert point.passed == (point.margin > 0) == all(map(all, strict))
        first = None
        for k in range(d):
            for q in range(n):
                if first is None and not strict[k][q]:
                    first = (index_to_label(k, n), q)
        assert point.first_failure() == first
        other = Thresholds(t_up=data.draw(st.floats(0.51, 0.99)),
                           t_down=data.draw(st.floats(0.01, 0.49)))
        relabelled = reclassify(point, other)
        assert relabelled.p_up is point.p_up
        assert relabelled.margins.tolist() == classify(p_up, gate, other).tolist()


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
        assert result.low.open and result.high.open

    def test_huge_noise_empties_range(self):
        template = SweepTemplate(gate="cnot", fixed_field=0.5, b_ac=0.004,
                                 exchange=(0.42,))
        gradients = np.linspace(0.2, 1.0, 3)
        loud = NoiseConfig().scaled(1e4)
        result = run_sweep(template, gradients, loud, Thresholds())
        assert result.empty

    def test_range_nesting_in_noise_scale(self):
        # enlarging the rate constants never enlarges the operating range
        toffoli = SweepTemplate(gate="toffoli", fixed_field=0.25, b_ac=0.004,
                                exchange=(0.42, 0.42))
        for template, gradients, factors in (
                (HIGH_ROW, np.linspace(1.2, 2.8, 6), (1.0, 10.0, 100.0)),
                (LOW_ROW, np.geomspace(0.002, 0.05, 6), (0.01, 1.0, 100.0)),
                (toffoli, np.linspace(0.15, 2.25, 8), (0.01, 1.0, 100.0))):
            passing_sets = []
            for factor in factors:
                result = run_sweep(template, gradients, NoiseConfig().scaled(factor),
                                   Thresholds())
                passing_sets.append({i for i, p in enumerate(result.points)
                                     if p.passed})
            assert passing_sets[1] <= passing_sets[0], template
            assert passing_sets[2] <= passing_sets[1], template
            # non-trivial: the loudest noise fails points the quietest passes
            assert passing_sets[2] < passing_sets[0], template

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
        # row k is basis state k, each propagated on its own here
        _, h, collapse = point_model(template.config(0.5), NOISELESS)
        for k, initial in enumerate(["uu", "ud", "du", "dd"]):
            rho = propagate(h, collapse, [basis_density(initial)], point.t_flip)[0, -1]
            np.testing.assert_allclose(point.p_up[k], populations_up(rho), atol=1e-12)
        assert point.p_up.shape == point.margins.shape == (4, 2)
        assert not point.p_up.flags.writeable and not point.margins.flags.writeable
        assert point.passed

    def test_degenerate_spectrum_names_the_gradient(self):
        # zero target field and zero exchange leave uu/ud and du/dd degenerate
        template = SweepTemplate(gate="cnot", fixed_field=0.0, b_ac=0.004,
                                 exchange=(0.0,))
        with pytest.raises(ValueError, match=r"gradient 0\.5 T: .*nondegenerate"):
            evaluate_point(template, 0.5, NoiseConfig(), Thresholds())

    def test_population_failure_names_the_gradient(self):
        # at 1e10 times the calibrated rates the propagated states drift
        # past the population tolerance; the error says where
        with pytest.raises(ValueError, match=r"gradient 0\.83.* T: .*population"):
            evaluate_point(HIGH_ROW, 0.8346242608806184, NoiseConfig().scaled(1e10),
                           Thresholds())

    def test_operating_range_refines_boundary_to_three_figures(self):
        template = SweepTemplate(gate="cnot", fixed_field=1.0, b_ac=0.004,
                                 exchange=(0.42,))
        gradients = np.linspace(1.7, 2.3, 4)  # boundary sits near 2.01
        result = run_sweep(template, gradients, NoiseConfig(), Thresholds(),
                           refine=True)
        assert not result.empty
        lo, hi = result.range_indices
        assert result.low.open and not result.high.open
        assert result.high.gradient != gradients[hi]     # refined, not the grid point
        assert gradients[hi] <= result.high.gradient <= gradients[hi + 1]
        # three significant figures: the final bracket closes below half a
        # unit in the third figure
        assert result.high.gradient == pytest.approx(2.01, abs=0.03)
        assert result.high.limit == ("dd", 0)

    def test_negative_g_factor_still_flips(self):
        # GaAs-like preset: the signed drive resolution flips polarity with
        # the Zeeman sign, so the conditional flop still happens
        cfg = cnot_config(0.5, 0.5, j=0.42, b_ac=0.004, g=G_GAAS)
        resolved = resolve_drive(cfg)
        assert resolved.drive_frequency > 0  # opposite sign to the g=2 case
        t = flip_time(cfg)
        b = abs(resolved.drive_energy)
        assert t == pytest.approx(math.pi / (2 * b), rel=0.02)


def longest_run_by_enumeration(passing):
    """(lo, hi) of the longest all-pass run, the earliest on a tie, or None."""
    runs = [(lo, hi) for lo in range(len(passing)) for hi in range(lo, len(passing))
            if all(passing[lo:hi + 1])]
    return max(runs, key=lambda run: (run[1] - run[0], -run[0]), default=None)


class TestRangeExtraction:
    """`run_sweep`'s range and boundaries from fake margin tables on a grid 1, 2, ..., n."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(passing=[True, False, True], refine=True, refined_limit=None)
    @example(passing=[False, True, True, False, True, True, False], refine=True,
             refined_limit=("uu", 1))
    @given(passing=st.lists(st.booleans(), min_size=1, max_size=12),
           refine=st.booleans(),
           refined_limit=st.none() | st.just(("uu", 1)))
    def test_longest_run_and_its_boundaries(self, passing, refine, refined_limit):
        def fake_point(template, gradient, noise, thresholds):
            # a failing point fails its last cell and, before it in row-major
            # order, cell (i % 4, i % 2); its margin is -gradient either way
            i = int(gradient) - 1
            margins = np.full((4, 2), gradient)
            if not passing[i]:
                margins[i % 4, i % 2] = margins[-1, -1] = -gradient
            return PointResult(gradient=float(gradient), t_flip=1.0, gate="cnot",
                               p_up=np.zeros((4, 2)), margins=margins)

        refined = []

        def fake_refine(template, noise, thresholds, inside, outside, m_inside, m_outside):
            # the ends' margins come from the grid points, not new evaluations
            assert (m_inside, m_outside) == (inside, -outside)
            refined.append((inside, outside))
            return 0.5 * (inside + outside), refined_limit

        gradients = np.arange(1.0, len(passing) + 1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "evaluate_point", fake_point)
            mp.setattr(analysis, "refine_boundary", fake_refine)
            result = run_sweep(None, gradients, None, None, refine=refine)

        best = longest_run_by_enumeration(passing)
        assert result.range_indices == best
        assert result.empty == (best is None) == (not any(passing))
        if best is None:
            assert result.low is None and result.high is None and refined == []
            return
        want_refined = []
        for end, inside, outside in ((result.low, best[0], best[0] - 1),
                                     (result.high, best[1], best[1] + 1)):
            assert end.open == (not 0 <= outside < len(passing))
            assert passing[inside] and (end.open or not passing[outside])
            if end.open:
                assert end == analysis.Boundary(gradients[inside], open=True)
                continue
            neighbour = (index_to_label(outside % 4, 2), outside % 2)
            if refine:
                want_refined.append((gradients[inside], gradients[outside]))
                assert end.gradient == 0.5 * (gradients[inside] + gradients[outside])
                assert end.limit == (refined_limit or neighbour)
            else:
                assert end.gradient == gradients[inside]
                assert end.limit == neighbour
        assert refined == want_refined


def bisect_by_halving(passes, passing, failing, width):
    """Plain bisection: (final midpoint, evaluated points), the reference count."""
    evaluated = []
    while abs(failing - passing) > width:
        mid = 0.5 * (passing + failing)
        evaluated.append(mid)
        if passes(mid):
            passing = mid
        else:
            failing = mid
    return 0.5 * (passing + failing), evaluated


# (passing, failing, width): the calib_low_row bracket, the calibrate_upsilon
# default bracket, and a cnot_ranges grid step at three significant figures
NAMED_BRACKETS = [(4.19, 4.19 + 0.0175, 1e-2), (3.0, 7.0, 1e-3),
                  (0.015, 0.005, 5e-5)]


@st.composite
def brackets(draw):
    """(passing, failing, width) in either orientation.

    `failing - passing` over `width` is 2**halvings / ratio, an exact power
    of two when ratio is 1.
    """
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED_BRACKETS))
    passing = draw(st.floats(-20.0, 20.0))
    span = draw(st.floats(1e-3, 10.0))
    failing = passing - span if draw(st.booleans()) else passing + span
    ratio = draw(st.just(1.0) | st.floats(0.5, 1.0))
    width = abs(failing - passing) * ratio / 2.0 ** draw(st.integers(0, 16))
    return passing, failing, width


# odd, increasing shapes of the margin against the distance from the root
MARGIN_SHAPES = {
    "linear": lambda z: z,
    "cubic": lambda z: z ** 3,
    "saturating": lambda z: math.tanh(20.0 * z),
    "step": lambda z: 0.3 if z > 0 else -7.0,
    "unit step": lambda z: 1.0 if z > 0 else -1.0,
}


class TestFindBoundary:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bracket=brackets(), root=st.floats(1e-6, 1.0),
           shape=st.sampled_from(sorted(MARGIN_SHAPES)))
    def test_never_out_counts_bisection_and_keeps_the_bracket(self, bracket, root,
                                                               shape):
        passing, failing, width = bracket

        def margin(x):
            # positive on the passing side; the root sits `root` of the way
            # from the passing end to the failing end
            return MARGIN_SHAPES[shape](root - (x - passing) / (failing - passing))

        evaluated = []

        def recording(x):
            evaluated.append((x, margin(x)))
            return evaluated[-1][1]

        m_passing, m_failing = margin(passing), margin(failing)
        assert m_passing > 0 >= m_failing
        found = find_boundary(recording, passing, failing, width, m_passing, m_failing)
        halved, reference = bisect_by_halving(lambda x: margin(x) > 0, passing, failing,
                                              width)
        assert len(evaluated) <= len(reference)
        if shape == "unit step":
            assert [x for x, _ in evaluated] == reference
            assert found == halved
        ends = {True: passing, False: failing}
        for x, m in evaluated:
            assert min(ends.values()) <= x <= max(ends.values())
            ends[m > 0] = x
        assert abs(ends[False] - ends[True]) <= width
        assert found == 0.5 * (ends[True] + ends[False])

    def test_smooth_margin_beats_bisection(self):
        # a linear margin on the calibrate_upsilon default bracket: regula
        # falsi lands on the root, where bisection needs all 12 halvings
        calls = []

        def margin(x):
            calls.append(x)
            return 4.2 - x

        found = find_boundary(margin, 3.0, 7.0, 1e-3, 1.2, -2.8)
        assert abs(found - 4.2) <= 5e-4
        assert len(calls) < 12
