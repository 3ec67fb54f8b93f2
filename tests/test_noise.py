import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qdgates.device import cnot_config, static_eigensystem, toffoli_config
from qdgates.noise import (
    NoiseConfig,
    build_collapse_set,
    hyperfine_rate,
    phonon_rate,
)
from qdgates.operators import eigensystem


class TestHyperfineRates:
    def test_small_gap_limit(self):
        assert hyperfine_rate(1e-12, 2.5, 0.3, 10.0) == pytest.approx(2.5, rel=1e-9)
        assert hyperfine_rate(-1e-12, 2.5, 0.3, 10.0) == pytest.approx(2.5, rel=1e-9)

    def test_gap_equal_to_width(self):
        # exp(-1/2) = 0.6065306597...
        assert hyperfine_rate(0.3, 1.0, 0.3, 10.0) == pytest.approx(
            0.6065306597126334, rel=1e-12)

    def test_ten_widths_negligible(self):
        rate = hyperfine_rate(3.0, 1.0, 0.3, 10.0)
        assert rate == pytest.approx(math.exp(-50.0), rel=1e-12)
        assert rate < 2e-22

    def test_thermal_ratio(self):
        # rate(-w)/rate(w) = exp(-omega / t_k) exactly
        for omega in (0.01, 0.3, 2.0):
            ratio = hyperfine_rate(-omega, 1.7, 0.3, 10.0) / \
                hyperfine_rate(omega, 1.7, 0.3, 10.0)
            assert ratio == pytest.approx(math.exp(-omega / 10.0), rel=1e-13)

    def test_reference_point(self):
        # omega = -delta_e_nuc = -0.3, t_k = 10: exp(-0.5 - 0.03)
        assert hyperfine_rate(-0.3, 1.0, 0.3, 10.0) == pytest.approx(
            math.exp(-0.53), rel=1e-12)
        assert hyperfine_rate(-0.3, 1.0, 0.3, 10.0) == pytest.approx(0.5886, abs=5e-5)

    def test_zero_gap_rejected(self):
        # only a zero gap raises: -w is the reverse rate
        with pytest.raises(ValueError):
            hyperfine_rate(0.0, 1.0, 0.3, 10.0)
        with pytest.raises(ValueError):
            hyperfine_rate(np.array([0.3, 0.0, -0.3]), 1.0, 0.3, 10.0)


class TestPhononRate:
    def test_small_gap_quartic_law(self):
        # rate -> p * t_k * omega^4 as omega -> 0
        p, t_k = 2.0, 10.0
        for omega in (1e-3, 1e-4):
            rate = phonon_rate(omega, omega, p, t_k)
            assert rate == pytest.approx(p * t_k * omega ** 4, rel=1e-3)

    def test_detailed_balance(self):
        p, t_k = 1.3, 10.0
        for omega in (0.5, 5.0, 50.0):
            ratio = phonon_rate(omega, omega, p, t_k) / \
                phonon_rate(-omega, omega, p, t_k)
            assert ratio == pytest.approx(math.exp(omega / t_k), rel=1e-12)

    def test_reference_point(self):
        # omega = E = 20, t_k = 10: |8000 * 400 / (1 - e^-2)| = 3.7009e6
        rate = phonon_rate(20.0, 20.0, 1.0, 10.0)
        assert rate == pytest.approx(3200000.0 / (-math.expm1(-2.0)), rel=1e-12)
        assert rate == pytest.approx(3.700e6, rel=1e-3)

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            phonon_rate(0.0, 1.0, 1.0, 10.0)

    def test_high_field_asymmetry(self):
        # dominant/suppressed >= e^5 for omega >= 5 t_k
        t_k = 10.0
        for omega in (50.0, 80.0, 200.0):
            ratio = phonon_rate(omega, omega, 1.0, t_k) / \
                phonon_rate(-omega, omega, 1.0, t_k)
            assert ratio >= math.exp(5.0) * (1 - 1e-12)

    def test_low_field_near_symmetry(self):
        # hyperfine rate(-w)/rate(w) within [0.99, 1] for omega <= t_k / 100
        t_k = 10.0
        for omega in (0.1, 0.05, 0.01):
            ratio = hyperfine_rate(-omega, 1.0, 5.0, t_k) / \
                hyperfine_rate(omega, 1.0, 5.0, t_k)
            assert 0.99 <= ratio <= 1.0


class TestCollapseSet:
    def _eig(self, n):
        if n == 2:
            cfg = cnot_config(1.0, 0.5, j=0.42, b_ac=0.004)
        else:
            cfg = toffoli_config(0.1, 0.4, j12=0.42, j23=0.42, b_ac=0.004)
        return static_eigensystem(cfg)

    def test_all_channels_disabled(self):
        noise = NoiseConfig(hyperfine=False, phonon=False, dephasing=False)
        assert len(build_collapse_set(self._eig(2), noise)) == 0

    def test_dephasing_only(self):
        noise = NoiseConfig(hyperfine=False, phonon=False, dephasing=True)
        cs = build_collapse_set(self._eig(2), noise)
        assert len(cs) == 1
        assert cs.channel[0] == "dephasing"

    def test_four_level_count(self):
        cs = build_collapse_set(self._eig(2), NoiseConfig())
        assert len(cs) == 25
        for channel in ("hyperfine", "phonon"):
            for sign in ("+", "-"):
                assert cs.count(channel, sign) == 6

    def test_eight_level_count(self):
        cs = build_collapse_set(self._eig(3), NoiseConfig())
        assert len(cs) == 113
        for channel in ("hyperfine", "phonon"):
            for sign in ("+", "-"):
                assert cs.count(channel, sign) == 28

    def dephasing_row(self, n, t2):
        noise = NoiseConfig(hyperfine=False, phonon=False, t2_star=t2)
        cs = build_collapse_set(self._eig(n), noise)
        assert cs.channel == ("dephasing",)
        return cs.matrices[0]

    def test_two_qubit_dephasing_row(self):
        t2 = 1519.266
        np.testing.assert_allclose(
            self.dephasing_row(2, t2),
            math.sqrt(0.5 / t2) * np.diag([1, -1, -1, 1]).astype(complex), atol=1e-15)

    def test_three_qubit_dephasing_parity_signs(self):
        diag = np.diagonal(self.dephasing_row(3, 2.0)).real
        signs = [1, -1, -1, 1, -1, 1, 1, -1]  # parity of the bit pattern
        np.testing.assert_allclose(diag, 0.5 * np.array(signs), atol=1e-15)

    def test_dephasing_row_squares_to_scaled_identity(self):
        t2 = 7.0
        op = self.dephasing_row(2, t2)
        np.testing.assert_allclose(op @ op, np.eye(4) / (2 * t2), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_level_columns(self, n):
        cs = build_collapse_set(self._eig(n), NoiseConfig())
        for levels in (cs.src, cs.dst):
            assert levels.dtype.kind == "i" and levels.shape == (len(cs),)
            assert not levels.flags.writeable
            np.testing.assert_array_equal(levels == -1, np.array(cs.channel) == "dephasing")
            assert levels.min() == -1
        plus = np.array(cs.sign) == "+"
        assert plus.sum() == 2 * (2 ** n) * (2 ** n - 1) // 2
        assert np.all(cs.dst[plus] > cs.src[plus])

    def test_rank_one_and_frobenius_norm(self):
        cs = build_collapse_set(self._eig(2), NoiseConfig())
        for channel, rate, matrix in zip(cs.channel, cs.rate, cs.matrices):
            if channel == "dephasing":
                continue
            singulars = np.linalg.svd(matrix, compute_uv=False)
            if rate > 0:
                # exactly one singular value at sqrt(rate): rank 1
                assert singulars[0] == pytest.approx(math.sqrt(rate), rel=1e-12)
                assert singulars[1:].max() <= 1e-12 * singulars[0]
            else:
                assert singulars.max() == 0.0
            assert np.linalg.norm(matrix) == pytest.approx(
                math.sqrt(rate), rel=1e-12, abs=1e-300)

    def test_plus_operators_raise_energy(self):
        # the unsuppressed channel moves population from lower to higher
        # eigenlevels; its reverse carries the thermal factor
        eig = self._eig(2)
        cs = build_collapse_set(eig, NoiseConfig())
        for channel, sign, src, dst in zip(cs.channel, cs.sign, cs.src, cs.dst):
            if channel == "dephasing":
                continue
            if sign == "+":
                assert eig.energies[dst] > eig.energies[src]
            else:
                assert eig.energies[dst] < eig.energies[src]

    def test_thermal_pairing(self):
        eig = self._eig(2)
        noise = NoiseConfig()
        cs = build_collapse_set(eig, noise)
        rows = list(zip(cs.channel, cs.sign, zip(cs.src, cs.dst), cs.rate))
        plus = {levels: rate for channel, sign, levels, rate in rows
                if channel == "phonon" and sign == "+"}
        minus = {levels: rate for channel, sign, levels, rate in rows
                 if channel == "phonon" and sign == "-"}
        for (j, k), rate in plus.items():
            gap = eig.energies[k] - eig.energies[j]
            reverse = minus[(k, j)]
            assert reverse / rate == pytest.approx(math.exp(-gap / noise.t_k),
                                                   rel=1e-12)

    def test_degenerate_spectrum_rejected(self):
        eig = eigensystem(np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex))
        with pytest.raises(ValueError):
            build_collapse_set(eig, NoiseConfig())

    def test_bare_zeeman_mode_needs_energies(self):
        noise = NoiseConfig(phonon_e_mode="bare_zeeman")
        with pytest.raises(ValueError):
            build_collapse_set(self._eig(2), noise)

    def test_bare_zeeman_mode_changes_phonon_rates_only(self):
        from qdgates.analysis import _basis_zeeman
        cfg = cnot_config(1.0, 0.5, j=0.42, b_ac=0.004)
        eig = static_eigensystem(cfg)
        gap_set = build_collapse_set(eig, NoiseConfig())
        bare_set = build_collapse_set(eig, NoiseConfig(phonon_e_mode="bare_zeeman"),
                                      zeeman_energies=_basis_zeeman(cfg))
        for channel, gap_rate, bare_rate in zip(gap_set.channel, gap_set.rate,
                                                bare_set.rate):
            if channel == "hyperfine":
                assert gap_rate == bare_rate
        phonon_gap = [rate for channel, rate in zip(gap_set.channel, gap_set.rate)
                      if channel == "phonon"]
        phonon_bare = [rate for channel, rate in zip(bare_set.channel, bare_set.rate)
                       if channel == "phonon"]
        assert phonon_gap != phonon_bare


class TestRateTableProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gate=st.sampled_from(["cnot", "toffoli"]),
           log10_field=st.floats(-3.0, 0.3),
           log10_gradient=st.floats(-3.0, 0.3),
           exchange=st.floats(0.0, 0.5),
           t_k=st.floats(1.0, 20.0),
           delta_e_nuc=st.floats(0.1, 1.0))
    def test_balance_direction_rank_and_counts(self, gate, log10_field,
                                               log10_gradient, exchange, t_k,
                                               delta_e_nuc):
        # millitesla to tesla fields, so that both channels carry unclamped rates
        field, gradient = 10.0 ** log10_field, 10.0 ** log10_gradient
        if gate == "cnot":
            cfg = cnot_config(field, gradient, j=exchange, b_ac=0.004)
        else:
            cfg = toffoli_config(field, gradient, j12=exchange, j23=exchange,
                                 b_ac=0.004)
        eig = static_eigensystem(cfg)
        assume(not eig.is_degenerate())
        noise = NoiseConfig(t_k=t_k, delta_e_nuc=delta_e_nuc)
        cs = build_collapse_set(eig, noise)
        d = cfg.dim
        rows = list(zip(cs.channel, cs.sign, zip(cs.src, cs.dst), cs.rate))
        for channel in ("hyperfine", "phonon"):
            for sign in ("+", "-"):
                assert cs.count(channel, sign) == d * (d - 1) // 2
            plus = {t: r for c, s, t, r in rows if c == channel and s == "+"}
            minus = {t: r for c, s, t, r in rows if c == channel and s == "-"}
            assert len(plus) == len(minus) == d * (d - 1) // 2
            for (j, k), rate in plus.items():
                gap = eig.energies[k] - eig.energies[j]
                assert gap > 0
                reverse = minus[(k, j)]
                if rate > 0 and reverse > 0:
                    assert reverse / rate == pytest.approx(math.exp(-gap / t_k),
                                                           rel=1e-12)
        for channel, j, k, rate, matrix in zip(cs.channel[:-1], cs.src[:-1], cs.dst[:-1],
                                               cs.rate, cs.matrices):
            # rank 1 with norm sqrt(rate), mapping w_from to sqrt(rate) w_to
            assert channel != "dephasing"
            singulars = np.linalg.svd(matrix, compute_uv=False)
            assert singulars[1:].max() <= 1e-12 * singulars[0]
            assert np.linalg.norm(matrix) == pytest.approx(math.sqrt(rate), rel=1e-12,
                                                           abs=1e-300)
            np.testing.assert_allclose(matrix @ eig.vectors[:, j],
                                       math.sqrt(rate) * eig.vectors[:, k],
                                       rtol=0, atol=1e-12 * math.sqrt(rate))
        assert cs.channel[-1] == "dephasing"


class TestChannelCrossover:
    def test_hyperfine_dominates_small_gaps_phonon_large(self):
        # With the calibrated defaults the two total rates cross once as a
        # function of the gap: hyperfine falls monotonically, phonon rises.
        noise = NoiseConfig()
        gaps = np.linspace(0.2, 30.0, 400)
        hf = np.array([hyperfine_rate(w, noise.upsilon, noise.delta_e_nuc, noise.t_k)
                       + hyperfine_rate(-w, noise.upsilon, noise.delta_e_nuc, noise.t_k)
                       for w in gaps])
        ph = np.array([phonon_rate(w, w, noise.phonon_p, noise.t_k)
                       + phonon_rate(-w, w, noise.phonon_p, noise.t_k)
                       for w in gaps])
        diff = hf - ph
        assert diff[0] > 0          # hyperfine wins at small gap
        assert diff[-1] < 0         # phonon wins at large gap
        crossings = np.nonzero(np.diff(np.sign(diff)))[0]
        assert len(crossings) == 1  # a single crossover gap
        # monotone in opposite directions around the crossing (the
        # hyperfine sum underflows to exact zero far above it)
        lo = max(0, crossings[0] - 50)
        hi = min(len(gaps) - 1, crossings[0] + 50)
        assert np.all(np.diff(hf[lo:hi]) < 0)
        assert np.all(np.diff(ph[lo:hi]) > 0)
        assert np.all(np.diff(ph) > 0)
