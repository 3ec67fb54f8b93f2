"""The frozen noise constants are reproducible from the calibration fits."""
import math

import pytest

from qdgates import calibration
from qdgates.calibration import calibrate_phonon_p, calibrate_upsilon, run_calibration
from qdgates.noise import PHONON_P_DEFAULT, UPSILON_DEFAULT, NoiseConfig


def test_run_calibration_reproduces_frozen_defaults():
    constants = run_calibration()
    assert abs(math.log10(constants["upsilon"]) - math.log10(UPSILON_DEFAULT)) <= 1e-3
    assert abs(math.log10(constants["phonon_p"]) - math.log10(PHONON_P_DEFAULT)) <= 1e-3


@pytest.mark.parametrize("fit, log10_lo, log10_hi, message", [
    (calibrate_phonon_p, -15.0, -14.0, "log10_lo already fails"),
    (calibrate_phonon_p, -19.0, -18.0, "log10_hi still passes"),
    (calibrate_upsilon, 7.0, 8.0, "log10_lo already fails"),
    (calibrate_upsilon, 2.0, 3.0, "log10_hi still passes"),
], ids=["phonon_p-lo-fails", "phonon_p-hi-passes", "upsilon-lo-fails", "upsilon-hi-passes"])
def test_bracket_that_misses_the_boundary_is_rejected(fit, log10_lo, log10_hi, message):
    with pytest.raises(ValueError, match=message):
        fit(NoiseConfig(), log10_lo=log10_lo, log10_hi=log10_hi)


@pytest.mark.parametrize("fit, evaluations", [
    (calibrate_phonon_p, 2 + 6),
    (calibrate_upsilon, 2 + 12),
], ids=["phonon_p", "upsilon"])
def test_fit_evaluation_count(monkeypatch, fit, evaluations):
    # two bracket checks, then the root finder; bisection needs 12 halvings
    # of either default bracket, and the finder may never need more
    evaluate_point = calibration.evaluate_point
    calls = []

    def counting(point, noise, thresholds):
        calls.append(noise)
        return evaluate_point(point, noise, thresholds)

    monkeypatch.setattr(calibration, "evaluate_point", counting)
    fit(NoiseConfig())
    assert len(calls) == evaluations


def test_fit_builds_its_gradient_once(model_builds):
    # one eigensystem, one flip time and one noise-free generator per fit,
    # however many noise settings it evaluates; a second fit builds them again
    for fits in (1, 2):
        calibrate_upsilon(NoiseConfig())
        assert model_builds == {"flip_time": fits, "noise_free_part": fits,
                                "static_eigensystem": fits}
