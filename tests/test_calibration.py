"""The frozen noise constants are reproducible from the calibration fits."""
import math

import pytest

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
