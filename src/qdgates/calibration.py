"""One-time calibration of the free noise constants upsilon and phonon_p.

The two constants are not fixed by the rate formulas, so they are fitted
once against reference operating-range targets for the two-spin gate and
then frozen as the package defaults:

* phonon_p is chosen so that, on the high-field reference line
  (B_target = 1 T, B_ac = 4 mT, J = 0.42 ueV), the upper end of the
  passing gradient run puts the control field at B_CONTROL_TARGET;
* upsilon is chosen so that, on the low-field reference line
  (B_target = 8 mT, B_ac = 0.04 mT, J = 4.2 neV), the lower end of the
  passing run sits at GRADIENT_LOW_TARGET.

Each fit is a one-dimensional bisection on the log of the constant, using
the monotone dependence of the boundary on the rate strength, through
`analysis.bisect_boundary`, the bisection that also refines range
boundaries.  The resulting pair is frozen in the noise module; this
module exists so the fit can be reproduced.
"""
from __future__ import annotations

from dataclasses import replace

from .analysis import SweepTemplate, Thresholds, bisect_boundary, evaluate_point
from .device import CNOT
from .noise import NoiseConfig

HIGH_ROW = SweepTemplate(gate=CNOT, fixed_field=1.0, b_ac=0.004, exchange=(0.42,))
LOW_ROW = SweepTemplate(gate=CNOT, fixed_field=0.008, b_ac=4e-5, exchange=(0.0042,))

B_CONTROL_TARGET = 3.01       # tesla, upper bound of the high-field row
GRADIENT_LOW_TARGET = 0.0075  # tesla, lower bound of the low-field row

# The low-field target must stay clearly below the fixed target field:
# there the boundary is owned by the gradient-sensitive pump channel of
# the second-lowest state (gap 2 g mu_B (B_C - B_T)), while the lowest
# state's own channel (gap 2 g mu_B B_T, independent of the gradient)
# keeps a wide margin.  Targets at or above ~B_T put both states on a
# knife edge and can empty the row.


def _fit_log10(row: SweepTemplate, gradient: float, base: NoiseConfig, field: str,
               log10_lo: float, log10_hi: float, tol: float) -> float:
    """Bisect log10 of the noise constant `field` where `row` stops passing at
    `gradient`; the bracket must pass at log10_lo and fail at log10_hi."""
    def passes(log10_value):
        noise = replace(base, **{field: 10.0 ** log10_value})
        return evaluate_point(row, gradient, noise, Thresholds()).passed

    if not passes(log10_lo):
        raise ValueError("log10_lo already fails at the target gradient")
    if passes(log10_hi):
        raise ValueError("log10_hi still passes at the target gradient")
    return 10.0 ** bisect_boundary(passes, log10_lo, log10_hi, tol)


def calibrate_phonon_p(base: NoiseConfig, *, log10_lo: float = -18.0,
                       log10_hi: float = -15.0, tol: float = 1e-3) -> float:
    """Fit phonon_p so the high-field upper boundary lands on target.

    The pass/fail outcome exactly at the target gradient is monotone in
    phonon_p (stronger noise fails earlier), so the fitted constant is the
    value at which that outcome flips.
    """
    return _fit_log10(HIGH_ROW, B_CONTROL_TARGET - HIGH_ROW.fixed_field, base,
                      "phonon_p", log10_lo, log10_hi, tol)


def calibrate_upsilon(base: NoiseConfig, *, log10_lo: float = 3.0,
                      log10_hi: float = 7.0, tol: float = 1e-3) -> float:
    """Fit upsilon so the low-field lower boundary lands on target.

    At the target gradient the configuration passes for weak hyperfine
    noise and fails for strong, so the fit bisects the flip point.
    """
    return _fit_log10(LOW_ROW, GRADIENT_LOW_TARGET, base, "upsilon",
                      log10_lo, log10_hi, tol)


def run_calibration() -> dict:
    """Full calibration pass; returns the fitted constants."""
    base = NoiseConfig()
    phonon_p = calibrate_phonon_p(base)
    upsilon = calibrate_upsilon(replace(base, phonon_p=phonon_p))
    return {"upsilon": upsilon, "phonon_p": phonon_p}


if __name__ == "__main__":
    constants = run_calibration()
    print(f"upsilon  = {constants['upsilon']:.6g}")
    print(f"phonon_p = {constants['phonon_p']:.6g}")
