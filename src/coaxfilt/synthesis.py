"""Design-direction operations: geometry for a target impedance, length for
a target attenuation slope, and compliance checking of a response."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ETA0, NP_TO_DB
from .errors import InsufficientDataError, NoSolutionError, UnsupportedMaterialError
from .txline import MaterialModel, TwoPortResponse, magnitude_db
from .txline import _require_finite_fields, _require_positive

_AFFINE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class ComplianceTargets:
    """Pass/fail thresholds for a finished design.

    Defaults are the usual headline numbers for this filter class: at most
    -20 dB reflection up to 20 GHz and a 1 dB/GHz transmission slope held
    to 10%. Every value is overridable and must be finite.
    """

    reflection_ceiling_db: float = -20.0
    band_max_hz: float = 20e9
    slope_target_db_per_ghz: float = 1.0
    slope_tolerance_rel: float = 0.1

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.reflection_ceiling_db >= 0.0:
            raise ValueError("reflection_ceiling_db must be < 0")
        if self.band_max_hz <= 0.0:
            raise ValueError("band_max_hz must be > 0")
        if self.slope_target_db_per_ghz < 0.0:
            raise ValueError("slope_target_db_per_ghz must be >= 0")
        if self.slope_tolerance_rel < 0.0:
            raise ValueError("slope_tolerance_rel must be >= 0")


@dataclass(frozen=True)
class ComplianceReport:
    reflection_pass: bool
    worst_reflection_db: float
    worst_reflection_f_hz: float
    fitted_slope_db_per_ghz: float
    fitted_intercept_db: float
    max_linearity_residual_db: float
    slope_pass: bool

    @property
    def passed(self) -> bool:
        return self.reflection_pass and self.slope_pass


def solve_diameter_ratio(target_z_ohm: float, mat: MaterialModel, f_ref_hz: float) -> float:
    """D/d giving the target characteristic impedance at f_ref.

    Inverse of the coaxial impedance formula:
    D/d = exp(2*pi*Z / (eta0 * sqrt(mu/eps))). Raises NoSolutionError
    when that D/d is not in (1, inf), as for a target so small that D/d
    rounds to 1 or so large that it overflows.
    """
    _require_positive("target_z_ohm", target_z_ohm)
    _require_positive("f_ref_hz", f_ref_hz)
    eps, mu, _ = mat.eval(f_ref_hz)
    try:
        ratio = math.exp(2.0 * math.pi * target_z_ohm / (ETA0 * math.sqrt(mu / eps)))
    except OverflowError:
        ratio = math.inf
    if not 1.0 < ratio < math.inf:
        raise NoSolutionError(f"no finite D/d > 1 gives {target_z_ohm:g} Ohm (D/d = {ratio:g})")
    return ratio


def alpha_affine_fit(mat: MaterialModel) -> tuple[float, float, float]:
    """Least-squares affine fit alpha(f) = a0 + a1*f over the samples.

    Returns (a0, a1, relative_residual) where the residual is the max
    absolute fit error normalized by the largest |alpha| (0 if alpha is
    identically zero). A single-sample material fits as constant.
    """
    f, _, _, alpha = mat.table
    if len(mat) == 1:
        return float(alpha[0]), 0.0, 0.0
    a1, a0 = np.polyfit(f, alpha, 1)
    resid = np.max(np.abs(a0 + a1 * f - alpha))
    scale = np.max(np.abs(alpha))
    rel = float(resid / scale) if scale > 0.0 else 0.0
    return float(a0), float(a1), rel


def solve_length_for_slope(target_slope_db_per_ghz: float, mat: MaterialModel) -> float:
    """Line length giving the target matched-line |S21| slope in dB/GHz.

    A matched line has |S21|_dB(f) = -NP_TO_DB * alpha(f) * l, so an
    affine alpha = a0 + a1*f yields slope NP_TO_DB * a1 * l per Hz.
    """
    _require_positive("target_slope_db_per_ghz", target_slope_db_per_ghz)
    _, a1, rel = alpha_affine_fit(mat)
    if rel >= _AFFINE_RESIDUAL_TOL:
        raise UnsupportedMaterialError(
            f"alpha is not affine in f (relative residual {rel:.3g})"
        )
    # the fit of constant data can return a slope at rounding level; treat a
    # slope contributing nothing across the band as zero
    span = mat.f_max_hz - mat.f_min_hz
    scale = float(np.max(mat.table[3]))
    if a1 <= 0.0 or a1 * span <= 1e-12 * scale:
        raise NoSolutionError("alpha slope is not positive; no length gives the target")
    length = target_slope_db_per_ghz / (NP_TO_DB * a1 * 1e9)
    if length == math.inf:
        raise NoSolutionError(f"no finite length gives {target_slope_db_per_ghz:g} dB/GHz")
    return length


def check_compliance(
    resp: TwoPortResponse, targets: ComplianceTargets | None = None
) -> ComplianceReport:
    """Grade a response against reflection and transmission-slope targets.

    Reflection passes iff every in-band 20*log10|S11| is below the
    ceiling. The slope is an ordinary least-squares fit of the loss
    -20*log10|S21| in dB against frequency in GHz over the in-band grid.
    """
    targets = targets or ComplianceTargets()
    f = resp.grid.points_hz
    band = f <= targets.band_max_hz
    if int(np.count_nonzero(band)) < 2:
        raise InsufficientDataError(
            f"need at least 2 grid points at or below {targets.band_max_hz:g} Hz"
        )

    f_in = f[band]
    s11_db = magnitude_db(resp.s11[band])
    s21_db = magnitude_db(resp.s21[band])

    i_worst = int(np.argmax(s11_db))
    worst_db = float(s11_db[i_worst])
    reflection_pass = bool(np.all(s11_db < targets.reflection_ceiling_db))

    x = f_in / 1e9
    y = -s21_db
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(slope * x + intercept - y)))

    target = targets.slope_target_db_per_ghz
    if target > 0.0:
        slope_pass = abs(slope - target) / target <= targets.slope_tolerance_rel
    else:
        slope_pass = abs(slope) <= targets.slope_tolerance_rel

    return ComplianceReport(
        reflection_pass=reflection_pass,
        worst_reflection_db=worst_db,
        worst_reflection_f_hz=float(f_in[i_worst]),
        fitted_slope_db_per_ghz=float(slope),
        fitted_intercept_db=float(intercept),
        max_linearity_residual_db=residual,
        slope_pass=bool(slope_pass),
    )
