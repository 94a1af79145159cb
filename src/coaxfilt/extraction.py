"""Material recovery from measured two-port data, and cross-length prediction.

The symmetric-line response is reparameterized per frequency into an
interface reflection Gamma and a propagation factor P = exp(-gamma*l).
Gamma yields the characteristic impedance, P (after phase unwrapping
across the grid) yields the complex propagation constant, and the two
together separate eps and mu. The recovered table then predicts filters
of any other length built from the same compound.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .constants import C0, ETA0
from .errors import (
    BranchAmbiguityError,
    ExtractionError,
    NonPassiveDataError,
    OpenCircuitError,
    SingularInversionError,
)
from .txline import (
    CoaxGeometry,
    MaterialModel,
    TwoPortResponse,
)

# |S11| below this is treated as a perfectly matched point (Gamma = 0).
_MATCHED_S11 = 1e-8

# Recovered Re(gamma) in (-_ALPHA_CLAMP, 0) is rounded up to 0; anything
# more negative is flagged as non-passive.
_ALPHA_CLAMP = 1e-9

_P_PASSIVE_TOL = 1e-9
_GAMMA_ROUNDING_TOL = 1e-6


@dataclass(frozen=True)
class ExtractionPoint:
    """Per-frequency inversion intermediates."""

    f_hz: float
    gamma_refl: complex
    prop_factor: complex
    gamma: complex
    z_ohm: complex
    branch_index: int


@dataclass
class ExtractionReport:
    """Result of inverting one measured response.

    points holds every frequency that survived point inversion, flagged
    or not; flags maps grid indices of unusable points to a short reason;
    material is built from the unflagged points only.
    """

    points: list[ExtractionPoint]
    material: MaterialModel
    asymmetry_max: float
    flags: dict[int, str] = field(default_factory=dict)


def invert_point(s11: complex, s21: complex) -> tuple[complex, complex]:
    """Split one (S11, S21) pair into (Gamma, P).

    Uses K = (S11^2 - S21^2 + 1) / (2*S11) and picks the reflection root
    with |Gamma| <= 1. The two roots are exact reciprocals, so the large
    one is computed cancellation-free and the small one as its inverse.
    Matched points (|S11| < 1e-8) short-circuit to Gamma = 0, P = S21.
    """
    s11 = complex(s11)
    s21 = complex(s21)
    if not all(map(math.isfinite, (s11.real, s11.imag, s21.real, s21.imag))):
        raise NonPassiveDataError("non-finite S-parameters")

    if abs(s11) < _MATCHED_S11:
        return 0.0 + 0.0j, s21

    k = (s11 * s11 - s21 * s21 + 1.0) / (2.0 * s11)
    root = cmath.sqrt(k * k - 1.0)
    big = k + root if abs(k + root) >= abs(k - root) else k - root
    if big == 0.0:
        raise NonPassiveDataError("degenerate reflection roots")
    small = 1.0 / big
    gamma_refl = small if abs(small) <= abs(big) else big
    mag = abs(gamma_refl)
    if mag > 1.0 + _GAMMA_ROUNDING_TOL:
        raise NonPassiveDataError(f"both reflection roots outside unit disk (|G|={mag:.6g})")
    if mag > 1.0:
        gamma_refl /= mag  # rounding guard only; keeps |Gamma| <= 1

    v = s11 + s21
    den = 1.0 - v * gamma_refl
    if abs(den) < 1e-12:
        raise SingularInversionError("1 - (S11+S21)*Gamma vanished; point not invertible")
    prop_factor = (v - gamma_refl) / den
    return gamma_refl, prop_factor


def unwrap_gamma(
    points: list[tuple[float, complex]], length_m: float
) -> tuple[list[complex], list[int]]:
    """Recover gamma per point from ordered (f_hz, P) pairs.

    gamma = -(ln|P| + i*unwrapped_arg(P)) / l, with the first point's
    phase taken as its principal value in (-pi, pi] and later points kept
    continuous. Returns the gammas and the 2*pi winding count applied at
    each point. Tiny negative real parts from rounding are clamped to 0;
    larger ones are returned as-is for the caller to flag.
    """
    if length_m <= 0.0:
        raise ValueError("length_m must be > 0 for unwrapping")
    if not points:
        return [], []
    f = np.array([p[0] for p in points], dtype=float)
    p = np.array([p[1] for p in points], dtype=complex)
    if np.any(p == 0.0):
        raise ValueError("zero propagation factor; attenuation is unbounded at that point")

    phase = np.angle(p)
    if len(points) > 1:
        steps = np.diff(phase)
        wrapped = np.mod(steps + np.pi, 2.0 * np.pi) - np.pi
        bad = np.abs(wrapped) >= np.pi - 1e-12
        if np.any(bad):
            i = int(np.argmax(bad))
            raise BranchAmbiguityError(float(f[i]), float(f[i + 1]))
        unwrapped = np.concatenate(([phase[0]], phase[0] + np.cumsum(wrapped)))
    else:
        unwrapped = phase

    branch = np.rint((unwrapped - phase) / (2.0 * np.pi)).astype(int)
    re = -np.log(np.abs(p)) / length_m
    re = np.where((re > -_ALPHA_CLAMP) & (re < 0.0), 0.0, re)
    im = -unwrapped / length_m
    gammas = re + 1j * im
    return [complex(g) for g in gammas], [int(b) for b in branch]


def impedance_from_reflection(gamma_refl: complex, z0_ohm: float) -> complex:
    """Bilinear map Z = z0 * (1 + Gamma) / (1 - Gamma)."""
    den = 1.0 - gamma_refl
    if abs(den) < 1e-12:
        raise OpenCircuitError("Gamma at +1; impedance is an open circuit")
    return z0_ohm * (1.0 + gamma_refl) / den


def material_from_points(gamma, z_ohm, geom: CoaxGeometry, f_hz):
    """Invert (gamma, Z) arrays, one entry per frequency, into material columns.

    n = Im(gamma)*c/(2*pi*f) recovers sqrt(eps*mu); w from the coaxial
    impedance formula recovers sqrt(mu/eps); their product and ratio
    separate mu and eps. alpha is Re(gamma) directly. Returns
    (eps_rel, mu_rel, alpha_np_per_m, unphysical): unphysical marks
    entries with n <= 0, w <= 0 or eps below 1 - 1e-9, whose values are
    meaningless. eps in [1 - 1e-9, 1) is rounded up to exactly 1, a
    rounding guard for exactly-vacuum data.
    """
    gamma = np.asarray(gamma, dtype=complex)
    n = gamma.imag * C0 / (2.0 * np.pi * np.asarray(f_hz, dtype=float))
    w = 2.0 * np.pi * np.asarray(z_ohm, dtype=float) / (ETA0 * geom.log_diameter_ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = n / w
    unphysical = ~((n > 0.0) & (w > 0.0) & (eps >= 1.0 - 1e-9))
    return np.maximum(eps, 1.0), n * w, gamma.real, unphysical


def moving_median(values: np.ndarray, window: int) -> np.ndarray:
    """Odd-window moving median; windows are shifted, not shrunk, at edges."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    a = np.asarray(values, dtype=float)
    n = a.size
    if window == 1 or n == 0:
        return a.copy()
    w = min(window, n if n % 2 == 1 else n - 1)
    h = w // 2
    out = np.empty_like(a)
    for i in range(n):
        lo = min(max(i - h, 0), n - w)
        out[i] = np.median(a[lo : lo + w])
    return out


def extract_material(
    measured: TwoPortResponse,
    geom: CoaxGeometry,
    smooth_window: int = 1,
    asymmetry_max: float = 0.0,
) -> ExtractionReport:
    """Invert a measured symmetric response into a MaterialModel.

    Runs invert_point per frequency, unwraps the propagation factor
    across the grid, and converts the surviving points to material
    columns in one array pass. Points that fail any stage are flagged and excluded from the
    material table; more than 50% flagged raises ExtractionError.
    smooth_window (odd, 1 = off) applies a moving median to the
    recovered eps, mu and alpha columns.
    """
    if geom.length_m <= 0.0:
        raise ValueError("geometry length must be > 0 for extraction")
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ValueError("smooth_window must be a positive odd integer")

    f = measured.grid.points_hz
    n = len(measured.grid)
    flags: dict[int, str] = {}
    inverted: dict[int, tuple[complex, complex]] = {}

    for i in range(n):
        try:
            g, p = invert_point(measured.s11[i], measured.s21[i])
        except NonPassiveDataError:
            flags[i] = "passivity-violation"
            continue
        except SingularInversionError:
            flags[i] = "near-singular-inversion"
            continue
        if abs(p) > 1.0 + _P_PASSIVE_TOL:
            flags[i] = "passivity-violation"
            continue
        if abs(p) == 0.0:
            flags[i] = "zero-transmission"
            continue
        inverted[i] = (g, p)

    def too_many_flagged() -> bool:
        return len(flags) > n / 2.0

    # Unwrapping is sequential; an ambiguous interval invalidates its
    # right-hand point, which is dropped before retrying.
    active = sorted(inverted)
    while True:
        if too_many_flagged() or not active:
            raise ExtractionError(
                f"{len(flags)} of {n} points unusable: "
                + _summarize_flags(flags),
                flags=flags,
            )
        try:
            gammas, branches = unwrap_gamma(
                [(float(f[i]), inverted[i][1]) for i in active], geom.length_m
            )
            break
        except BranchAmbiguityError as err:
            victim = next(i for i in active if float(f[i]) == err.f_hi)
            flags[victim] = "branch-ambiguity"
            active.remove(victim)

    points: list[ExtractionPoint] = []
    kept: list[tuple[int, ExtractionPoint]] = []  # candidates for the material table
    for i, gamma, branch in zip(active, gammas, branches):
        g_refl, p = inverted[i]
        try:
            z = impedance_from_reflection(g_refl, measured.z0_ohm)
        except OpenCircuitError:
            flags[i] = "open-circuit"
            continue
        point = ExtractionPoint(
            f_hz=float(f[i]),
            gamma_refl=g_refl,
            prop_factor=p,
            gamma=gamma,
            z_ohm=z,
            branch_index=branch,
        )
        points.append(point)
        if gamma.real < 0.0:
            flags[i] = "negative-alpha"
        else:
            kept.append((i, point))

    fs = np.array([pt.f_hz for _, pt in kept])
    eps, mu, alpha, unphysical = material_from_points(
        [pt.gamma for _, pt in kept], [pt.z_ohm.real for _, pt in kept], geom, fs
    )
    for k in np.flatnonzero(unphysical):
        flags[kept[k][0]] = "unphysical-material"
    good = ~unphysical
    if too_many_flagged() or not good.any():
        raise ExtractionError(
            f"{len(flags)} of {n} points unusable: " + _summarize_flags(flags),
            flags=flags,
        )

    # An odd-window median always returns one of the input values, so the
    # smoothed columns cannot leave the valid material domain.
    material = MaterialModel.from_arrays(
        fs[good],
        moving_median(eps[good], smooth_window),
        moving_median(mu[good], smooth_window),
        moving_median(alpha[good], smooth_window),
    )

    return ExtractionReport(
        points=points,
        material=material,
        asymmetry_max=asymmetry_max,
        flags=flags,
    )


def count_flags(flags: dict[int, str]) -> dict[str, int]:
    """Number of flagged points per reason, in reason order."""
    return dict(sorted(Counter(flags.values()).items()))


def _summarize_flags(flags: dict[int, str]) -> str:
    parts = [f"{reason} x{count}" for reason, count in count_flags(flags).items()]
    return ", ".join(parts) if parts else "none"
