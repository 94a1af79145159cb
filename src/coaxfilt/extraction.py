"""Material recovery from measured two-port data.

The symmetric-line response is reparameterized per frequency into an
interface reflection Gamma and a propagation factor P = exp(-gamma*l).
Gamma yields the characteristic impedance, P (after phase unwrapping
across the grid) yields the complex propagation constant, and the two
together separate eps and mu. The recovered table then predicts filters
of any other length built from the same compound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import C0, ETA0
from .errors import BranchAmbiguityError, ExtractionError, OpenCircuitError
from .txline import CoaxGeometry, MaterialModel, TwoPortResponse, _read_only

# |S11| below this is treated as a perfectly matched point (Gamma = 0).
_MATCHED_S11 = 1e-8

# Recovered Re(gamma) in (-_ALPHA_CLAMP, 0) is rounded up to 0; anything
# more negative is flagged as non-passive.
_ALPHA_CLAMP = 1e-9

_P_PASSIVE_TOL = 1e-9
_DBL_MIN = np.finfo(float).tiny  # the smallest normal float
_GAMMA_ROUNDING_TOL = 1e-6

# Why a grid point is unusable, indexed by the codes in reason arrays;
# code 0, the empty reason, marks a usable point.
REASONS = ("", "passivity-violation", "near-singular-inversion", "zero-transmission",
           "branch-ambiguity", "open-circuit", "negative-alpha", "unphysical-material")
_CODE = {reason: code for code, reason in enumerate(REASONS)}


@dataclass(frozen=True, eq=False)
class ExtractionReport:
    """Result of inverting one measured response.

    Every per-point column (gamma_refl through reason) has one read-only
    entry per grid point, NaN where its stage did not run: gamma and
    branch_index (a float column) past the unwrap, z_ohm past the
    open-circuit check. reason holds one REASONS code per point; flags maps
    the grid indices of unusable points to their reason. material is built
    from the unflagged points only.
    """

    gamma_refl: np.ndarray
    prop_factor: np.ndarray
    gamma: np.ndarray
    z_ohm: np.ndarray
    branch_index: np.ndarray
    reason: np.ndarray
    material: MaterialModel

    def __post_init__(self) -> None:
        for name, dtype in (("gamma_refl", complex), ("prop_factor", complex), ("gamma", complex),
                            ("z_ohm", complex), ("branch_index", float), ("reason", int)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))

    @cached_property
    def flags(self) -> dict[int, str]:
        return _flag_map(self.reason)


# CPython's complex arithmetic on real and imaginary arrays: numpy's complex
# multiply, divide and abs round differently, and outputs must stay bit-exact.
def _complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    z.real, z.imag = re, im
    return z


def _mul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _div(ar, ai, br, bi):
    """Smith's method as in CPython's _Py_c_quot; b == 0 gives NaN or inf."""
    by_re = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the branch not taken
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _sqrt(re, im):
    """cmath.sqrt as CPython's cmath_sqrt_impl computes it for finite input: np.sqrt
    differs in the last bit at Re = 0 and near the smallest normal float."""
    ax, ay = np.abs(re), np.abs(im)
    s = 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0))
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    if tiny.any():  # hypot(ax, ay) may be subnormal: scale by 2**53, back by 2**-27
        up = np.ldexp(ax, 53)
        s = np.where(tiny, np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, 53))), -27), s)
    d = ay / (2.0 * s)
    zero = (re == 0.0) & (im == 0.0)
    root_re = np.where(zero, 0.0, np.where(re >= 0.0, s, d))
    root_im = np.where(zero, im, np.copysign(np.where(re >= 0.0, d, s), im))
    finite = np.isfinite(re) & np.isfinite(im)
    if not finite.all():  # C99 special values, which cmath shares
        root = np.sqrt(_complex(re, im))
        root_re, root_im = np.where(finite, root_re, root.real), np.where(finite, root_im, root.imag)
    return root_re, root_im


def invert_points(s11, s21) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split (S11, S21) pairs into (Gamma, P, reason), elementwise.

    Uses K = (S11^2 - S21^2 + 1) / (2*S11) and picks the reflection root
    with |Gamma| <= 1. The two roots are exact reciprocals, so the large
    one is computed cancellation-free and the small one as its inverse.
    Matched points (|S11| < 1e-8) short-circuit to Gamma = 0, P = S21.
    reason is 0 where usable, else the REASONS code of passivity-violation
    (non-finite data, no root in |Gamma| <= 1 + 1e-6, or |P| > 1 + 1e-9 or
    not finite, as when |S| near 1e154 overflows),
    near-singular-inversion (|1 - (S11+S21)*Gamma| < 1e-12) or
    zero-transmission (P == 0).
    """
    s11, s21 = np.asarray(s11, dtype=complex), np.asarray(s21, dtype=complex)
    ar, ai, br, bi = s11.real, s11.imag, s21.real, s21.imag
    with np.errstate(all="ignore"):
        finite = np.isfinite(s11) & np.isfinite(s21)
        matched = np.hypot(ar, ai) < _MATCHED_S11
        sq11, sq21 = _mul(ar, ai, ar, ai), _mul(br, bi, br, bi)
        kr, ki = _div(sq11[0] - sq21[0] + 1.0, sq11[1] - sq21[1] + 0.0, *_mul(2.0, 0.0, ar, ai))
        kk = _mul(kr, ki, kr, ki)
        rr, ri = _sqrt(kk[0] - 1.0, kk[1])
        plus = np.hypot(kr + rr, ki + ri) >= np.hypot(kr - rr, ki - ri)
        big_r, big_i = np.where(plus, [kr + rr, ki + ri], [kr - rr, ki - ri])
        small_r, small_i = _div(1.0, 0.0, big_r, big_i)
        take_small = np.hypot(small_r, small_i) <= np.hypot(big_r, big_i)
        gr, gi = np.where(take_small, [small_r, small_i], [big_r, big_i])
        mag = np.hypot(gr, gi)
        no_root = ((big_r == 0.0) & (big_i == 0.0)) | (mag > 1.0 + _GAMMA_ROUNDING_TOL)
        # rounding guard only; keeps |Gamma| <= 1
        gr, gi = np.where(mag > 1.0, _div(gr, gi, mag, 0.0), [gr, gi])

        vr, vi = ar + br, ai + bi
        vg = _mul(vr, vi, gr, gi)
        den_r, den_i = 1.0 - vg[0], 0.0 - vg[1]
        singular = np.hypot(den_r, den_i) < 1e-12
        gamma_refl = np.where(matched, 0j, _complex(gr, gi))
        prop_factor = np.where(matched, s21, _complex(*_div(vr - gr, vi - gi, den_r, den_i)))
        p_mag = np.hypot(prop_factor.real, prop_factor.imag)
    reason = np.select(
        [~finite | (~matched & no_root), ~matched & singular,
         ~np.isfinite(prop_factor) | (p_mag > 1.0 + _P_PASSIVE_TOL), p_mag == 0.0],
        [_CODE[r] for r in ("passivity-violation", "near-singular-inversion",
                            "passivity-violation", "zero-transmission")],
    )
    return gamma_refl, prop_factor, reason


def unwrap_gamma(f_hz, p, length_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Recover gamma per point from P on an increasing frequency grid.

    gamma = -(ln|P| + i*unwrapped_arg(P)) / l, with the first point's
    phase taken as its principal value in (-pi, pi] and later points kept
    continuous. Returns the gammas and the 2*pi winding count applied at
    each point. Tiny negative real parts from rounding are clamped to 0;
    larger ones are returned as-is for the caller to flag. A phase step
    of at least pi raises BranchAmbiguityError naming its first interval.
    """
    if length_m <= 0.0:
        raise ValueError("length_m must be > 0 for unwrapping")
    f, p = np.asarray(f_hz, dtype=float), np.asarray(p, dtype=complex)
    if not p.size:
        return np.empty(0, dtype=complex), np.empty(0, dtype=int)
    if np.any(p == 0.0):
        raise ValueError("zero propagation factor; attenuation is unbounded at that point")

    phase = np.angle(p)
    wrapped = np.mod(np.diff(phase) + np.pi, 2.0 * np.pi) - np.pi
    bad = np.abs(wrapped) >= np.pi - 1e-12
    if np.any(bad):
        i = int(np.argmax(bad))
        raise BranchAmbiguityError(float(f[i]), float(f[i + 1]))
    unwrapped = np.concatenate(([phase[0]], phase[0] + np.cumsum(wrapped)))

    branch = np.rint((unwrapped - phase) / (2.0 * np.pi)).astype(int)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny length_m overflows to inf or NaN
        re = -np.log(np.abs(p)) / length_m
        re = np.where((re > -_ALPHA_CLAMP) & (re < 0.0), 0.0, re)
        im = -unwrapped / length_m
        return re + 1j * im, branch


def _open_circuit(gamma_refl: np.ndarray) -> np.ndarray:
    return np.hypot(1.0 - gamma_refl.real, gamma_refl.imag) < 1e-12


def impedance_from_reflection(gamma_refl, z0_ohm: float):
    """Bilinear map Z = z0 * (1 + Gamma) / (1 - Gamma), elementwise.

    Raises OpenCircuitError if any Gamma is at +1.
    """
    g = np.asarray(gamma_refl, dtype=complex)
    if np.any(_open_circuit(g)):
        raise OpenCircuitError("Gamma at +1; impedance is an open circuit")
    num = _mul(z0_ohm, 0.0, 1.0 + g.real, 0.0 + g.imag)
    return _complex(*_div(*num, 1.0 - g.real, 0.0 - g.imag))[()]


def material_from_points(gamma, z_ohm, geom: CoaxGeometry, f_hz):
    """Invert (gamma, Z) arrays, one entry per frequency, into material columns.

    n = Im(gamma)*c/(2*pi*f) recovers sqrt(eps*mu); w from the coaxial
    impedance formula recovers sqrt(mu/eps); their product and ratio
    separate mu and eps. alpha is Re(gamma) directly. Returns
    (eps_rel, mu_rel, alpha_np_per_m, unphysical): unphysical marks
    entries with n <= 0, w <= 0, eps below 1 - 1e-9 or a non-finite eps,
    mu or alpha, whose values are meaningless. eps in [1 - 1e-9, 1) is
    rounded up to exactly 1, a rounding guard for exactly-vacuum data.
    """
    gamma = np.asarray(gamma, dtype=complex)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n = gamma.imag * C0 / (2.0 * np.pi * np.asarray(f_hz, dtype=float))
        w = 2.0 * np.pi * np.asarray(z_ohm, dtype=float) / (ETA0 * geom.log_diameter_ratio)
        eps, mu = n / w, n * w
    alpha = gamma.real
    finite = np.isfinite(eps) & np.isfinite(mu) & np.isfinite(alpha)
    unphysical = ~((n > 0.0) & (w > 0.0) & (eps >= 1.0 - 1e-9) & finite)
    return np.maximum(eps, 1.0), mu, alpha, unphysical


def moving_median(values: np.ndarray, window: int) -> np.ndarray:
    """Odd-window moving median; windows are shifted, not shrunk, at edges.

    Gives what np.median gives on each window: the middle order statistic,
    with a median of -0.0 returned as +0.0 (signed zeros tie, so either
    may sit in the middle), and NaN for a window holding a NaN, namely the
    NaN np.median returns, the one np.partition places last.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    a = np.asarray(values, dtype=float)
    n = a.size
    if window == 1 or n == 0:
        return a.copy()
    w = min(window, n if n % 2 == 1 else n - 1)
    h = w // 2
    windows = sliding_window_view(a, w)
    med = np.partition(windows, h, axis=-1)[:, h] + 0.0
    if np.isnan(a).any():
        has_nan = np.isnan(windows).any(axis=-1)
        med[has_nan] = np.partition(windows[has_nan], [h, -1], axis=-1)[:, -1]
    # edge points take the first or last full window's median
    return np.pad(med, h, mode="edge")


def extract_material(
    measured: TwoPortResponse, geom: CoaxGeometry, smooth_window: int = 1
) -> ExtractionReport:
    """Invert a measured symmetric response into a MaterialModel.

    One array pass per stage: invert_points on every (S11, S21) pair,
    unwrap_gamma over the usable points (retried without the right-hand
    point of each ambiguous step), impedance_from_reflection on all but
    open-circuit points, material_from_points on the rest.
    Points that fail a stage are flagged and left out of the material
    table; more than 50% flagged raises ExtractionError. smooth_window
    (odd, 1 = off) applies a moving median to the eps, mu and alpha columns.
    """
    if geom.length_m <= 0.0:
        raise ValueError("geometry length must be > 0 for extraction")
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ValueError("smooth_window must be a positive odd integer")

    f = measured.grid.points_hz
    n = f.size
    if not n:
        raise ValueError("measured response has no grid points")
    gamma_refl, prop_factor, reason = invert_points(measured.s11, measured.s21)
    gamma, branch, z = np.full(n, np.nan, complex), np.full(n, np.nan), np.full(n, np.nan, complex)

    def refuse_if_unusable(any_left: bool) -> None:
        if np.count_nonzero(reason) > n / 2.0 or not any_left:
            flags = _flag_map(reason)
            summary = ", ".join(f"{r} x{k}" for r, k in count_flags(flags).items()) or "none"
            raise ExtractionError(f"{len(flags)} of {n} points unusable: {summary}", flags=flags)

    # Unwrapping is sequential; an ambiguous interval invalidates its
    # right-hand point, which is dropped before retrying.
    while True:
        rows = np.flatnonzero(reason == 0)
        refuse_if_unusable(rows.size > 0)
        try:
            gamma[rows], branch[rows] = unwrap_gamma(f[rows], prop_factor[rows], geom.length_m)
            break
        except BranchAmbiguityError as err:
            reason[np.searchsorted(f, err.f_hi)] = _CODE["branch-ambiguity"]

    reason[rows[_open_circuit(gamma_refl[rows])]] = _CODE["open-circuit"]
    rows = np.flatnonzero(reason == 0)
    z[rows] = impedance_from_reflection(gamma_refl[rows], measured.z0_ohm)
    eps, mu, alpha, unphysical = material_from_points(gamma[rows], z[rows].real, geom, f[rows])
    # negative-alpha is written last, so it wins where both apply
    reason[rows[unphysical]] = _CODE["unphysical-material"]
    reason[rows[alpha < 0.0]] = _CODE["negative-alpha"]
    good = reason[rows] == 0
    refuse_if_unusable(good.any())

    # An odd-window median always returns one of the input values, so the
    # smoothed columns cannot leave the valid material domain.
    material = MaterialModel(
        f[rows[good]], *(moving_median(c[good], smooth_window) for c in (eps, mu, alpha))
    )
    return ExtractionReport(gamma_refl, prop_factor, gamma, z, branch, reason, material)


def _flag_map(reason: np.ndarray) -> dict[int, str]:
    idx = np.flatnonzero(reason)
    return {i: REASONS[c] for i, c in zip(idx.tolist(), reason[idx].tolist())}


def count_flags(flags: dict[int, str]) -> dict[str, int]:
    """Number of flagged points per reason, the reasons sorted by name."""
    return dict(sorted(Counter(flags.values()).items()))
