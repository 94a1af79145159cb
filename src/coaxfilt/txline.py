"""Forward model of a finite lossy coaxial line.

A filter is treated as a uniform coaxial transmission line of length l
filled with an effective medium described by real eps_rel, mu_rel and a
loss constant alpha. The module provides the propagation constant, the
coaxial characteristic impedance, the closed-form two-port S-parameters,
and an independent ABCD-matrix path used as a numerical oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import C0, ETA0
from .errors import FrequencyRangeError, SingularNetworkError

# Sentinel for 20*log10(0); below any physical measurement floor.
DB_FLOOR = -300.0

# Beyond this attenuation exp(-gamma*l) is treated as exactly zero.
_ALPHA_L_CUTOFF = 700.0


@dataclass(frozen=True)
class CoaxGeometry:
    """Physical dimensions of one filter, all in meters."""

    length_m: float
    inner_d_m: float
    outer_d_m: float

    def __post_init__(self) -> None:
        if not 0.0 < self.inner_d_m < self.outer_d_m:
            raise ValueError(
                f"need 0 < inner_d_m < outer_d_m, got d={self.inner_d_m}, D={self.outer_d_m}"
            )
        if self.length_m < 0.0:
            raise ValueError(f"length_m must be >= 0, got {self.length_m}")

    @property
    def diameter_ratio(self) -> float:
        return self.outer_d_m / self.inner_d_m

    @property
    def log_diameter_ratio(self) -> float:
        return math.log(self.outer_d_m / self.inner_d_m)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing frequency points in Hz, DC excluded."""

    points_hz: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points_hz, dtype=float)
        object.__setattr__(self, "points_hz", pts)
        if pts.ndim != 1:
            raise ValueError("frequency grid must be one-dimensional")
        if pts.size and pts[0] <= 0.0:
            raise ValueError("all grid frequencies must be > 0 (DC excluded)")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid frequencies must be strictly increasing")

    def __len__(self) -> int:
        return int(self.points_hz.size)

    @staticmethod
    def linear(f_start_hz: float, f_stop_hz: float, n_points: int) -> "FrequencyGrid":
        if n_points < 1:
            raise ValueError("n_points must be >= 1")
        if n_points == 1:
            return FrequencyGrid(np.array([f_start_hz]))
        return FrequencyGrid(np.linspace(f_start_hz, f_stop_hz, n_points))


@dataclass(frozen=True)
class MaterialSample:
    """Effective compound parameters at one frequency."""

    f_hz: float
    eps_rel: float
    mu_rel: float
    alpha_np_per_m: float

    def __post_init__(self) -> None:
        # Each test also refuses NaN, which fails every comparison, and inf.
        # Extraction builds thousands of samples, so keep these to one
        # chained comparison each.
        inf = math.inf
        if not -inf < self.f_hz < inf:
            raise ValueError(f"f_hz must be finite, got {self.f_hz}")
        if not 1.0 <= self.eps_rel < inf:
            raise ValueError(f"eps_rel must be finite and >= 1, got {self.eps_rel}")
        if not 0.0 < self.mu_rel < inf:
            raise ValueError(f"mu_rel must be finite and > 0, got {self.mu_rel}")
        if not 0.0 <= self.alpha_np_per_m < inf:
            raise ValueError(f"alpha_np_per_m must be finite and >= 0, got {self.alpha_np_per_m}")


class MaterialModel:
    """Tabulated eps/mu/alpha with piecewise-linear interpolation in f.

    A single sample means a frequency-independent material. With two or
    more samples, evaluation outside [f_min, f_max] raises; there is no
    extrapolation.
    """

    def __init__(self, samples: list[MaterialSample] | tuple[MaterialSample, ...]):
        samples = tuple(samples)
        if not samples:
            raise ValueError("material model needs at least one sample")
        f = np.array([s.f_hz for s in samples])
        if f.size > 1 and not np.all(np.diff(f) > 0.0):
            raise ValueError("material samples must be on a strictly increasing grid")
        self.samples = samples
        self._f = f
        self._eps = np.array([s.eps_rel for s in samples])
        self._mu = np.array([s.mu_rel for s in samples])
        self._alpha = np.array([s.alpha_np_per_m for s in samples])
        for column in self.table:
            column.flags.writeable = False

    @classmethod
    def constant(cls, eps_rel: float, mu_rel: float, alpha_np_per_m: float) -> "MaterialModel":
        return cls([MaterialSample(1.0, eps_rel, mu_rel, alpha_np_per_m)])

    @classmethod
    def from_arrays(cls, f_hz, eps_rel, mu_rel, alpha_np_per_m) -> "MaterialModel":
        return cls(
            [
                MaterialSample(float(f), float(e), float(m), float(a))
                for f, e, m, a in zip(f_hz, eps_rel, mu_rel, alpha_np_per_m)
            ]
        )

    @property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tabulated (f_hz, eps_rel, mu_rel, alpha_np_per_m) columns, read-only."""
        return self._f, self._eps, self._mu, self._alpha

    @property
    def f_min_hz(self) -> float:
        return float(self._f[0])

    @property
    def f_max_hz(self) -> float:
        return float(self._f[-1])

    def covers(self, f_hz) -> bool:
        if len(self.samples) == 1:
            return True
        f = np.asarray(f_hz, dtype=float)
        return bool(np.all(f >= self._f[0]) and np.all(f <= self._f[-1]))

    def eval(self, f_hz):
        """Interpolated (eps_rel, mu_rel, alpha_np_per_m) at f_hz.

        Accepts a scalar or an array; shapes follow numpy broadcasting.
        """
        f = np.asarray(f_hz, dtype=float)
        if len(self.samples) == 1:
            one = np.ones_like(f)
            return self._eps[0] * one, self._mu[0] * one, self._alpha[0] * one
        if not self.covers(f):
            raise FrequencyRangeError(
                f"frequency outside material range [{self._f[0]:g}, {self._f[-1]:g}] Hz"
            )
        eps = np.interp(f, self._f, self._eps)
        mu = np.interp(f, self._f, self._mu)
        alpha = np.interp(f, self._f, self._alpha)
        return eps, mu, alpha


@dataclass(frozen=True)
class LinePointParams:
    """Derived line quantities at one frequency."""

    f_hz: float
    z_ohm: float
    gamma: complex

    def __post_init__(self) -> None:
        if self.z_ohm <= 0.0:
            raise ValueError("z_ohm must be > 0")
        if self.gamma.real < 0.0 or self.gamma.imag < 0.0:
            raise ValueError("gamma must have non-negative real and imaginary parts")


@dataclass
class TwoPortResponse:
    """Complex S11/S21 of a symmetric reciprocal two-port on a grid.

    By construction S22 == S11 and S12 == S21, so only one of each pair
    is stored. z0_ohm is the reference impedance of the ports.
    """

    grid: FrequencyGrid
    s11: np.ndarray
    s21: np.ndarray
    z0_ohm: float = 50.0

    def __post_init__(self) -> None:
        self.s11 = np.asarray(self.s11, dtype=complex)
        self.s21 = np.asarray(self.s21, dtype=complex)
        n = len(self.grid)
        if self.s11.shape != (n,) or self.s21.shape != (n,):
            raise ValueError("s11/s21 lengths must equal the grid length")
        if self.z0_ohm <= 0.0:
            raise ValueError("z0_ohm must be > 0")


def propagation_constant(mat: MaterialModel, f_hz):
    """gamma(f) = alpha(f) + i * 2*pi*f * sqrt(eps(f)*mu(f)) / c, in 1/m."""
    eps, mu, alpha = mat.eval(f_hz)
    f = np.asarray(f_hz, dtype=float)
    gamma = alpha + 1j * (2.0 * np.pi * f) * np.sqrt(eps * mu) / C0
    if np.isscalar(f_hz):
        return complex(gamma)
    return gamma


def characteristic_impedance(geom: CoaxGeometry, mat: MaterialModel, f_hz):
    """Coaxial characteristic impedance (eta0/2pi)*sqrt(mu/eps)*ln(D/d), Ohm."""
    eps, mu, _ = mat.eval(f_hz)
    z = ETA0 / (2.0 * np.pi) * np.sqrt(mu / eps) * geom.log_diameter_ratio
    if np.isscalar(f_hz):
        return float(z)
    return z


def line_point_params(geom: CoaxGeometry, mat: MaterialModel, f_hz: float) -> LinePointParams:
    return LinePointParams(
        f_hz=float(f_hz),
        z_ohm=characteristic_impedance(geom, mat, float(f_hz)),
        gamma=propagation_constant(mat, float(f_hz)),
    )


def s_params_model(
    geom: CoaxGeometry,
    mat: MaterialModel,
    grid: FrequencyGrid,
    z0_ohm: float = 50.0,
) -> TwoPortResponse:
    """Two-port S-parameters of the finite line over the grid.

    With r = Z/Z0 and x = gamma*l:

        S21 = 2 / (2*cosh(x) + sinh(x)*(r + 1/r))
        S11 = (r - 1/r) * sinh(x) / (2*cosh(x) + sinh(x)*(r + 1/r))

    Both are evaluated with e^(+x) factored out, keeping only decaying
    exponentials, so large alpha*l cannot overflow. l = 0 reduces exactly
    to the identity two-port (S21 = 1, S11 = 0).
    """
    f = grid.points_hz
    gamma = np.atleast_1d(propagation_constant(mat, f))
    z = np.atleast_1d(characteristic_impedance(geom, mat, f))
    r = z / z0_ohm
    rr = r + 1.0 / r

    x = gamma * geom.length_m
    u = np.exp(-x)
    w = np.exp(-2.0 * x)
    den = (1.0 + w) + (1.0 - w) * rr / 2.0
    s21 = 2.0 * u / den
    s11 = (r - 1.0 / r) * (1.0 - w) / 2.0 / den

    # exp(-x) underflows anyway past ~745; pin the documented cutoff and use
    # the r-only limit of the reflection (coth -> 1).
    dead = x.real > _ALPHA_L_CUTOFF
    if np.any(dead):
        s21 = np.where(dead, 0.0 + 0.0j, s21)
        s11 = np.where(dead, (r - 1.0 / r) / (2.0 + rr) + 0.0j, s11)

    return TwoPortResponse(grid=grid, s11=s11, s21=s21, z0_ohm=z0_ohm)


def abcd_of_line(geom: CoaxGeometry, mat: MaterialModel, f_hz: float) -> np.ndarray:
    """Chain matrix of the line at one frequency.

    A = D = cosh(gamma*l), B = Z*sinh(gamma*l), C = sinh(gamma*l)/Z.
    Independent of s_params_model; used as its oracle.
    """
    gamma = propagation_constant(mat, float(f_hz))
    z = characteristic_impedance(geom, mat, float(f_hz))
    x = gamma * geom.length_m
    ch = cmath.cosh(x)
    sh = cmath.sinh(x)
    return np.array([[ch, z * sh], [sh / z, ch]], dtype=complex)


def abcd_to_s(abcd: np.ndarray, z0_ohm: float) -> tuple[complex, complex]:
    """(S11, S21) of a chain matrix referenced to z0_ohm."""
    if z0_ohm <= 0.0:
        raise ValueError("z0_ohm must be > 0")
    a, b = abcd[0, 0], abcd[0, 1]
    c, d = abcd[1, 0], abcd[1, 1]
    den = a + b / z0_ohm + c * z0_ohm + d
    if abs(den) < 1e-30:
        raise SingularNetworkError("ABCD-to-S denominator magnitude below 1e-30")
    s11 = (a + b / z0_ohm - c * z0_ohm - d) / den
    s21 = 2.0 / den
    return complex(s11), complex(s21)


def cascade(abcd_a: np.ndarray, abcd_b: np.ndarray) -> np.ndarray:
    """Chain two ABCD blocks (port 2 of a into port 1 of b)."""
    return abcd_a @ abcd_b


def magnitude_db(s):
    """20*log10(|s|) with exact zeros mapped to the -300 dB floor sentinel."""
    mag = np.abs(np.asarray(s))
    with np.errstate(divide="ignore"):
        db = np.where(mag > 0.0, 20.0 * np.log10(np.where(mag > 0.0, mag, 1.0)), DB_FLOOR)
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(db)
    return db
