"""Forward model of a finite lossy coaxial line.

A filter is treated as a uniform coaxial transmission line of length l
filled with an effective medium described by real eps_rel, mu_rel and a
loss constant alpha. The module provides the propagation constant, the
coaxial characteristic impedance, the closed-form two-port S-parameters,
and an independent ABCD-matrix path used as a numerical oracle.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .constants import C0, ETA0
from .errors import FrequencyRangeError, RowError, SingularNetworkError

# Sentinel for 20*log10(0); below any physical measurement floor.
DB_FLOOR = -300.0

# Beyond this attenuation exp(-gamma*l) is treated as exactly zero.
_ALPHA_L_CUTOFF = 700.0


def _not_increasing(x: np.ndarray) -> np.ndarray:
    """Mask of the entries not above their predecessor (never the first)."""
    bad = np.zeros(x.shape, dtype=bool)
    bad[1:] = ~(x[1:] > x[:-1])
    return bad


def _refuse_bad_rows(checks: list[tuple[np.ndarray, np.ndarray | dict, str]]) -> None:
    """Raise RowError for the first row that any (bad_mask, values, message) marks.

    Within that row the first check listed wins; "{}" in its message is
    filled with values[row] (values is an array, or a dict over the marked
    rows; a numpy scalar is given as the Python number it holds).
    """
    bad = np.array([mask for mask, _, _ in checks])
    rows = np.flatnonzero(bad.any(axis=0))
    if rows.size:
        row = int(rows[0])
        _, values, message = checks[int(np.argmax(bad[:, row]))]
        value = values[row]
        value = value.item() if isinstance(value, np.generic) else value
        raise RowError(row, message.format(value))


def _require_finite_fields(obj) -> None:
    """Raise ValueError naming the first field of dataclass obj that is not finite."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _init_s_columns(port, names: tuple[str, ...]) -> None:
    """Store port's named S columns as finite complex arrays, one entry per grid point; check z0."""
    n = len(port.grid)
    for name in names:
        column = np.asarray(getattr(port, name), dtype=complex)
        if column.shape != (n,):
            raise ValueError(f"{name} length must equal the grid length")
        if not np.isfinite(column).all():
            raise ValueError(f"{name} holds a non-finite value")
        setattr(port, name, column)
    _require_positive("z0_ohm", port.z0_ohm)


@dataclass(frozen=True)
class CoaxGeometry:
    """Physical dimensions of one filter, all finite and in meters."""

    length_m: float
    inner_d_m: float
    outer_d_m: float

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if not 0.0 < self.inner_d_m < self.outer_d_m:
            raise ValueError(
                f"need 0 < inner_d_m < outer_d_m, got d={self.inner_d_m}, D={self.outer_d_m}"
            )
        if self.length_m < 0.0:
            raise ValueError(f"length_m must be >= 0, got {self.length_m}")

    @property
    def log_diameter_ratio(self) -> float:
        return math.log(self.outer_d_m / self.inner_d_m)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, finite frequencies in Hz, DC excluded; RowError names a bad one."""

    points_hz: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points_hz, dtype=float)
        object.__setattr__(self, "points_hz", pts)
        if pts.ndim != 1:
            raise ValueError("frequency grid must be one-dimensional")
        _refuse_bad_rows(
            [
                (~np.isfinite(pts), pts, "grid frequencies must be finite, got {}"),
                (pts <= 0.0, pts, "all grid frequencies must be > 0 (DC excluded)"),
                (_not_increasing(pts), pts, "grid frequencies must be strictly increasing"),
            ]
        )

    def __len__(self) -> int:
        return int(self.points_hz.size)

    @staticmethod
    def linear(f_start_hz: float, f_stop_hz: float, n_points: int) -> "FrequencyGrid":
        if n_points < 1:
            raise ValueError("n_points must be >= 1")
        _require_positive("f_start_hz", f_start_hz)
        _require_positive("f_stop_hz", f_stop_hz)
        if n_points > 1 and f_stop_hz <= f_start_hz:
            raise ValueError(
                f"f_stop_hz must exceed f_start_hz, got f_start_hz={f_start_hz}, "
                f"f_stop_hz={f_stop_hz}"
            )
        return FrequencyGrid(np.linspace(f_start_hz, f_stop_hz, n_points))


class MaterialSample(NamedTuple):
    """One row of a MaterialModel table: a plain view, not validated."""

    f_hz: float
    eps_rel: float
    mu_rel: float
    alpha_np_per_m: float


class MaterialModel:
    """Tabulated eps/mu/alpha with piecewise-linear interpolation in f.

    The table is four read-only columns, one row per frequency. A single
    row means a frequency-independent material. With two or more rows,
    evaluation outside [f_min, f_max] raises; there is no extrapolation.
    """

    def __init__(self, f_hz, eps_rel, mu_rel, alpha_np_per_m):
        """Validate the columns as arrays and store them read-only.

        Each row needs f finite, > 0 and above the previous row's f, 1 <= eps < inf,
        0 < mu < inf and 0 <= alpha < inf; the first row that breaks a rule
        raises RowError with its 0-based index.
        """
        table = tuple(np.array(c, dtype=float) for c in (f_hz, eps_rel, mu_rel, alpha_np_per_m))
        f, eps, mu, alpha = table
        if f.ndim != 1 or any(c.shape != f.shape for c in table):
            raise ValueError("material columns must be one-dimensional and of equal length")
        if not f.size:
            raise ValueError("material model needs at least one sample")
        _refuse_bad_rows(
            [
                (~np.isfinite(f) | (f <= 0.0), f, "f_hz must be finite and > 0, got {}"),
                (_not_increasing(f), f, "material samples must be on a strictly increasing grid"),
                (~np.isfinite(eps) | (eps < 1.0), eps, "eps_rel must be finite and >= 1, got {}"),
                (~np.isfinite(mu) | (mu <= 0.0), mu, "mu_rel must be finite and > 0, got {}"),
                (
                    ~np.isfinite(alpha) | (alpha < 0.0),
                    alpha,
                    "alpha_np_per_m must be finite and >= 0, got {}",
                ),
            ]
        )
        for column in table:
            column.flags.writeable = False
        self._f, self._eps, self._mu, self._alpha = table

    @classmethod
    def constant(cls, eps_rel: float, mu_rel: float, alpha_np_per_m: float) -> "MaterialModel":
        return cls([1.0], [eps_rel], [mu_rel], [alpha_np_per_m])

    @classmethod
    def from_arrays(cls, f_hz, eps_rel, mu_rel, alpha_np_per_m) -> "MaterialModel":
        """Build from the four columns; the same as calling the class."""
        return cls(f_hz, eps_rel, mu_rel, alpha_np_per_m)

    def __len__(self) -> int:
        return int(self._f.size)

    @property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tabulated (f_hz, eps_rel, mu_rel, alpha_np_per_m) columns, read-only."""
        return self._f, self._eps, self._mu, self._alpha

    @cached_property
    def samples(self) -> tuple[MaterialSample, ...]:
        """The table as MaterialSample rows, built on first access."""
        return tuple(MaterialSample(*row) for row in zip(*(c.tolist() for c in self.table)))

    @property
    def f_min_hz(self) -> float:
        return float(self._f[0])

    @property
    def f_max_hz(self) -> float:
        return float(self._f[-1])

    def covers(self, f_hz) -> bool:
        if len(self) == 1:
            return True
        f = np.asarray(f_hz, dtype=float)
        return bool(np.all(f >= self._f[0]) and np.all(f <= self._f[-1]))

    def eval(self, f_hz):
        """Interpolated (eps_rel, mu_rel, alpha_np_per_m) at f_hz.

        Accepts a scalar or an array; shapes follow numpy broadcasting.
        """
        f = np.asarray(f_hz, dtype=float)
        if not self.covers(f):
            raise FrequencyRangeError(
                f"frequency outside material range [{self._f[0]:g}, {self._f[-1]:g}] Hz"
            )
        eps = np.interp(f, self._f, self._eps)
        mu = np.interp(f, self._f, self._mu)
        alpha = np.interp(f, self._f, self._alpha)
        return eps, mu, alpha


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
        _init_s_columns(self, ("s11", "s21"))


def propagation_constant(mat: MaterialModel, f_hz):
    """gamma(f) = alpha(f) + i * 2*pi*f * sqrt(eps(f)*mu(f)) / c, in 1/m."""
    eps, mu, alpha = mat.eval(f_hz)
    f = np.asarray(f_hz, dtype=float)
    return (alpha + 1j * (2.0 * np.pi * f) * np.sqrt(eps * mu) / C0)[()]


def characteristic_impedance(geom: CoaxGeometry, mat: MaterialModel, f_hz):
    """Coaxial characteristic impedance (eta0/2pi)*sqrt(mu/eps)*ln(D/d), Ohm."""
    eps, mu, _ = mat.eval(f_hz)
    return (ETA0 / (2.0 * np.pi) * np.sqrt(mu / eps) * geom.log_diameter_ratio)[()]


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
    _require_positive("z0_ohm", z0_ohm)
    f = grid.points_hz
    gamma = propagation_constant(mat, f)
    z = characteristic_impedance(geom, mat, f)
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
    _require_positive("z0_ohm", z0_ohm)
    a, b = abcd[0, 0], abcd[0, 1]
    c, d = abcd[1, 0], abcd[1, 1]
    den = a + b / z0_ohm + c * z0_ohm + d
    if abs(den) < 1e-30:
        raise SingularNetworkError("ABCD-to-S denominator magnitude below 1e-30")
    s11 = (a + b / z0_ohm - c * z0_ohm - d) / den
    s21 = 2.0 / den
    return complex(s11), complex(s21)


def magnitude_db(s):
    """20*log10(|s|) with exact zeros mapped to the -300 dB floor sentinel."""
    mag = np.abs(np.asarray(s))
    db = np.where(mag > 0.0, 20.0 * np.log10(np.where(mag > 0.0, mag, 1.0)), DB_FLOOR)
    return db[()]
