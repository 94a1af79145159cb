"""The reference filter shared by the fixture generator, the length-transfer script and the tests.

eps 4.2 and mu 1 from 10 MHz to 20 GHz, with alpha affine in f so that a
matched line of the calibration length has the given |S21| slope, and a
5.1 mm inner conductor whose D/d is solved for 50 Ohm at 1 GHz.
noisy_measurement turns a modeled response into a simulated measurement.
"""

import math

import numpy as np

import coaxfilt as cf

INNER_D = 0.0051


def reference_material(slope_db_per_ghz: float, cal_length_m: float) -> cf.MaterialModel:
    a1 = slope_db_per_ghz / (cf.NP_TO_DB * 1e9 * cal_length_m)
    return cf.MaterialModel([1e7, 2e10], [4.2, 4.2], [1.0, 1.0], [a1 * 1e7, a1 * 2e10])


def matched_geometry(length_m: float, mat: cf.MaterialModel) -> cf.CoaxGeometry:
    ratio = cf.solve_diameter_ratio(50.0, mat, 1e9)
    return cf.CoaxGeometry(length_m, INNER_D, INNER_D * ratio)


def noisy_measurement(
    resp: cf.TwoPortResponse, sigma: float, rng: np.random.Generator
) -> cf.RawTwoPort:
    """resp with complex Gaussian noise of standard deviation sigma added to
    S11, S21, S12 and S22, drawn in that order as sigma * (N + iN) / sqrt(2)."""
    n = len(resp.grid)

    def noisy(s: np.ndarray) -> np.ndarray:
        return s + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)

    return cf.RawTwoPort(
        resp.grid, noisy(resp.s11), noisy(resp.s21), noisy(resp.s21), noisy(resp.s11), resp.z0_ohm
    )
