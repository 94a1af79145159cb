"""The reference filter shared by the fixture generator and the length-transfer script.

eps 4.2 and mu 1 from 10 MHz to 20 GHz, with alpha affine in f so that a
matched line of the calibration length has the given |S21| slope, and a
5.1 mm inner conductor whose D/d is solved for 50 Ohm at 1 GHz.
"""

import coaxfilt as cf

INNER_D = 0.0051


def reference_material(slope_db_per_ghz: float, cal_length_m: float) -> cf.MaterialModel:
    a1 = slope_db_per_ghz / (cf.NP_TO_DB * 1e9 * cal_length_m)
    return cf.MaterialModel([1e7, 2e10], [4.2, 4.2], [1.0, 1.0], [a1 * 1e7, a1 * 2e10])


def matched_geometry(length_m: float, mat: cf.MaterialModel) -> cf.CoaxGeometry:
    ratio = cf.solve_diameter_ratio(50.0, mat, 1e9)
    return cf.CoaxGeometry(length_m, INNER_D, INNER_D * ratio)
