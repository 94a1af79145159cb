import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coaxfilt as cf

from conftest import INNER_D, affine_material, matched_material_and_geoms

_MU0 = 1.25663706127e-6
_EPS0 = 8.8541878188e-12
_ETA0 = math.sqrt(_MU0 / _EPS0)


def test_solve_diameter_ratio_vacuum():
    mat = cf.MaterialModel.constant(1.0, 1.0, 0.0)
    target = _ETA0 / (2.0 * math.pi)
    assert cf.solve_diameter_ratio(target, mat, 1e9) == pytest.approx(math.e, rel=1e-12)


def test_solve_diameter_ratio_eps4_50ohm():
    mat = cf.MaterialModel.constant(4.0, 1.0, 0.0)
    ratio = cf.solve_diameter_ratio(50.0, mat, 1e9)
    assert ratio == pytest.approx(math.exp(200.0 * math.pi / _ETA0), rel=1e-12)
    assert ratio == pytest.approx(5.301, abs=2e-3)
    # feed the ratio back through the forward impedance formula
    geom = cf.CoaxGeometry(0.042, 1.0, ratio)
    assert cf.characteristic_impedance(geom, mat, 1e9) == pytest.approx(50.0, rel=1e-12)


_BAD = [0.0, -50.0, math.nan, math.inf]


# a one-row material covers every frequency, so only the f_ref rule can refuse a bad f_ref
@pytest.mark.parametrize(
    "target, f_ref, name, value",
    [(t, 1e9, "target_z_ohm", t) for t in _BAD] + [(50.0, f, "f_ref_hz", f) for f in _BAD],
    ids=[str(t) for t in _BAD] + [f"f_ref={f}" for f in _BAD],
)
def test_solve_diameter_ratio_refuses_bad_target(target, f_ref, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {value}"):
        cf.solve_diameter_ratio(target, cf.MaterialModel.constant(4.0, 1.0, 0.0), f_ref)


@pytest.mark.parametrize("target, ratio", [(1e6, "inf"), (1e-300, "1")])
def test_solve_diameter_ratio_without_finite_ratio_above_1(target, ratio):
    # exp overflows for the first target and rounds to exactly 1 for the second
    with pytest.raises(cf.NoSolutionError, match=rf"\(D/d = {ratio}\)"):
        cf.solve_diameter_ratio(target, cf.MaterialModel.constant(4.0, 1.0, 0.0), 1e9)


@settings(max_examples=100, deadline=None)
@given(
    target=st.floats(10.0, 200.0),
    eps=st.floats(1.0, 9.0),
    mu=st.floats(0.3, 3.0),
)
def test_solve_diameter_ratio_inverse_property(target, eps, mu):
    mat = cf.MaterialModel.constant(eps, mu, 0.0)
    ratio = cf.solve_diameter_ratio(target, mat, 1e9)
    geom = cf.CoaxGeometry(0.01, 1.0, ratio)
    z = cf.characteristic_impedance(geom, mat, 1e9)
    assert abs(z - target) / target < 1e-9


def test_solve_length_for_slope_reference_length():
    a1 = 1.0 / (cf.NP_TO_DB * 1e9 * 0.042)
    mat = affine_material(alpha=(a1 * 1e7, a1 * 2e10))
    assert cf.solve_length_for_slope(1.0, mat) == pytest.approx(0.042, rel=1e-12)


def test_solve_length_for_slope_linear_in_target():
    a1 = 2.5e-9
    mat = affine_material(alpha=(a1 * 1e7, a1 * 2e10))
    l1 = cf.solve_length_for_slope(1.0, mat)
    l2 = cf.solve_length_for_slope(2.0, mat)
    assert l2 == pytest.approx(2.0 * l1, rel=1e-12)


@pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
def test_solve_length_for_slope_refuses_bad_target(target):
    mat = affine_material(alpha=(2.5e-9 * 1e7, 2.5e-9 * 2e10))
    with pytest.raises(ValueError, match=f"must be finite and > 0, got {target}"):
        cf.solve_length_for_slope(target, mat)


def test_solve_length_for_slope_overflowing_length():
    mat = affine_material(alpha=(0.0, 1e-10))
    with pytest.raises(cf.NoSolutionError, match=r"no finite length gives 1e\+308 dB/GHz"):
        cf.solve_length_for_slope(1e308, mat)


def test_solve_length_for_slope_constant_alpha():
    mat = affine_material(alpha=(30.0, 30.0))
    with pytest.raises(cf.NoSolutionError):
        cf.solve_length_for_slope(1.0, mat)
    with pytest.raises(cf.NoSolutionError):
        cf.solve_length_for_slope(1.0, cf.MaterialModel.constant(4.0, 1.0, 30.0))


def test_solve_length_for_slope_non_affine():
    f = np.linspace(1e7, 2e10, 21)
    alpha = 40.0 * (f / 2e10) ** 2 + 1.0  # strongly quadratic
    mat = cf.MaterialModel(f, np.full(21, 4.0), np.ones(21), alpha)
    with pytest.raises(cf.UnsupportedMaterialError):
        cf.solve_length_for_slope(1.0, mat)


def test_compliance_targets_invariants():
    with pytest.raises(ValueError):
        cf.ComplianceTargets(reflection_ceiling_db=1.0)
    with pytest.raises(ValueError):
        cf.ComplianceTargets(band_max_hz=0.0)
    with pytest.raises(ValueError):
        cf.ComplianceTargets(slope_target_db_per_ghz=-1.0)
    with pytest.raises(ValueError, match="slope_tolerance_rel must be >= 0"):
        cf.ComplianceTargets(slope_tolerance_rel=-1.0)
    # NaN slips through every ordered comparison, so each field is refused by name
    for name in ("reflection_ceiling_db", "band_max_hz", "slope_target_db_per_ghz",
                 "slope_tolerance_rel"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
                cf.ComplianceTargets(**{name: bad})


def test_check_compliance_matched_design_passes():
    mat, g42, _ = matched_material_and_geoms()
    grid = cf.FrequencyGrid.linear(1e7, 2e10, 401)
    resp = cf.s_params_model(g42, mat, grid, 50.0)
    report = cf.check_compliance(resp)
    assert report.reflection_pass
    assert report.slope_pass
    assert report.fitted_slope_db_per_ghz == pytest.approx(1.0, abs=1e-9)
    assert report.worst_reflection_db < -100.0
    assert report.passed


def test_check_compliance_lossless_slope_fails():
    mat = cf.MaterialModel.constant(2.0, 2.0, 0.0)
    geom = cf.CoaxGeometry(0.042, INNER_D, 0.008)
    z0 = cf.characteristic_impedance(geom, mat, 1e9)
    resp = cf.s_params_model(geom, mat, cf.FrequencyGrid.linear(1e7, 2e10, 101), z0)
    report = cf.check_compliance(resp)
    assert report.fitted_slope_db_per_ghz == pytest.approx(0.0, abs=1e-12)
    assert not report.slope_pass
    assert not report.passed


def test_check_compliance_mismatch_worst_point():
    # lossless 65 Ohm line in a 50 Ohm system; reflection peaks well
    # above -20 dB at the quarter-wave points
    mat = cf.MaterialModel.constant(4.0, 1.0, 0.0)
    ratio = cf.solve_diameter_ratio(65.0, mat, 1e9)
    geom = cf.CoaxGeometry(0.042, 1.0, ratio)
    grid = cf.FrequencyGrid.linear(1e7, 2e10, 2001)
    resp = cf.s_params_model(geom, mat, grid, 50.0)
    report = cf.check_compliance(resp)
    assert not report.reflection_pass
    # independent dense-scan oracle for the worst point
    db = 20.0 * np.log10(np.abs(resp.s11))
    i = int(np.argmax(db))
    assert report.worst_reflection_db == pytest.approx(float(db[i]), abs=1e-12)
    assert report.worst_reflection_f_hz == float(grid.points_hz[i])
    assert report.worst_reflection_db > -15.0


def test_check_compliance_never_grades_a_nan_response():
    # magnitude_db maps NaN to the -300 dB floor, which would pass any ceiling; such a
    # response is refused when it is built, so check_compliance never sees one
    mat, g42, _ = matched_material_and_geoms()
    resp = cf.s_params_model(g42, mat, cf.FrequencyGrid.linear(1e9, 2e9, 5), 50.0)
    s11 = resp.s11.copy()
    s11[0] = math.nan
    with pytest.raises(ValueError, match="s11 holds a non-finite value"):
        cf.TwoPortResponse(grid=resp.grid, s11=s11, s21=resp.s21)
    # nor can a built one turn NaN: it holds a copy of the caller's array, so the -6 dB
    # point still fails the -20 dB ceiling after the caller overwrites it with NaN
    s11[0] = 0.5
    held = cf.TwoPortResponse(grid=resp.grid, s11=s11, s21=resp.s21)
    s11[0] = math.nan
    report = cf.check_compliance(held)
    assert not report.reflection_pass
    assert (report.worst_reflection_db, report.worst_reflection_f_hz) == (
        pytest.approx(20.0 * math.log10(0.5)), 1e9)


def test_check_compliance_insufficient_points():
    mat, g42, _ = matched_material_and_geoms()
    resp = cf.s_params_model(g42, mat, cf.FrequencyGrid.linear(1e9, 2e9, 5), 50.0)
    with pytest.raises(cf.InsufficientDataError):
        cf.check_compliance(resp, cf.ComplianceTargets(band_max_hz=5e8))


def test_check_compliance_ols_exact_on_affine_data():
    # response constructed to have |S21|_dB exactly affine in f
    grid = cf.FrequencyGrid.linear(1e9, 2e10, 41)
    f_ghz = grid.points_hz / 1e9
    slope, intercept = 0.8, 0.3
    mags = 10.0 ** (-(slope * f_ghz + intercept) / 20.0)
    resp = cf.TwoPortResponse(
        grid=grid, s11=np.zeros(41), s21=mags.astype(complex), z0_ohm=50.0
    )
    report = cf.check_compliance(resp, cf.ComplianceTargets(slope_target_db_per_ghz=0.8))
    assert report.fitted_slope_db_per_ghz == pytest.approx(slope, rel=1e-9)
    assert report.fitted_intercept_db == pytest.approx(intercept, rel=1e-9)
    assert report.max_linearity_residual_db < 1e-9
    assert report.slope_pass


def test_check_compliance_verdicts_stable_under_refinement():
    mat, g42, _ = matched_material_and_geoms()
    verdicts = []
    for n in (201, 2001):
        resp = cf.s_params_model(g42, mat, cf.FrequencyGrid.linear(1e7, 2e10, n), 50.0)
        report = cf.check_compliance(resp)
        verdicts.append((report.reflection_pass, report.slope_pass))
    assert verdicts[0] == verdicts[1] == (True, True)


def test_alpha_affine_fit_reports_residual():
    a0, a1, rel = cf.synthesis.alpha_affine_fit(affine_material(alpha=(2.0, 42.0)))
    assert rel < 1e-12
    assert a0 == pytest.approx(2.0 - a1 * 1e7, rel=1e-9)
    assert a1 > 0.0
