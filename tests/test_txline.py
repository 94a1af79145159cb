import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coaxfilt as cf
from coaxfilt.constants import C0, EPS0, ETA0, MU0

from conftest import affine_material

# Independent CODATA literals so impedance oracles do not reuse the
# package's own constants.
_C = 299792458.0
_EPS0 = 8.8541878188e-12
_MU0 = 1.25663706127e-6


def test_constants_self_consistent():
    assert ETA0 == math.sqrt(MU0 / EPS0)
    assert C0 > 0 and EPS0 > 0 and MU0 > 0 and ETA0 > 0


def test_geometry_invariants():
    with pytest.raises(ValueError):
        cf.CoaxGeometry(0.042, 0.008, 0.0051)
    with pytest.raises(ValueError):
        cf.CoaxGeometry(0.042, 0.0, 0.008)
    with pytest.raises(ValueError):
        cf.CoaxGeometry(-1.0, 0.0051, 0.008)
    assert cf.CoaxGeometry(0.0, 1.0, 2.0).length_m == 0.0
    # NaN slips through every ordered comparison, so each field is refused by name
    for bad in (math.nan, math.inf):
        for i, name in enumerate(("length_m", "inner_d_m", "outer_d_m")):
            fields = [0.042, 0.0051, 0.008]
            fields[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
                cf.CoaxGeometry(*fields)


def test_grid_invariants():
    with pytest.raises(ValueError):
        cf.FrequencyGrid(np.array([0.0, 1e9]))
    with pytest.raises(ValueError):
        cf.FrequencyGrid(np.array([2e9, 1e9]))
    with pytest.raises(ValueError):
        cf.FrequencyGrid(np.array([1e9, 1e9]))
    for bad in ([math.nan], [1e9, math.inf], [1e9, math.nan, 3e9]):
        with pytest.raises(ValueError, match="finite"):
            cf.FrequencyGrid(np.array(bad))
    # the grid holds a read-only copy, so a later write to the caller's array cannot reach it
    f = np.array([1e9, 2e9, 3e9, 4e9, 5e9])
    grid = cf.FrequencyGrid(f)
    f[2] = -1.0
    assert grid.points_hz.tolist() == [1e9, 2e9, 3e9, 4e9, 5e9]
    with pytest.raises(ValueError, match="read-only"):
        grid.points_hz[0] = 1.0
    assert len(cf.FrequencyGrid.linear(1e7, 2e10, 11)) == 11
    assert cf.FrequencyGrid.linear(1e9, 5.0, 1).points_hz.tolist() == [1e9]
    # each end is refused by its own name before linspace, even where one point ignores the stop
    for start, stop, n, message in (
        (1e9, math.nan, 1, "f_stop_hz must be finite and > 0, got nan"),
        (1e9, math.inf, 1, "f_stop_hz must be finite and > 0, got inf"),
        (1e9, math.inf, 5, "f_stop_hz must be finite and > 0, got inf"),
        (0.0, 2e10, 5, "f_start_hz must be finite and > 0, got 0.0"),
        (-1e9, 2e10, 5, "f_start_hz must be finite and > 0, got -1000000000.0"),
        (math.nan, 2e10, 1, "f_start_hz must be finite and > 0, got nan"),
        (2e10, 1e9, 5, "f_stop_hz must exceed f_start_hz, got f_start_hz=20000000000.0, "
         "f_stop_hz=1000000000.0"),
        (1e9, 1e9, 2, "f_stop_hz must exceed f_start_hz, got f_start_hz=1000000000.0, "
         "f_stop_hz=1000000000.0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cf.FrequencyGrid.linear(start, stop, n)


def _bad_row(*rows):
    """The RowError of a material table built from rows, each (f, eps, mu, alpha)."""
    with pytest.raises(cf.RowError) as err:
        cf.MaterialModel(*zip(*rows))
    return err.value


def test_material_sample_invariants():
    good = (1e9, 4.0, 1.0, 0.0)
    for fields in ((2e9, 0.5, 1.0, 0.0), (2e9, 1.0, 0.0, 0.0), (2e9, 1.0, 1.0, -1.0)):
        assert _bad_row(good, fields).row == 1
    for f in (0.0, -1e9):
        err = _bad_row((f, 4.0, 1.0, 0.0), good)
        assert err.row == 0 and err.reason == f"f_hz must be finite and > 0, got {f}"
    # NaN slips through every ordered comparison, so it is refused by name
    for bad in (math.nan, math.inf, -math.inf):
        for fields in ((bad, 4.0, 1.0, 0.0), (3e9, bad, 1.0, 0.0),
                       (3e9, 4.0, bad, 0.0), (3e9, 4.0, 1.0, bad)):
            err = _bad_row(good, (2e9, 4.0, 1.0, 0.0), fields)
            assert err.row == 2 and "finite" in str(err)
    # the first bad row is named, whichever rule it breaks
    assert _bad_row(good, (0.5e9, 4.0, 1.0, 0.0), (3e9, 0.5, 1.0, 0.0)).row == 1
    assert _bad_row(good, (2e9, 4.0, 1.0, 0.0), (2e9, 0.5, 1.0, 0.0)).row == 2
    with pytest.raises(ValueError):
        cf.MaterialModel([], [], [], [])


def test_material_single_sample_is_frequency_independent():
    mat = cf.MaterialModel.constant(3.0, 1.5, 2.0)
    for f in (1.0, 1e6, 1e12):
        eps, mu, alpha = mat.eval(f)
        assert (eps, mu, alpha) == (3.0, 1.5, 2.0)


def test_material_no_extrapolation():
    mat = affine_material()
    with pytest.raises(cf.FrequencyRangeError):
        mat.eval(1e6)
    with pytest.raises(cf.FrequencyRangeError):
        mat.eval(3e10)


def test_material_interpolation_is_linear():
    mat = cf.MaterialModel([1e9, 3e9], [2.0, 4.0], [1.0, 2.0], [0.0, 10.0])
    eps, mu, alpha = mat.eval(2e9)
    assert eps == pytest.approx(3.0, rel=1e-15)
    assert mu == pytest.approx(1.5, rel=1e-15)
    assert alpha == pytest.approx(5.0, rel=1e-15)


def test_propagation_constant_vacuum_beta():
    mat = cf.MaterialModel.constant(1.0, 1.0, 0.0)
    f = _C / (2.0 * math.pi)  # makes 2*pi*f/c = 1
    assert cf.propagation_constant(mat, f) == pytest.approx(1j, abs=1e-15)
    assert isinstance(cf.propagation_constant(mat, f), complex)


def test_propagation_constant_eps4_1ghz():
    mat = cf.MaterialModel.constant(4.0, 1.0, 0.0)
    expected = 4.0e9 * math.pi / _C  # 2*pi*1e9*sqrt(4)/c, folded by hand
    got = cf.propagation_constant(mat, 1e9)
    assert got.real == 0.0
    assert got.imag == pytest.approx(expected, rel=1e-14)
    assert got.imag == pytest.approx(41.917, rel=1e-4)


def test_propagation_constant_alpha_enters_additively():
    mat = cf.MaterialModel.constant(1.0, 1.0, 5.0)
    assert cf.propagation_constant(mat, 3.7e9).real == 5.0


def test_characteristic_impedance_vacuum_ratio_e():
    geom = cf.CoaxGeometry(0.01, 1.0, math.e)
    mat = cf.MaterialModel.constant(1.0, 1.0, 0.0)
    oracle = (1.0 / (2.0 * math.pi)) * math.sqrt(_MU0 / _EPS0) * math.log(math.e)
    z = cf.characteristic_impedance(geom, mat, 1e9)
    assert isinstance(z, float)
    assert z == pytest.approx(oracle, rel=1e-12)
    assert z == pytest.approx(59.9585, abs=5e-5)


def test_characteristic_impedance_eps4_halves():
    geom = cf.CoaxGeometry(0.01, 1.0, math.e)
    vac = cf.characteristic_impedance(geom, cf.MaterialModel.constant(1.0, 1.0, 0.0), 1e9)
    z = cf.characteristic_impedance(geom, cf.MaterialModel.constant(4.0, 1.0, 0.0), 1e9)
    assert z == pytest.approx(vac / 2.0, rel=1e-14)
    assert z == pytest.approx(29.9792, abs=5e-5)


def test_characteristic_impedance_eps_equals_mu():
    geom = cf.CoaxGeometry(0.01, 1.0, math.e)
    vac = cf.characteristic_impedance(geom, cf.MaterialModel.constant(1.0, 1.0, 0.0), 1e9)
    z = cf.characteristic_impedance(geom, cf.MaterialModel.constant(2.5, 2.5, 0.0), 1e9)
    assert z == pytest.approx(vac, rel=1e-14)


def _matched_setup(alpha=0.0, eps=2.0, mu=2.0):
    # eps == mu makes Z frequency-flat; z0 is set to that Z exactly
    mat = cf.MaterialModel.constant(eps, mu, alpha)
    geom = cf.CoaxGeometry(0.042, 0.0051, 0.008)
    z0 = cf.characteristic_impedance(geom, mat, 1e9)
    return geom, mat, z0


def test_s_params_matched_collapses_to_exponential():
    geom, mat, z0 = _matched_setup(alpha=5.0)
    f = 1e9
    grid = cf.FrequencyGrid(np.array([f]))
    resp = cf.s_params_model(geom, mat, grid, z0)
    gl = cf.propagation_constant(mat, f) * geom.length_m
    assert abs(resp.s11[0]) < 1e-15
    assert abs(resp.s21[0] - cmath.exp(-gl)) < 1e-15


def test_s_params_matched_unit_gamma_l():
    # alpha*l = 1; matched transmission magnitude must be exp(-1)
    geom, mat, z0 = _matched_setup(alpha=1.0 / 0.042)
    grid = cf.FrequencyGrid(np.array([1e9]))
    resp = cf.s_params_model(geom, mat, grid, z0)
    gl = cf.propagation_constant(mat, 1e9) * geom.length_m
    assert abs(gl.real - 1.0) < 1e-12
    assert abs(abs(resp.s21[0]) - math.exp(-1.0)) < 1e-12


def test_s_params_zero_length_identity():
    mat = cf.MaterialModel.constant(4.0, 1.0, 50.0)
    geom = cf.CoaxGeometry(0.0, 0.0051, 0.008)
    resp = cf.s_params_model(geom, mat, cf.FrequencyGrid.linear(1e8, 1e10, 7), 50.0)
    assert np.all(resp.s21 == 1.0)
    assert np.all(resp.s11 == 0.0)


def test_s_params_quarter_wave():
    # Z = 100 Ohm, Z0 = 50 Ohm, lossless, beta*l = pi/2 at f = c/(8*l)
    # with sqrt(eps*mu) = 2.
    length = 0.042
    mat = cf.MaterialModel.constant(4.0, 1.0, 0.0)
    ratio = math.exp(2.0 * math.pi * 100.0 / (ETA0 * 0.5))
    geom = cf.CoaxGeometry(length, 1.0, ratio)
    f = _C / (8.0 * length)
    resp = cf.s_params_model(geom, mat, cf.FrequencyGrid(np.array([f])), 50.0)
    assert resp.s11[0] == pytest.approx(0.6 + 0.0j, abs=1e-12)
    assert resp.s21[0] == pytest.approx(-0.8j, abs=1e-12)
    # same point through the chain-matrix oracle
    s11, s21 = cf.abcd_to_s(cf.abcd_of_line(geom, mat, f), 50.0)
    assert s11 == pytest.approx(0.6 + 0.0j, abs=1e-12)
    assert s21 == pytest.approx(-0.8j, abs=1e-12)


def test_s_params_huge_attenuation_hits_floor():
    geom, mat, z0 = _matched_setup(alpha=20000.0)  # alpha*l = 840 > cutoff
    resp = cf.s_params_model(geom, mat, cf.FrequencyGrid(np.array([1e9])), 2.0 * z0)
    assert resp.s21[0] == 0.0
    # past the cutoff the reflection is the pure interface value (coth -> 1)
    rho = cf.characteristic_impedance(geom, mat, 1e9) / (2.0 * z0)
    expected = (rho - 1.0 / rho) / (2.0 + rho + 1.0 / rho)
    assert resp.s11[0] == pytest.approx(expected, rel=1e-12)


def test_abcd_zero_length_identity():
    mat = cf.MaterialModel.constant(4.0, 1.0, 3.0)
    abcd = cf.abcd_of_line(cf.CoaxGeometry(0.0, 1.0, 2.0), mat, 1e9)
    assert np.allclose(abcd, np.eye(2), atol=0.0)


def test_abcd_half_wave():
    # beta*l = pi: cosh(i*pi) = -1, sinh(i*pi) = 0
    length = 0.042
    mat = cf.MaterialModel.constant(4.0, 1.0, 0.0)
    geom = cf.CoaxGeometry(length, 0.0051, 0.008)
    f = _C / (4.0 * length)  # beta*l = 2*pi*f*2/c*l = pi
    abcd = cf.abcd_of_line(geom, mat, f)
    assert abcd[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert abcd[1, 1] == pytest.approx(-1.0, abs=1e-12)
    assert abs(abcd[0, 1]) < 1e-12
    assert abs(abcd[1, 0]) < 1e-12


def test_abcd_to_s_identity():
    s11, s21 = cf.abcd_to_s(np.eye(2, dtype=complex), 50.0)
    assert s11 == 0.0
    assert s21 == 1.0


def test_abcd_to_s_singular():
    abcd = np.array([[1.0, -50.0], [1.0 / 50.0, -1.0]], dtype=complex)
    with pytest.raises(cf.SingularNetworkError):
        cf.abcd_to_s(abcd, 50.0)


def test_oracle_equivalence_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(100):
        eps = rng.uniform(1.0, 10.0)
        mu = rng.uniform(0.5, 3.0)
        alpha = rng.uniform(0.0, 200.0)
        length = rng.uniform(0.0, 0.1)
        ratio = rng.uniform(1.1, 8.0)
        f = rng.uniform(1e7, 2e10)
        z0 = rng.uniform(10.0, 200.0)
        mat = cf.MaterialModel.constant(eps, mu, alpha)
        geom = cf.CoaxGeometry(length, 0.001, 0.001 * ratio)
        resp = cf.s_params_model(geom, mat, cf.FrequencyGrid(np.array([f])), z0)
        s11, s21 = cf.abcd_to_s(cf.abcd_of_line(geom, mat, f), z0)
        assert abs(resp.s11[0] - s11) < 1e-10
        assert abs(resp.s21[0] - s21) < 1e-10


def test_cascade_identity():
    x = np.array([[1.0 + 1j, 2.0], [0.5j, 3.0]], dtype=complex)
    assert np.array_equal(np.eye(2, dtype=complex) @ x, x)


def test_cascade_matched_lengths_add():
    mat = cf.MaterialModel.constant(2.0, 2.0, 30.0)
    g1 = cf.CoaxGeometry(0.01, 0.0051, 0.008)
    g2 = cf.CoaxGeometry(0.03, 0.0051, 0.008)
    z = cf.characteristic_impedance(g1, mat, 1e9)
    abcd = cf.abcd_of_line(g1, mat, 1e9) @ cf.abcd_of_line(g2, mat, 1e9)
    _, s21 = cf.abcd_to_s(abcd, z)
    gl = cf.propagation_constant(mat, 1e9) * 0.04
    assert s21 == pytest.approx(cmath.exp(-gl), abs=1e-12)


def test_cascade_split_equals_single_segment():
    mat = cf.MaterialModel.constant(3.0, 1.2, 40.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        l_total = rng.uniform(0.005, 0.1)
        frac = rng.uniform(0.05, 0.95)
        f = rng.uniform(1e8, 2e10)
        z0 = rng.uniform(20.0, 120.0)
        ga = cf.CoaxGeometry(l_total * frac, 0.0051, 0.008)
        gb = cf.CoaxGeometry(l_total * (1.0 - frac), 0.0051, 0.008)
        gfull = cf.CoaxGeometry(l_total, 0.0051, 0.008)
        s11c, s21c = cf.abcd_to_s(cf.abcd_of_line(ga, mat, f) @ cf.abcd_of_line(gb, mat, f), z0)
        resp = cf.s_params_model(gfull, mat, cf.FrequencyGrid(np.array([f])), z0)
        assert abs(resp.s11[0] - s11c) < 1e-10
        assert abs(resp.s21[0] - s21c) < 1e-10


def test_magnitude_db_values():
    assert cf.magnitude_db(1.0) == 0.0
    assert cf.magnitude_db(0.1) == pytest.approx(-20.0, abs=1e-12)
    assert cf.magnitude_db(math.exp(-1.0)) == pytest.approx(20.0 * math.log10(math.exp(-1.0)), rel=1e-15)
    assert cf.magnitude_db(math.exp(-1.0)) == pytest.approx(-8.6859, abs=5e-5)
    assert cf.magnitude_db(0.0) == cf.DB_FLOOR == -300.0
    assert all(isinstance(cf.magnitude_db(s), float) for s in (0.0, 0.5, 0.3 + 0.4j))
    arr = cf.magnitude_db(np.array([1.0, 0.0]))
    assert arr[0] == 0.0 and arr[1] == -300.0


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(1.0, 10.0),
    mu=st.floats(0.2, 4.0),
    length=st.floats(0.0, 0.2),
    ratio=st.floats(1.05, 10.0),
    f=st.floats(1e7, 2e10),
    z0=st.floats(5.0, 300.0),
)
def test_lossless_unitarity(eps, mu, length, ratio, f, z0):
    mat = cf.MaterialModel.constant(eps, mu, 0.0)
    geom = cf.CoaxGeometry(length, 0.001, 0.001 * ratio)
    resp = cf.s_params_model(geom, mat, cf.FrequencyGrid(np.array([f])), z0)
    power = abs(resp.s11[0]) ** 2 + abs(resp.s21[0]) ** 2
    assert abs(power - 1.0) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(1.0, 10.0),
    mu=st.floats(0.2, 4.0),
    alpha=st.floats(0.0, 500.0),
    length=st.floats(0.0, 0.2),
    ratio=st.floats(1.05, 10.0),
    f=st.floats(1e7, 2e10),
    z0=st.floats(5.0, 300.0),
)
def test_passivity(eps, mu, alpha, length, ratio, f, z0):
    mat = cf.MaterialModel.constant(eps, mu, alpha)
    geom = cf.CoaxGeometry(length, 0.001, 0.001 * ratio)
    resp = cf.s_params_model(geom, mat, cf.FrequencyGrid(np.array([f])), z0)
    assert abs(resp.s11[0]) ** 2 + abs(resp.s21[0]) ** 2 <= 1.0 + 1e-10


def test_monotone_loss_in_length():
    geom0, mat, z0 = _matched_setup(alpha=25.0)
    mags = []
    for length in np.linspace(0.005, 0.2, 25):
        geom = cf.CoaxGeometry(length, geom0.inner_d_m, geom0.outer_d_m)
        resp = cf.s_params_model(geom, mat, cf.FrequencyGrid(np.array([1e9])), z0)
        mags.append(abs(resp.s21[0]))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_two_port_response_invariants():
    grid = cf.FrequencyGrid.linear(1e9, 2e9, 3)
    with pytest.raises(ValueError):
        cf.TwoPortResponse(grid=grid, s11=np.zeros(2), s21=np.zeros(3))
    with pytest.raises(ValueError):
        cf.TwoPortResponse(grid=grid, s11=np.zeros(3), s21=np.zeros(3), z0_ohm=0.0)
    # the Touchstone writer would emit an "R -5" or "R inf" that its parser refuses
    for z0 in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="z0_ohm must be finite and > 0"):
            cf.RawTwoPort(grid, *[np.zeros(3)] * 4, z0_ohm=z0)
        with pytest.raises(ValueError, match="z0_ohm must be finite and > 0"):
            cf.TwoPortResponse(grid=grid, s11=np.zeros(3), s21=np.zeros(3), z0_ohm=z0)
        # refused before the model runs, so no NaN reaches the arithmetic
        with pytest.raises(ValueError, match="z0_ohm must be finite and > 0"):
            cf.s_params_model(cf.CoaxGeometry(0.042, 0.0051, 0.008), affine_material(), grid, z0)
    # a non-finite S value is refused in whichever column holds it, when the port is built
    for cls, names in ((cf.TwoPortResponse, ("s11", "s21")),
                       (cf.RawTwoPort, ("s11", "s21", "s12", "s22"))):
        for name in names:
            for bad in (math.nan, math.inf, complex(0.5, math.nan)):
                columns = {n: np.full(3, 0.5 + 0.0j) for n in names}
                columns[name][1] = bad
                with pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
                    cls(grid=grid, **columns)
        # each column is a read-only copy and no field can be reassigned, so the port's
        # columns stay as they were checked
        columns = {n: np.full(3, 0.5 + 0.0j) for n in names}
        port = cls(grid=grid, **columns)
        for name in names:
            columns[name][0] = math.nan
            assert getattr(port, name).tolist() == [0.5 + 0.0j] * 3
            with pytest.raises(ValueError, match="read-only"):
                getattr(port, name)[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(port, name, np.zeros(3))
