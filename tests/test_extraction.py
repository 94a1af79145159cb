import cmath
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coaxfilt as cf
from coaxfilt.constants import C0, ETA0

from conftest import INNER_D, OUTER_D, affine_material, matched_material_and_geoms


def _s_from_gamma_p(g, p):
    # forward map of the (Gamma, P) decomposition of a symmetric line
    den = 1.0 - g * g * p * p
    return g * (1.0 - p * p) / den, p * (1.0 - g * g) / den


def _synthetic_response(mat, geom, n=401, z0=50.0, f_start=1e7, f_stop=2e10):
    grid = cf.FrequencyGrid.linear(f_start, f_stop, n)
    return cf.s_params_model(geom, mat, grid, z0)


# ---------------------------------------------------------------- invert


def test_invert_matched_branch():
    g, p, _ = cf.invert_points([0.0], [math.exp(-1.0)])
    assert g[0] == 0.0
    assert p[0] == math.exp(-1.0)


def test_invert_quarter_wave_point():
    # forward values of a lossless quarter-wave Z = 2*Z0 section
    g, p, _ = cf.invert_points([0.6 + 0.0j], [-0.8j])
    assert g[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert p[0] == pytest.approx(-1j, abs=1e-14)


def test_invert_rejects_nonfinite():
    _, _, reason = cf.invert_points([complex("nan")], [0.5])
    assert cf.REASONS[reason[0]] == "passivity-violation"


def test_invert_flags_overflowed_propagation_factor():
    # |S| ~ 1e154 is finite, but S11^2 overflows and P comes out NaN
    _, p, reason = cf.invert_points([0.1, 1e154 * (1 + 1j), 0.1], [0.9, 1e154, 0.9])
    assert np.isnan(p[1])
    assert [cf.REASONS[c] for c in reason] == ["", "passivity-violation", ""]


def test_extract_material_flags_only_the_overflowed_point():
    # one NaN P used to reach unwrap_gamma, whose cumsum made every later
    # point unphysical-material and refused the whole sweep
    mat = affine_material(eps=(4.2, 4.2), alpha=(0.0, 60.0))
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, geom, n=5, f_start=1e8, f_stop=5e8)
    s11, s21 = resp.s11.copy(), resp.s21.copy()
    s11[1], s21[1] = 1e154 * (1 + 1j), 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = cf.extract_material(cf.TwoPortResponse(resp.grid, s11, s21, 50.0), geom)
    assert report.flags == {1: "passivity-violation"}
    assert report.material.table[0].tolist() == resp.grid.points_hz[[0, 2, 3, 4]].tolist()


def test_invert_forward_consistency_with_model():
    # the decomposition must reproduce the closed-form model exactly
    mat = affine_material(eps=(3.0, 5.0), mu=(1.4, 1.0), alpha=(0.0, 50.0))
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, geom, n=31)
    z = cf.characteristic_impedance(geom, mat, resp.grid.points_hz)
    r = z / resp.z0_ohm
    g_true = (r - 1.0) / (r + 1.0)
    p_true = np.exp(-cf.propagation_constant(mat, resp.grid.points_hz) * geom.length_m)
    g, p, _ = cf.invert_points(resp.s11, resp.s21)
    for i in range(len(resp.grid)):
        s11, s21 = _s_from_gamma_p(g_true[i], p_true[i])
        assert abs(s11 - resp.s11[i]) < 1e-12
        assert abs(s21 - resp.s21[i]) < 1e-12
        assert abs(g[i] - g_true[i]) < 1e-10
        assert abs(p[i] - p_true[i]) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    g_mag=st.floats(1e-3, 0.9),
    g_arg=st.floats(-math.pi, math.pi),
    p_mag=st.floats(0.0, 0.99),
    p_arg=st.floats(-math.pi, math.pi),
)
def test_invert_round_trip_property(g_mag, g_arg, p_mag, p_arg):
    # |Gamma| >= 1e-3 and |P| <= 0.99 keep |S11| above the matched fast
    # path threshold, where Gamma is not recoverable by construction
    g0 = g_mag * cmath.exp(1j * g_arg)
    p0 = p_mag * cmath.exp(1j * p_arg)
    s11, s21 = _s_from_gamma_p(g0, p0)
    g, p, _ = cf.invert_points([s11], [s21])
    assert abs(g[0] - g0) < 1e-10
    assert abs(p[0] - p0) < 1e-10


def _invert_point_oracle(s11, s21):
    """The per-point inversion that invert_points replaced, kept as its judge.

    Returns (Gamma, P, reason) with Gamma = P = None where the point
    inversion refused the point; the |P| checks are the ones
    extract_material made on its result.
    """
    s11 = complex(s11)
    s21 = complex(s21)
    if not all(map(math.isfinite, (s11.real, s11.imag, s21.real, s21.imag))):
        return None, None, "passivity-violation"
    if abs(s11) < 1e-8:
        gamma_refl, prop_factor = 0.0 + 0.0j, s21
    else:
        k = (s11 * s11 - s21 * s21 + 1.0) / (2.0 * s11)
        root = cmath.sqrt(k * k - 1.0)
        big = k + root if abs(k + root) >= abs(k - root) else k - root
        if big == 0.0:
            return None, None, "passivity-violation"
        small = 1.0 / big
        gamma_refl = small if abs(small) <= abs(big) else big
        mag = abs(gamma_refl)
        if mag > 1.0 + 1e-6:
            return None, None, "passivity-violation"
        if mag > 1.0:
            gamma_refl /= mag
        v = s11 + s21
        den = 1.0 - v * gamma_refl
        if abs(den) < 1e-12:
            return None, None, "near-singular-inversion"
        prop_factor = (v - gamma_refl) / den
    if not cmath.isfinite(prop_factor) or abs(prop_factor) > 1.0 + 1e-9:
        return gamma_refl, prop_factor, "passivity-violation"
    if abs(prop_factor) == 0.0:
        return gamma_refl, prop_factor, "zero-transmission"
    return gamma_refl, prop_factor, ""


def _impedance_oracle(gamma_refl, z0_ohm):
    den = 1.0 - gamma_refl
    if abs(den) < 1e-12:
        return None
    return z0_ohm * (1.0 + gamma_refl) / den


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _assert_matches_oracle(s11, s21, z0=50.0):
    g, p, reason = cf.invert_points(s11, s21)
    expect = [_invert_point_oracle(a, b) for a, b in zip(s11, s21)]
    assert [cf.REASONS[c] for c in reason] == [r for _, _, r in expect]
    for i, (g_o, p_o, _) in enumerate(expect):
        if g_o is not None:
            assert (_bits(g[i]), _bits(p[i])) == (_bits(g_o), _bits(p_o)), (s11[i], s21[i])
    usable = [i for i, (g_o, _, r) in enumerate(expect) if not r and abs(1.0 - g_o) >= 1e-12]
    z = cf.impedance_from_reflection(g[usable], z0)
    assert [_bits(v) for v in z] == [_bits(_impedance_oracle(expect[i][0], z0)) for i in usable]


def _cplx(parts):
    return st.builds(complex, parts, parts)


def _from_gamma_p(g_mag, p_mag):
    # forward map of a symmetric line with the given |Gamma| and |P|
    return st.builds(
        lambda gm, ga, pm, pa: _s_from_gamma_p(gm * cmath.exp(1j * ga), pm * cmath.exp(1j * pa)),
        g_mag, st.floats(-math.pi, math.pi), p_mag, st.floats(-math.pi, math.pi),
    )


_EDGE_PAIRS = st.one_of(
    st.tuples(_cplx(st.floats(-2.0, 2.0)), _cplx(st.floats(-2.0, 2.0))),
    # exact values: S11 = S21 = 0.5 (singular), (0.5, -0.5) (Gamma = +1),
    # (0.75, 1.25) (K = 0, the neighbourhood of the big == 0 guard)
    st.tuples(*[_cplx(st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.75, -0.75, 1.0, 1.25]))] * 2),
    # Re(K^2 - 1) == 0 with Im != 0, where np.sqrt and cmath.sqrt round apart
    st.sampled_from([(-1.375 - 1.25j, -0.875 + 1j), (-1.25 - 1.25j, 1.25 - 1.25j),
                     (-1.25 + 0.25j, 0.75 - 1.25j)]),
    st.floats(-0.9, 0.9).map(lambda x: (complex(x), cmath.sqrt(x * x + 1.0))),  # K near 0
    st.tuples(_cplx(st.floats(-7e-9, 7e-9)), _cplx(st.floats(-1.5, 1.5))),  # matched
    st.tuples(_cplx(st.sampled_from([math.nan, math.inf, -math.inf, 0.5])),
              _cplx(st.sampled_from([math.nan, math.inf, -math.inf, 0.5]))),
    # |Gamma| at or beyond the unit circle, where 1 - (S11+S21)*Gamma vanishes
    _from_gamma_p(st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-7, 1.0 + 2e-6, 2.0]),
                  st.floats(0.0, 1.0)),
    _from_gamma_p(st.floats(1.0 - 1e-11, 1.0 + 1e-11), st.floats(0.0, 1.0)),
    # |P| just above 1 + 1e-9, on matched and on mismatched points
    _from_gamma_p(st.just(0.0), st.floats(1.0 + 5e-10, 1.0 + 2e-9)),
    _from_gamma_p(st.floats(1e-3, 0.9), st.floats(1.0 + 5e-10, 1.0 + 2e-9)),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(_EDGE_PAIRS, min_size=1, max_size=30))
@example(pairs=[((2.2250738585e-313 + 1j), 1j)])  # np.sqrt missed cmath.sqrt by one bit here
@example(pairs=[((0.48046875 + 5e-324j), 0j)])  # the untaken br / bi overflowed in _div
def test_invert_points_bit_exact_with_scalar_oracle(pairs):
    s11, s21 = (np.array(col, dtype=complex) for col in zip(*pairs))
    _assert_matches_oracle(s11, s21)


def test_invert_points_bit_exact_on_random_pairs():
    rng = np.random.default_rng(5)
    s = rng.uniform(-1.2, 1.2, (4, 20000))
    _assert_matches_oracle(s[0] + 1j * s[1], s[2] + 1j * s[3], z0=37.5)


# ---------------------------------------------------------------- unwrap


def test_unwrap_constant_real_p():
    gammas, branch = cf.unwrap_gamma([1e9, 2e9, 3e9], [math.exp(-1.0) + 0.0j] * 3, 1.0)
    for g in gammas:
        assert g == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert branch.tolist() == [0, 0, 0]


def test_unwrap_tracks_many_turns():
    # 42 mm line, beta*l crosses pi mid-band and winds several times
    mat = affine_material(eps=(4.0, 6.0), mu=(1.0, 1.0), alpha=(5.0, 30.0))
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    grid = cf.FrequencyGrid.linear(1e8, 2e10, 801)
    gamma_true = cf.propagation_constant(mat, grid.points_hz)
    p = np.exp(-gamma_true * geom.length_m)
    got, branch = cf.unwrap_gamma(grid.points_hz, p, geom.length_m)
    assert np.max(np.abs(got - gamma_true)) < 1e-9
    beta = got.imag
    assert np.all(np.diff(beta) > 0.0)
    assert abs(branch[-1]) > 1  # genuinely unwrapped beyond the principal sheet


def test_unwrap_flags_pi_jump():
    # steps of exactly pi are ambiguous by construction
    with pytest.raises(cf.BranchAmbiguityError) as err:
        cf.unwrap_gamma([1e9, 2e9, 3e9], [1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 0.0j], 0.042)
    assert err.value.f_lo == 1e9
    assert err.value.f_hi == 2e9


def test_unwrap_wrong_start_sheet_is_not_corrected():
    # first point already past beta*l = pi: the recovered value lands on
    # the principal sheet, off from the truth by exactly 2*pi/l, and no
    # error is raised (documented behavior, detectable only heuristically)
    length = 0.042
    beta_l = math.pi + 0.1
    p = [cmath.exp(-1j * beta_l), cmath.exp(-1j * (beta_l + 0.05))]
    gammas, _ = cf.unwrap_gamma([1e9, 1.01e9], p, length)
    truth = beta_l / length
    assert gammas[0].imag == pytest.approx(truth - 2.0 * math.pi / length, rel=1e-12)


def test_unwrap_rejects_zero_p_and_zero_length():
    with pytest.raises(ValueError):
        cf.unwrap_gamma([1e9], [0.0 + 0.0j], 0.042)
    with pytest.raises(ValueError):
        cf.unwrap_gamma([1e9], [0.5 + 0.0j], 0.0)


def test_unwrap_clamps_tiny_negative_alpha():
    p_mag = 1.0 + 1e-13  # ln gives ~ -2.4e-12/l, within the clamp band
    gammas, _ = cf.unwrap_gamma([1e9], [p_mag + 0.0j], 1.0)
    assert gammas[0].real == 0.0


# ------------------------------------------------------- impedance / material


def test_impedance_from_reflection_values():
    z = cf.impedance_from_reflection(np.array([0.0, 1.0 / 3.0]), 50.0)
    assert z[0] == 50.0
    assert z[1] == pytest.approx(100.0, rel=1e-14)
    with pytest.raises(cf.OpenCircuitError):
        cf.impedance_from_reflection(np.array([0.0, 1.0]), 50.0)


@settings(max_examples=200, deadline=None)
@given(r=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
def test_impedance_round_trip_property(r):
    r = np.array(r)
    g = (r - 1.0) / (r + 1.0)
    z = cf.impedance_from_reflection(g, 50.0)
    assert np.all(np.abs(z - 50.0 * r) / (50.0 * r) < 1e-12)


def test_material_from_point_round_trip():
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    mat = cf.MaterialModel.constant(5.0, 1.0, 20.0)
    f = 3e9
    gamma = cf.propagation_constant(mat, f)
    z = cf.characteristic_impedance(geom, mat, f)
    eps, mu, alpha, unphysical = cf.material_from_points([gamma], [z], geom, [f])
    assert eps[0] == pytest.approx(5.0, rel=1e-9)
    assert mu[0] == pytest.approx(1.0, rel=1e-9)
    assert alpha[0] == pytest.approx(20.0, rel=1e-9)
    assert not unphysical.any()


def test_material_from_point_vacuum():
    geom = cf.CoaxGeometry(0.042, 1.0, math.e)
    f = 1e9
    z = ETA0 / (2.0 * math.pi)  # ln(D/d) = 1
    beta = 2.0 * math.pi * f / C0
    eps, mu, _, unphysical = cf.material_from_points(
        [1j * beta, 1j * beta], [z, z * (1.0 + 1e-10)], geom, [f, f]
    )
    assert eps[0] == pytest.approx(1.0, abs=1e-12)
    assert mu[0] == pytest.approx(1.0, rel=1e-12)
    # vacuum whose eps rounds just below 1 is clamped to exactly 1
    assert eps[1] == 1.0 and not unphysical.any()


def test_material_from_point_mu_only():
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    mat = cf.MaterialModel.constant(1.0, 2.25, 0.0)
    f = 2e9
    gamma = cf.propagation_constant(mat, f)
    z = cf.characteristic_impedance(geom, mat, f)
    eps, mu, _, unphysical = cf.material_from_points([gamma], [z], geom, [f])
    assert eps[0] == pytest.approx(1.0, rel=1e-9)
    assert mu[0] == pytest.approx(2.25, rel=1e-9)
    assert not unphysical.any()


def test_material_from_point_unphysical():
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    gamma, z = zip(
        (1.0 - 5.0j, 50.0),  # negative beta
        (1.0 + 5.0e3j, -50.0),  # negative Z
        (1.0 + 5.0e3j, 0.0),  # zero Z
        (0.0 + 0.05j, 500.0),  # eps far below 1: huge apparent sqrt(mu/eps) at tiny sqrt(eps*mu)
        (0.0 + 50.0j, 50.0),  # physical, eps about 1.3
    )
    *_, unphysical = cf.material_from_points(gamma, z, geom, [1e9] * 5)
    assert unphysical.tolist() == [True, True, True, True, False]


# ----------------------------------------------------------- extraction


def test_extract_material_noiseless_round_trip():
    mat = affine_material(eps=(2.5, 7.0), mu=(0.9, 1.8), alpha=(0.0, 70.0))
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, geom)
    report = cf.extract_material(resp, geom)
    assert not report.flags
    fe, eps_e, mu_e, alpha_e = report.material.table
    eps_t, mu_t, alpha_t = mat.eval(fe)
    assert np.max(np.abs(eps_e - eps_t) / eps_t) < 1e-6
    assert np.max(np.abs(mu_e - mu_t) / mu_t) < 1e-6
    assert np.max(np.abs(alpha_e - alpha_t) / np.maximum(alpha_t, 1.0)) < 1e-6


def test_extract_material_zero_length_rejected():
    mat = affine_material()
    geom = cf.CoaxGeometry(0.0, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, cf.CoaxGeometry(0.042, INNER_D, OUTER_D), n=21)
    with pytest.raises(ValueError):
        cf.extract_material(resp, geom)


def test_extract_material_even_window_rejected():
    mat = affine_material()
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, geom, n=21)
    with pytest.raises(ValueError):
        cf.extract_material(resp, geom, smooth_window=4)


def test_extract_material_matched_fast_path():
    mat, g42, _ = matched_material_and_geoms()
    resp = _synthetic_response(mat, g42, n=101)
    assert np.max(np.abs(resp.s11)) < 1e-8
    report = cf.extract_material(resp, g42)
    assert (report.gamma_refl == 0.0).all()
    assert (report.z_ohm == resp.z0_ohm).all()
    for i, alpha in enumerate(report.material.table[3].tolist()):
        expected = -math.log(abs(resp.s21[i])) / g42.length_m
        assert alpha == pytest.approx(expected, rel=1e-12)


def test_extract_material_gamma_passivity_invariant():
    rng = np.random.default_rng(3)
    mat = affine_material(eps=(3.0, 4.0), mu=(1.0, 1.0), alpha=(2.0, 45.0))
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, geom)
    noise = 0.005 * (
        rng.standard_normal((2, len(resp.grid))) + 1j * rng.standard_normal((2, len(resp.grid)))
    )
    noisy = cf.TwoPortResponse(
        grid=resp.grid, s11=resp.s11 + noise[0], s21=resp.s21 + noise[1], z0_ohm=50.0
    )
    report = cf.extract_material(noisy, geom, smooth_window=11)
    assert all(abs(g) <= 1.0 for g in report.gamma_refl.tolist())


def test_extract_material_flags_nonpassive_and_fails():
    # gain-like corrupted data: |S21| > 1 everywhere
    grid = cf.FrequencyGrid.linear(1e9, 2e9, 11)
    resp = cf.TwoPortResponse(
        grid=grid,
        s11=np.full(11, 0.001 + 0.0j),
        s21=np.full(11, 1.2 + 0.0j),
        z0_ohm=50.0,
    )
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    with pytest.raises(cf.ExtractionError) as err:
        cf.extract_material(resp, geom)
    assert len(err.value.flags) == 11
    assert set(err.value.flags.values()) == {"passivity-violation"}


def _every_reason_response(n_good_tail):
    # Matched points (S11 = 0) give Gamma = 0 and P = S21 exactly; good ones
    # wind P's phase down by 0.2 rad per 0.1 GHz, so eps is about 1.23.
    f = 1e9 + 1e8 * np.arange(15 + n_good_tail)
    s11 = np.zeros(f.size, dtype=complex)
    s21 = 0.9 * np.exp(-2j * f / 1e9)
    s11[0], s21[0] = _s_from_gamma_p(-0.5, 0.9 * cmath.exp(-0.1j))  # low Z, eps << 1
    s11[2] = s21[2] = 0.5  # Gamma = +1 and 1 - (S11+S21)*Gamma = 0
    s21[5] = s21[6] = -s21[4]  # half turn 4 -> 5; after dropping 5, again 4 -> 6
    s11[8], s21[8] = 0.5, -0.5  # Gamma = +1 with P = -1: open circuit
    s21[10] = 0.0
    s11[11], s21[11] = 0.001, 1.2
    s21[13] *= (1.0 + 5e-10) / 0.9  # passes |P| <= 1 + 1e-9, ln|P| < 0
    return cf.TwoPortResponse(cf.FrequencyGrid(f), s11, s21, 50.0)


_EVERY_REASON = {
    0: "unphysical-material",
    2: "near-singular-inversion",
    5: "branch-ambiguity",
    6: "branch-ambiguity",
    8: "open-circuit",
    10: "zero-transmission",
    11: "passivity-violation",
    13: "negative-alpha",
}


def test_extract_material_flag_map_reaches_every_reason():
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    # 8 of 15 flagged is over half: refused, after every stage has run
    with pytest.raises(cf.ExtractionError) as err:
        cf.extract_material(_every_reason_response(0), geom)
    assert err.value.flags == _EVERY_REASON
    assert str(err.value) == (
        "8 of 15 points unusable: branch-ambiguity x2, near-singular-inversion x1, "
        "negative-alpha x1, open-circuit x1, passivity-violation x1, "
        "unphysical-material x1, zero-transmission x1"
    )
    # one more good point: 8 of 16 is not over half
    resp = _every_reason_response(1)
    report = cf.extract_material(resp, geom)
    assert report.flags == _EVERY_REASON
    kept = [0, 1, 3, 4, 7, 9, 12, 13, 14, 15]  # only converted points are listed
    assert report.f_hz.tolist() == resp.grid.points_hz[kept].tolist()
    unflagged = [i for i in kept if i not in _EVERY_REASON]
    assert report.material.table[0].tolist() == resp.grid.points_hz[unflagged].tolist()


def test_extract_material_smoothing_reduces_noise():
    rng = np.random.default_rng(17)
    mat, g42, _ = matched_material_and_geoms()
    resp = _synthetic_response(mat, g42, n=801)
    noise = 0.005 * (
        rng.standard_normal((2, 801)) + 1j * rng.standard_normal((2, 801))
    ) / math.sqrt(2.0)
    noisy = cf.TwoPortResponse(
        grid=resp.grid, s11=resp.s11 + noise[0], s21=resp.s21 + noise[1], z0_ohm=50.0
    )

    def alpha_rms(report):
        fe, _, _, alpha_e = report.material.table
        _, _, alpha_t = mat.eval(fe)
        return math.sqrt(float(np.mean((alpha_e - alpha_t) ** 2)))

    raw_err = alpha_rms(cf.extract_material(noisy, g42))
    smooth_err = alpha_rms(cf.extract_material(noisy, g42, smooth_window=21))
    assert smooth_err < raw_err / 2.0


def _moving_median_oracle(a, window):
    # the per-point loop moving_median replaced
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


def _quiet_nan(negative, payload):
    bits = (negative << 63) | (0xFFF << 51) | payload
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=60, deadline=None)
@given(
    values=st.integers(0, 60).flatmap(
        lambda n: st.lists(
            st.one_of(
                st.floats(-1e3, 1e3),
                # signed-zero ties, infinities, and quiet NaNs of either sign and any payload
                st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf]),
                st.builds(_quiet_nan, st.booleans(), st.integers(0, 2**51 - 1)),
            ),
            min_size=n, max_size=n,
        )
    )
)
def test_moving_median_matches_loop(values):
    a = np.array(values, dtype=float)
    for window in range(1, 2 * a.size + 2, 2):
        got = cf.extraction.moving_median(a, window)
        assert got.tobytes() == _moving_median_oracle(a, window).tobytes(), window


def test_moving_median_window_shapes():
    a = np.arange(10.0)
    out = cf.extraction.moving_median(a, 5)
    assert out.shape == a.shape
    # affine data is a fixed point of the median away from nothing: the
    # shifted edge windows return the window-center value
    assert out[0] == 2.0 and out[-1] == 7.0
    assert np.all(out[2:-2] == a[2:-2])
    with pytest.raises(ValueError):
        cf.extraction.moving_median(a, 4)


# ----------------------------------------------------------- prediction


def test_predict_self_is_consistent():
    mat = affine_material(eps=(3.0, 6.0), mu=(1.1, 0.9), alpha=(1.0, 55.0))
    geom = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, geom)
    report = cf.extract_material(resp, geom)
    sub = cf.FrequencyGrid(report.material.table[0])
    again = cf.s_params_model(geom, report.material, sub, resp.z0_ohm)
    assert np.max(np.abs(again.s11 - resp.s11)) < 1e-9
    assert np.max(np.abs(again.s21 - resp.s21)) < 1e-9


def test_predict_cross_length_noiseless():
    mat = affine_material(eps=(2.0, 8.0), mu=(0.8, 2.0), alpha=(0.0, 80.0))
    g42 = cf.CoaxGeometry(0.042, INNER_D, OUTER_D)
    g36 = cf.CoaxGeometry(0.036, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, g42)
    report = cf.extract_material(resp, g42)
    sub = cf.FrequencyGrid(report.material.table[0])
    pred = cf.s_params_model(g36, report.material, sub)
    truth = cf.s_params_model(g36, mat, sub, 50.0)
    rel = np.abs(np.abs(pred.s21) - np.abs(truth.s21)) / np.abs(truth.s21)
    assert np.max(rel) < 1e-6


def test_predict_db_scales_with_length():
    mat, g42, _ = matched_material_and_geoms()
    grid = cf.FrequencyGrid.linear(1e9, 1.9e10, 25)
    base = cf.s_params_model(g42, mat, grid)
    db42 = -cf.magnitude_db(base.s21)
    for scale in (2.0, 3.0):
        geom = cf.CoaxGeometry(0.042 * scale, g42.inner_d_m, g42.outer_d_m)
        db = -cf.magnitude_db(cf.s_params_model(geom, mat, grid).s21)
        assert np.max(np.abs(db / db42 - scale)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    eps0=st.floats(1.5, 8.0),
    deps=st.floats(-0.3, 0.6),
    mu0=st.floats(0.8, 2.0),
    alpha_hi=st.floats(1.0, 80.0),
    length=st.floats(0.02, 0.08),
)
def test_extraction_round_trip_property(eps0, deps, mu0, alpha_hi, length):
    eps = (eps0, eps0 * (1.0 + deps))
    mat = affine_material(eps=eps, mu=(mu0, mu0), alpha=(0.0, alpha_hi))
    geom = cf.CoaxGeometry(length, INNER_D, OUTER_D)
    resp = _synthetic_response(mat, geom, n=801)
    report = cf.extract_material(resp, geom)
    fe, eps_e, mu_e, _ = report.material.table
    eps_t, mu_t, _ = mat.eval(fe)
    assert np.max(np.abs(eps_e - eps_t) / eps_t) < 1e-6
    assert np.max(np.abs(mu_e - mu_t) / mu_t) < 1e-6
