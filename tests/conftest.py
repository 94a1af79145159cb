import pytest

import coaxfilt as cf

# Reference build dimensions used across fixtures: 42/36 mm lengths,
# outer-to-inner diameter ratio 8:5.1.
INNER_D = 0.0051
OUTER_D = 0.008


def affine_material(eps=(4.0, 4.0), mu=(1.0, 1.0), alpha=(0.0, 60.0),
                    f_start=1e7, f_stop=2e10):
    """Two-sample material, each parameter affine between band edges."""
    return cf.MaterialModel([f_start, f_stop], list(eps), list(mu), list(alpha))


def matched_material_and_geoms(z0=50.0, slope_db_per_ghz=1.0):
    """Constant-eps/mu material with affine alpha, plus 42/36 mm geometries
    whose diameter ratio is solved so the line is matched to z0."""
    a1 = slope_db_per_ghz / (cf.NP_TO_DB * 1e9 * 0.042)
    mat = affine_material(eps=(4.2, 4.2), mu=(1.0, 1.0), alpha=(a1 * 1e7, a1 * 2e10))
    ratio = cf.solve_diameter_ratio(z0, mat, 1e9)
    g42 = cf.CoaxGeometry(0.042, INNER_D, INNER_D * ratio)
    g36 = cf.CoaxGeometry(0.036, INNER_D, INNER_D * ratio)
    return mat, g42, g36


@pytest.fixture
def geom42():
    return cf.CoaxGeometry(0.042, INNER_D, OUTER_D)


@pytest.fixture
def geom36():
    return cf.CoaxGeometry(0.036, INNER_D, OUTER_D)


@pytest.fixture
def band_grid():
    return cf.FrequencyGrid.linear(1e7, 2e10, 201)
