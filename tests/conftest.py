import pytest

import coaxfilt as cf

from reference_filter import INNER_D, matched_geometry, reference_material

# Reference build dimensions used across fixtures: 42/36 mm lengths,
# outer-to-inner diameter ratio 8:5.1.
OUTER_D = 0.008


def affine_material(eps=(4.0, 4.0), mu=(1.0, 1.0), alpha=(0.0, 60.0),
                    f_start=1e7, f_stop=2e10):
    """Two-sample material, each parameter affine between band edges."""
    return cf.MaterialModel([f_start, f_stop], list(eps), list(mu), list(alpha))


def matched_material_and_geoms():
    """The reference filter: its 1 dB/GHz material at 42 mm, plus 42/36 mm
    geometries whose diameter ratio is solved for a 50 Ohm match."""
    mat = reference_material(1.0, 0.042)
    return mat, matched_geometry(0.042, mat), matched_geometry(0.036, mat)


@pytest.fixture
def geom42():
    return cf.CoaxGeometry(0.042, INNER_D, OUTER_D)


@pytest.fixture
def geom36():
    return cf.CoaxGeometry(0.036, INNER_D, OUTER_D)


@pytest.fixture
def band_grid():
    return cf.FrequencyGrid.linear(1e7, 2e10, 201)
