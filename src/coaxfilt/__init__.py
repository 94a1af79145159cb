"""Toolkit for matched low-pass coaxial powder filters.

Forward S-parameter modeling of a finite lossy coaxial line, inversion of
measured responses into effective material parameters, prediction of
filters of other lengths, synthesis toward impedance/slope targets, and
Touchstone/CSV interchange.
"""

from .constants import NP_TO_DB
from .errors import (
    BranchAmbiguityError,
    CoaxfiltError,
    DesignError,
    ExtractionError,
    FrequencyRangeError,
    InsufficientDataError,
    NoSolutionError,
    OpenCircuitError,
    ParseError,
    RowError,
    SingularNetworkError,
    UnsupportedMaterialError,
)
from .extraction import (
    REASONS,
    ExtractionReport,
    extract_material,
    impedance_from_reflection,
    invert_points,
    material_from_points,
    unwrap_gamma,
)
from .synthesis import (
    ComplianceReport,
    ComplianceTargets,
    check_compliance,
    solve_diameter_ratio,
    solve_length_for_slope,
)
from .touchstone import (
    RawTwoPort,
    export_csv,
    material_from_csv,
    material_to_csv,
    parse_s2p,
    raw_from_response,
    response_from_csv,
    symmetrize,
    write_s2p,
)
from .txline import (
    DB_FLOOR,
    CoaxGeometry,
    FrequencyGrid,
    MaterialModel,
    MaterialSample,
    TwoPortResponse,
    abcd_of_line,
    abcd_to_s,
    characteristic_impedance,
    magnitude_db,
    propagation_constant,
    s_params_model,
)

__version__ = "0.1.0"
