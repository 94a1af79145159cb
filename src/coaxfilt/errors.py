"""Exception types shared across the toolkit.

Grouped here so the CLI can map them onto its exit-code contract in one
place. Plain ValueError is reserved for type-invariant violations.
"""


class CoaxfiltError(Exception):
    """Base class for all toolkit-specific errors."""


class RowError(ValueError):
    """A table row breaks a type invariant; row is its 0-based index."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class FrequencyRangeError(CoaxfiltError):
    """Frequency outside the tabulated material sample range."""


class SingularNetworkError(CoaxfiltError):
    """ABCD-to-S conversion hit a (near-)singular denominator."""


class BranchAmbiguityError(CoaxfiltError):
    """Adjacent-point phase step reached pi; unwrapping is ambiguous."""

    def __init__(self, f_lo: float, f_hi: float):
        self.f_lo = f_lo
        self.f_hi = f_hi
        super().__init__(
            f"phase step of at least pi between {f_lo:g} Hz and {f_hi:g} Hz; "
            "grid too coarse to unwrap"
        )


class OpenCircuitError(CoaxfiltError):
    """Reflection coefficient at +1; impedance is unbounded."""


class ExtractionError(CoaxfiltError):
    """Too many grid points unusable for a trustworthy extraction."""

    def __init__(self, message: str, flags: dict[int, str] | None = None):
        super().__init__(message)
        self.flags = dict(flags or {})


class UnsupportedMaterialError(CoaxfiltError):
    """Material attenuation is not affine in frequency."""


class NoSolutionError(CoaxfiltError):
    """Design equation has no solution for the requested target."""


class InsufficientDataError(CoaxfiltError):
    """Not enough in-band points for the requested analysis."""


class ParseError(CoaxfiltError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DesignError(CoaxfiltError):
    """Invalid design document; message names the offending field path."""
