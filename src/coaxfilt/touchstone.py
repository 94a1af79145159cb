"""Touchstone v1 (.s2p) reading/writing plus the toolkit's CSV formats.

Only two-port S-parameter files are handled: `!` starts a comment, one
`#` option line gives unit / parameter / format / reference impedance,
and each data row holds 9 numbers (f, then S11 S21 S12 S22 pairs).
Angles are degrees in files and radians internally. All parse errors
carry a 1-based line number, and non-finite numbers are refused on read
and on write.

The readers convert every number of a file in one pass (float() over
all tokens) and validate whole arrays: the token count of each line,
finiteness, and for Touchstone f > 0 and strictly increasing. Only when
a check fails do they rerun the line-by-line loop. Every ParseError a
caller sees comes from that loop, so it names the same line with the
same text as a purely line-by-line reader would.

The writers render every number as "%.12g" (12 significant digits) and
build each output column once, then format whole rows through one row
template. The MA/DB angle and dB columns still come from the `math`
module one element at a time, because numpy's arctan2 and log10 are not
bit-identical to math.atan2 and math.log10, and the last ulp can change
a 12-digit field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, RowError
from .txline import DB_FLOOR, FrequencyGrid, MaterialModel, TwoPortResponse, magnitude_db

UNIT_TO_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
FORMATS = ("ri", "ma", "db")

MATERIAL_CSV_HEADER = "f_hz,eps_rel,mu_rel,alpha_np_per_m"
RESPONSE_CSV_HEADER = "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"


@dataclass
class RawTwoPort:
    """All four S-parameters as read from a file, frequencies in Hz."""

    grid: FrequencyGrid
    s11: np.ndarray
    s21: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    z0_ohm: float = 50.0

    def __post_init__(self) -> None:
        n = len(self.grid)
        for name in ("s11", "s21", "s12", "s22"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            setattr(self, name, arr)
            if arr.shape != (n,):
                raise ValueError(f"{name} length must equal the grid length")
        if self.z0_ohm <= 0.0:
            raise ValueError("z0_ohm must be > 0")


def _render(sep: str, columns: list[list[float]]) -> list[str]:
    """One line per row of the columns, every value rendered as %.12g."""
    row = sep.join(["%.12g"] * len(columns))
    return [row % r for r in zip(*columns)]


def _require_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("cannot write non-finite values")


def _pair_to_complex(fmt: str, a: float, b: float) -> complex:
    if fmt == "ri":
        return complex(a, b)
    if fmt == "ma":
        mag = a
    else:  # db
        mag = 10.0 ** (a / 20.0)
    phase = math.radians(b)
    return mag * complex(math.cos(phase), math.sin(phase))


def _complex_to_pair(fmt: str, s: complex) -> tuple[float, float]:
    """MA or DB (magnitude or dB, angle in degrees) of one value."""
    mag = abs(s)
    ang = math.degrees(math.atan2(s.imag, s.real)) if mag > 0.0 else 0.0
    if fmt == "ma":
        return mag, ang
    return (20.0 * math.log10(mag) if mag > 0.0 else DB_FLOOR), ang


def _parse_option_line(line: str, line_no: int) -> tuple[str, str, float]:
    unit = "ghz"
    fmt = "ma"
    z0 = 50.0
    tokens = line[1:].split()
    i = 0
    while i < len(tokens):
        tok = tokens[i].lower()
        if tok in UNIT_TO_HZ:
            unit = tok
        elif tok in FORMATS:
            fmt = tok
        elif tok in ("y", "z", "g", "h"):
            raise ParseError(line_no, f"unsupported parameter '{tokens[i]}'; only S is accepted")
        elif tok == "s":
            pass
        elif tok == "r":
            if i + 1 >= len(tokens):
                raise ParseError(line_no, "option 'R' is missing its impedance value")
            try:
                z0 = float(tokens[i + 1])
            except ValueError:
                raise ParseError(line_no, f"unparseable reference impedance {tokens[i + 1]!r}")
            if not math.isfinite(z0) or z0 <= 0.0:
                raise ParseError(line_no, f"reference impedance must be positive, got {z0!r}")
            i += 1
        else:
            raise ParseError(line_no, f"unrecognized option token {tokens[i]!r}")
        i += 1
    return unit, fmt, z0


def _bulk_floats(rows: list[list[str]], n_cols: int) -> np.ndarray | None:
    """The (len(rows), n_cols) floats of rows of n_cols finite tokens each, else None."""
    if set(map(len, rows)) - {n_cols}:
        return None
    try:
        vals = np.fromiter(map(float, chain.from_iterable(rows)), dtype=float)
    except ValueError:
        return None
    return vals.reshape(-1, n_cols) if np.isfinite(vals).all() else None


def parse_s2p(text: str) -> RawTwoPort:
    """Parse Touchstone v1 two-port text into a RawTwoPort in Hz/RI form."""
    lines = text.splitlines()
    f_hz, s, z0 = _parse_s2p_bulk(lines) or _parse_s2p_lines(lines)
    return RawTwoPort(
        grid=FrequencyGrid(f_hz), s11=s[:, 0], s21=s[:, 1], s12=s[:, 2], s22=s[:, 3], z0_ohm=z0
    )


def _parse_s2p_bulk(lines: list[str]) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(f_hz, (n, 4) S-parameters, z0) of well-formed Touchstone lines, validated
    as whole arrays; None on any fault, which _parse_s2p_lines then names."""
    rows = list(filter(None, [ln.partition("!")[0].split() for ln in lines]))
    if not rows or not rows[0][0].startswith("#"):
        return None
    try:
        unit, fmt, z0 = _parse_option_line(" ".join(rows[0]), 0)
    except ParseError:  # raised again, at its line, by the loop
        return None
    vals = _bulk_floats(rows[1:], 9)
    if vals is None:
        return None
    with np.errstate(over="ignore"):
        f_hz = vals[:, 0] * UNIT_TO_HZ[unit]
    if not ((f_hz > 0.0).all() and (f_hz[1:] > f_hz[:-1]).all()):
        return None
    if fmt == "ri":
        # viewing the re/im pairs as complex keeps signed zeros, as complex(a, b) does
        return f_hz, vals[:, 1:].copy().view(complex), z0
    pairs = zip(vals[:, 1::2].ravel().tolist(), vals[:, 2::2].ravel().tolist())
    s = np.array([_pair_to_complex(fmt, a, b) for a, b in pairs], dtype=complex)
    return f_hz, s.reshape(-1, 4), z0


def _parse_s2p_lines(lines: list[str]) -> tuple[np.ndarray, np.ndarray, float]:
    """parse_s2p line by line: the reader that names the line of a ParseError."""
    option: tuple[str, str, float] | None = None
    freqs: list[float] = []
    rows: list[list[complex]] = []
    last_line = 0

    for line_no, raw_line in enumerate(lines, start=1):
        last_line = line_no
        line = raw_line.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if option is not None:
                raise ParseError(line_no, "duplicate option line")
            option = _parse_option_line(line, line_no)
            continue
        if option is None:
            raise ParseError(line_no, "data encountered before the option line")

        unit, fmt, _ = option
        tokens = line.split()
        if len(tokens) != 9:
            raise ParseError(
                line_no, f"expected 9 numbers on a two-port data line, got {len(tokens)}"
            )
        values: list[float] = []
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(line_no, f"unparseable number {tok!r}")
            if not math.isfinite(v):
                raise ParseError(line_no, f"non-finite number {tok!r}")
            values.append(v)

        f_hz = values[0] * UNIT_TO_HZ[unit]
        if f_hz <= 0.0:
            raise ParseError(line_no, f"frequency must be > 0, got {values[0]!r}")
        if freqs and f_hz <= freqs[-1]:
            raise ParseError(line_no, "frequencies must be strictly increasing")
        freqs.append(f_hz)
        rows.append(
            [_pair_to_complex(fmt, values[k], values[k + 1]) for k in (1, 3, 5, 7)]
        )

    if option is None:
        raise ParseError(last_line + 1, "no option line found")
    return np.array(freqs), np.array(rows, dtype=complex).reshape(len(rows), 4), option[2]


def write_s2p(raw: RawTwoPort, unit: str = "ghz", fmt: str = "ri") -> str:
    """Serialize a RawTwoPort as Touchstone v1 text (12 significant digits).

    Raises ValueError on a non-finite frequency, S-parameter or z0.
    """
    unit = unit.lower()
    fmt = fmt.lower()
    if unit not in UNIT_TO_HZ:
        raise ValueError(f"unit must be one of {sorted(UNIT_TO_HZ)}, got {unit!r}")
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")

    params = (raw.s11, raw.s21, raw.s12, raw.s22)
    _require_finite(raw.z0_ohm, raw.grid.points_hz, *params)

    columns = [(raw.grid.points_hz / UNIT_TO_HZ[unit]).tolist()]
    for s in params:
        if fmt == "ri":
            columns += [s.real.tolist(), s.imag.tolist()]
        else:
            pairs = [_complex_to_pair(fmt, v) for v in s.tolist()]
            columns += [[a for a, _ in pairs], [b for _, b in pairs]]
    lines = [
        "! coaxfilt two-port export",
        "# %s S %s R %.12g" % (unit.upper(), fmt.upper(), raw.z0_ohm),
        *_render(" ", columns),
    ]
    return "\n".join(lines) + "\n"


def symmetrize(raw: RawTwoPort) -> tuple[TwoPortResponse, float]:
    """Average the reciprocal/symmetric pairs and report the worst asymmetry.

    Returns ((S11+S22)/2, (S21+S12)/2) as a TwoPortResponse plus
    max over the grid of max(|S11-S22|, |S21-S12|).
    """
    s11 = (raw.s11 + raw.s22) / 2.0
    s21 = (raw.s21 + raw.s12) / 2.0
    if len(raw.grid):
        asym = float(
            max(np.max(np.abs(raw.s11 - raw.s22)), np.max(np.abs(raw.s21 - raw.s12)))
        )
    else:
        asym = 0.0
    return TwoPortResponse(grid=raw.grid, s11=s11, s21=s21, z0_ohm=raw.z0_ohm), asym


def raw_from_response(resp: TwoPortResponse) -> RawTwoPort:
    """Expand a symmetric response to the four-parameter file form."""
    return RawTwoPort(
        grid=resp.grid,
        s11=resp.s11.copy(),
        s21=resp.s21.copy(),
        s12=resp.s21.copy(),
        s22=resp.s11.copy(),
        z0_ohm=resp.z0_ohm,
    )


def export_csv(resp: TwoPortResponse) -> str:
    """Plot-ready CSV of a response (dB columns use the -300 floor sentinel).

    Raises ValueError on a non-finite frequency or S-parameter.
    """
    f, s11, s21 = resp.grid.points_hz, resp.s11, resp.s21
    _require_finite(f, s11, s21)
    columns = [f, s11.real, s11.imag, s21.real, s21.imag, magnitude_db(s11), magnitude_db(s21)]
    lines = [RESPONSE_CSV_HEADER, *_render(",", [c.tolist() for c in columns])]
    return "\n".join(lines) + "\n"


def _read_csv(text: str, header: str, kind: str) -> np.ndarray:
    """Data rows of a toolkit CSV as an (n, columns) float array; blank lines are skipped."""
    lines = text.splitlines()
    data = _read_csv_bulk(lines, header)
    return data if data is not None else _read_csv_lines(lines, header, kind)


def _read_csv_bulk(lines: list[str], header: str) -> np.ndarray | None:
    """_read_csv of well-formed lines, validated as whole arrays; None on any
    fault, which _read_csv_lines then names."""
    content = list(filter(str.strip, lines))
    if not content or content[0].strip() != header:
        return None
    return _bulk_floats([ln.split(",") for ln in content[1:]], header.count(",") + 1)


def _numbered(lines: list[str]) -> list[tuple[int, str]]:
    """The non-blank lines with their 1-based line numbers."""
    return [(no, ln) for no, ln in enumerate(lines, start=1) if ln.strip()]


def _read_csv_lines(lines: list[str], header: str, kind: str) -> np.ndarray:
    """_read_csv line by line: the reader that names the line of a ParseError."""
    numbered = _numbered(lines)
    if not numbered:
        raise ParseError(1, f"empty {kind} CSV")
    if numbered[0][1].strip() != header:
        raise ParseError(numbered[0][0], f"expected header {header!r}")
    n_cols = header.count(",") + 1
    rows: list[list[float]] = []
    for line_no, line in numbered[1:]:
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ParseError(line_no, f"expected {n_cols} columns, got {len(fields)}")
        try:
            values = [float(v) for v in fields]
        except ValueError:
            raise ParseError(line_no, f"unparseable number in {kind} CSV")
        for tok, v in zip(fields, values):
            if not math.isfinite(v):
                raise ParseError(line_no, f"non-finite number {tok.strip()!r}")
        rows.append(values)
    return np.array(rows).reshape(len(rows), n_cols)


def _table_error(text: str, err: ValueError) -> ParseError:
    """The ParseError for a table read by _read_csv: at the bad row, else the last line.

    Data row k is on the (k + 2)-th non-blank line, after the header.
    """
    line_nos = [no for no, _ in _numbered(text.splitlines())]
    if isinstance(err, RowError):
        return ParseError(line_nos[err.row + 1], err.reason)
    return ParseError(line_nos[-1], str(err))


def response_from_csv(text: str, z0_ohm: float = 50.0) -> TwoPortResponse:
    """Read a response CSV written by export_csv back into a TwoPortResponse."""
    data = _read_csv(text, RESPONSE_CSV_HEADER, "response")
    try:
        grid = FrequencyGrid(data[:, 0])
    except ValueError as err:
        raise _table_error(text, err)
    # viewing the re/im pairs as complex keeps signed zeros, which re + 1j*im would not
    s = data[:, 1:5].copy().view(complex)
    return TwoPortResponse(grid=grid, s11=s[:, 0], s21=s[:, 1], z0_ohm=z0_ohm)


def material_to_csv(mat: MaterialModel) -> str:
    lines = [MATERIAL_CSV_HEADER, *_render(",", [c.tolist() for c in mat.table])]
    return "\n".join(lines) + "\n"


def material_from_csv(text: str) -> MaterialModel:
    data = _read_csv(text, MATERIAL_CSV_HEADER, "material")
    try:
        return MaterialModel.from_arrays(*data.T)
    except ValueError as err:
        raise _table_error(text, err)
