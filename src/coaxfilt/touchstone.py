"""Touchstone v1 (.s2p) reading/writing plus the toolkit's CSV formats.

Only two-port S-parameter files are handled: `!` starts a comment, one
`#` option line gives unit / parameter / format / reference impedance
(each at most once), and each data row holds 9 numbers (f, then S11 S21 S12 S22 pairs).
Angles are degrees in files and radians internally. All parse errors
carry a 1-based line number, and non-finite numbers are refused on read.
The writers need no such check: RawTwoPort and TwoPortResponse refuse a
non-finite S value when they are built.

Each reader splits its text into rows of tokens once, converts them all
with float() and checks every rule as a mask over the rows: the token
count, tokens that float() refuses or reads as non-finite, and for
Touchstone f > 0, increasing f and a dB magnitude within float range.
The earliest bad row is refused, for the first rule it breaks in that
order, at its line as counted with blank and comment lines.

The writers render every number as "%.12g" (12 significant digits) and
build each output column once, then format whole rows through one row
template. The MA/DB angle and dB columns still come from the `math`
module one element at a time, because numpy's arctan2 and log10 are not
bit-identical to math.atan2 and math.log10, and the last ulp can change
a 12-digit field.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, RowError
from .txline import DB_FLOOR, FrequencyGrid, MaterialModel, MaterialSample, TwoPortResponse
from .txline import _init_s_columns, _not_increasing, _refuse_bad_rows, magnitude_db

UNIT_TO_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
FORMATS = ("ri", "ma", "db")

MATERIAL_CSV_HEADER = ",".join(MaterialSample._fields)
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
        _init_s_columns(self, ("s11", "s21", "s12", "s22"))


def _text(head: list[str], sep: str, columns: list[list[float]]) -> str:
    """The head lines, then one line per row of the columns with every value
    rendered as %.12g; LF-separated, with a final LF."""
    row = sep.join(["%.12g"] * len(columns))
    return "\n".join([*head, *(row % r for r in zip(*columns))]) + "\n"


def _pair_to_complex(fmt: str, a: float, b: float) -> complex:
    """One MA or DB pair as a complex value; non-finite if 10 ** (dB / 20) overflows."""
    if fmt == "ma":
        mag = a
    else:  # db
        try:
            mag = 10.0 ** (a / 20.0)
        except OverflowError:
            mag = math.inf
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
    """(unit, format, z0) of a "#" line; each option may be given once."""
    unit = "ghz"
    fmt = "ma"
    z0 = 50.0
    seen = set()
    tokens = iter(line[1:].split())
    for token in tokens:
        tok = token.lower()
        group = "unit" if tok in UNIT_TO_HZ else "format" if tok in FORMATS else tok
        if group in seen:
            raise ParseError(line_no, f"duplicate option token {token!r}")
        seen.add(group)
        if tok in UNIT_TO_HZ:
            unit = tok
        elif tok in FORMATS:
            fmt = tok
        elif tok in ("y", "z", "g", "h"):
            raise ParseError(line_no, f"unsupported parameter '{token}'; only S is accepted")
        elif tok == "r":
            value = next(tokens, None)
            if value is None:
                raise ParseError(line_no, "option 'R' is missing its impedance value")
            try:
                z0 = float(value)
            except ValueError:
                raise ParseError(line_no, f"unparseable reference impedance {value!r}")
            if not 0.0 < z0 < math.inf:
                raise ParseError(line_no, f"reference impedance must be positive, got {z0!r}")
        elif tok != "s":
            raise ParseError(line_no, f"unrecognized option token {token!r}")
    return unit, fmt, z0


def _floats(rows: list[list[str]], n_cols: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The token count of each row; the (len(rows), n_cols) float() of the tokens, NaN
    where one is not a finite number and across a row without n_cols tokens; and
    {row: its first token that is not a finite number}."""
    counts = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    fitted = rows
    if (counts != n_cols).any():
        fitted = [row if len(row) == n_cols else ["nan"] * n_cols for row in rows]
    try:
        vals = np.fromiter(map(float, chain.from_iterable(fitted)), dtype=float)
    except ValueError:  # a token float() refuses reads as NaN
        vals = np.array([_float_or_none(t) for t in chain.from_iterable(fitted)], dtype=float)
    vals = vals.reshape(-1, n_cols)
    bad = ~np.isfinite(vals)
    vals[bad] = np.nan
    bad_rows = np.flatnonzero(_any_per_row(bad)).tolist()
    return counts, vals, {r: rows[r][int(bad[r].argmax())] for r in bad_rows}


def _float_or_none(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _any_per_row(bad: np.ndarray) -> np.ndarray:
    """The rows of a 2-D mask that hold a True; the per-row pass runs only if one does."""
    return bad.any(axis=1) if bad.any() else np.zeros(len(bad), dtype=bool)


def _table_error(line_nos: list[int], err: ValueError) -> ParseError:
    """The ParseError at the line of a RowError's row, else at the last line. line_nos
    number the non-blank lines; data row k is on line_nos[k + 1], after the header."""
    if isinstance(err, RowError):
        return ParseError(line_nos[err.row + 1], err.reason)
    return ParseError(line_nos[-1], str(err))


def parse_s2p(text: str) -> RawTwoPort:
    """Parse Touchstone v1 two-port text into a RawTwoPort in Hz/RI form."""
    lines = text.splitlines()
    rows = [ln.partition("!")[0].split() for ln in lines]
    content = list(filter(None, rows))
    if not content:
        raise ParseError(len(lines) + 1, "no option line found")
    option_no = rows.index(content[0]) + 1
    if not content[0][0].startswith("#"):
        raise ParseError(option_no, "data encountered before the option line")
    unit, fmt, z0 = _parse_option_line(" ".join(content[0]), option_no)

    data = content[1:]
    counts, vals, bad_token = _floats(data, 9)
    with np.errstate(over="ignore"):
        f_hz = vals[:, 0] * UNIT_TO_HZ[unit]
    if fmt == "ri":
        # viewing the re/im pairs as complex keeps signed zeros, as complex(a, b) does
        s = vals[:, 1:].copy().view(complex)
    else:
        pairs = zip(vals[:, 1::2].ravel().tolist(), vals[:, 2::2].ravel().tolist())
        s = np.array([_pair_to_complex(fmt, a, b) for a, b in pairs], dtype=complex).reshape(-1, 4)
    idx = np.arange(len(data))
    # a "#" row has the wrong count or a token float() refuses, so it is in bad_token
    option_rows = [r for r in bad_token if data[r][0].startswith("#")]
    refused = [r for r, tok in bad_token.items() if _float_or_none(tok) is None]
    try:
        _refuse_bad_rows(
            [
                (np.isin(idx, option_rows), counts, "duplicate option line"),
                (counts != 9, counts, "expected 9 numbers on a two-port data line, got {}"),
                (np.isin(idx, refused), bad_token, "unparseable number {!r}"),
                (np.isin(idx, list(bad_token)), bad_token, "non-finite number {!r}"),
                (f_hz <= 0.0, vals[:, 0], "frequency must be > 0, got {!r}"),
                (_not_increasing(f_hz), f_hz, "frequencies must be strictly increasing"),
                (_any_per_row(~np.isfinite(s)), counts, "dB magnitude out of range"),
            ]
        )
        grid = FrequencyGrid(f_hz)
    except RowError as err:
        raise _table_error([no for no, row in enumerate(rows, start=1) if row], err)
    return RawTwoPort(grid=grid, s11=s[:, 0], s21=s[:, 1], s12=s[:, 2], s22=s[:, 3], z0_ohm=z0)


def write_s2p(raw: RawTwoPort, unit: str = "ghz", fmt: str = "ri") -> str:
    """Serialize a RawTwoPort as Touchstone v1 text (12 significant digits).

    Every value is finite, as RawTwoPort and FrequencyGrid hold no other.
    """
    unit = unit.lower()
    fmt = fmt.lower()
    if unit not in UNIT_TO_HZ:
        raise ValueError(f"unit must be one of {sorted(UNIT_TO_HZ)}, got {unit!r}")
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")

    columns = [(raw.grid.points_hz / UNIT_TO_HZ[unit]).tolist()]
    for s in (raw.s11, raw.s21, raw.s12, raw.s22):
        if fmt == "ri":
            columns += [s.real.tolist(), s.imag.tolist()]
        else:
            pairs = [_complex_to_pair(fmt, v) for v in s.tolist()]
            columns += [[a for a, _ in pairs], [b for _, b in pairs]]
    option = "# %s S %s R %.12g" % (unit.upper(), fmt.upper(), raw.z0_ohm)
    return _text(["! coaxfilt two-port export", option], " ", columns)


def symmetrize(raw: RawTwoPort) -> tuple[TwoPortResponse, float]:
    """Average the reciprocal/symmetric pairs and report the worst asymmetry.

    Returns ((S11+S22)/2, (S21+S12)/2) as a TwoPortResponse plus
    max over the grid of max(|S11-S22|, |S21-S12|).
    """
    s11 = (raw.s11 + raw.s22) / 2.0
    s21 = (raw.s21 + raw.s12) / 2.0
    asym = max(np.max(np.abs(d), initial=0.0) for d in (raw.s11 - raw.s22, raw.s21 - raw.s12))
    return TwoPortResponse(grid=raw.grid, s11=s11, s21=s21, z0_ohm=raw.z0_ohm), float(asym)


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

    Every value is finite, as TwoPortResponse and FrequencyGrid hold no other.
    """
    f, s11, s21 = resp.grid.points_hz, resp.s11, resp.s21
    columns = [f, s11.real, s11.imag, s21.real, s21.imag, magnitude_db(s11), magnitude_db(s21)]
    return _text([RESPONSE_CSV_HEADER], ",", [c.tolist() for c in columns])


def _read_csv(text: str, header: str, kind: str, build: Callable):
    """build() of the (n, columns) floats of a toolkit CSV's data rows. Blank
    lines are skipped; a bad row, or a RowError from build, names its line."""
    lines = text.splitlines()
    content = list(filter(str.strip, lines))
    if not content:
        raise ParseError(1, f"empty {kind} CSV")
    if content[0].strip() != header:
        raise ParseError(lines.index(content[0]) + 1, f"expected header {header!r}")
    n_cols = header.count(",") + 1
    rows = [ln.split(",") for ln in content[1:]]
    counts, vals, bad_token = _floats(rows, n_cols)
    idx = np.arange(len(rows))
    refused = [r for r in bad_token if any(_float_or_none(t) is None for t in rows[r])]
    try:
        _refuse_bad_rows(
            [
                (counts != n_cols, counts, f"expected {n_cols} columns, got {{}}"),
                (np.isin(idx, refused), counts, f"unparseable number in {kind} CSV"),
                (np.isin(idx, list(bad_token)), {r: t.strip() for r, t in bad_token.items()},
                 "non-finite number {!r}"),
            ]
        )
        return build(vals)
    except ValueError as err:
        raise _table_error([no for no, ln in enumerate(lines, start=1) if ln.strip()], err)


def response_from_csv(text: str, z0_ohm: float = 50.0) -> TwoPortResponse:
    """Read a response CSV written by export_csv back into a TwoPortResponse."""
    grid, data = _read_csv(
        text, RESPONSE_CSV_HEADER, "response", lambda data: (FrequencyGrid(data[:, 0]), data)
    )
    # viewing the re/im pairs as complex keeps signed zeros, which re + 1j*im would not
    s = data[:, 1:5].copy().view(complex)
    return TwoPortResponse(grid=grid, s11=s[:, 0], s21=s[:, 1], z0_ohm=z0_ohm)


def material_to_csv(mat: MaterialModel) -> str:
    return _text([MATERIAL_CSV_HEADER], ",", [c.tolist() for c in mat.table])


def material_from_csv(text: str) -> MaterialModel:
    return _read_csv(text, MATERIAL_CSV_HEADER, "material", lambda data: MaterialModel(*data.T))
