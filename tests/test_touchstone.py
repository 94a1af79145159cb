import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coaxfilt as cf

_MAT_HEADER = "f_hz,eps_rel,mu_rel,alpha_np_per_m"
_RESP_HEADER = "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"


def _raw(freqs, s11, s21, s12=None, s22=None, z0=50.0):
    s11 = np.asarray(s11, dtype=complex)
    s21 = np.asarray(s21, dtype=complex)
    return cf.RawTwoPort(
        grid=cf.FrequencyGrid(np.asarray(freqs, dtype=float)),
        s11=s11,
        s21=s21,
        s12=s21.copy() if s12 is None else np.asarray(s12, dtype=complex),
        s22=s11.copy() if s22 is None else np.asarray(s22, dtype=complex),
        z0_ohm=z0,
    )


# ------------------------------------------------------------------ parse


def test_parse_ri_line():
    raw = cf.parse_s2p("# GHZ S RI R 50\n1.0 0.1 0 0.9 0 0.9 0 0.1 0\n")
    assert raw.grid.points_hz[0] == 1e9
    assert raw.s11[0] == 0.1 + 0.0j
    assert raw.s21[0] == 0.9 + 0.0j
    assert raw.s12[0] == 0.9 + 0.0j
    assert raw.s22[0] == 0.1 + 0.0j
    assert raw.z0_ohm == 50.0


def test_parse_db_line():
    raw = cf.parse_s2p("# HZ S DB R 50\n2e9 -20 0 -6.0206 -90 -6.0206 -90 -20 0\n")
    assert raw.grid.points_hz[0] == 2e9
    assert raw.s11[0] == pytest.approx(0.1 + 0.0j, abs=1e-6)
    # -6.0206 dB is magnitude 10**(-6.0206/20) ~ 0.5, rotated to -90 deg
    assert raw.s21[0] == pytest.approx(-0.5j, abs=1e-5)
    mag = 10.0 ** (-6.0206 / 20.0)
    assert abs(raw.s21[0]) == pytest.approx(mag, rel=1e-12)
    # 6165 dB is within the float range; 6166 dB is refused (see below)
    raw = cf.parse_s2p("# GHZ S DB R 50\n1 6165 0 0 0 0 0 0 0\n")
    assert raw.s11[0] == 10.0 ** (6165 / 20.0)


def test_parse_ma_line_and_defaults():
    # bare option line defaults to GHZ S MA R 50
    raw = cf.parse_s2p("#\n2.0 0.5 180 0.25 -90 0.25 -90 0.5 180\n")
    assert raw.grid.points_hz[0] == 2e9
    assert raw.z0_ohm == 50.0
    assert raw.s11[0] == pytest.approx(-0.5 + 0.0j, abs=1e-12)
    assert raw.s21[0] == pytest.approx(-0.25j, abs=1e-12)


def test_parse_mixed_case_and_whitespace():
    raw = cf.parse_s2p("!\n  # mhz  s  Ri   r  75 \n 100   1 0 0 0 0 0 1 0 \n")
    assert raw.grid.points_hz[0] == 1e8
    assert raw.z0_ohm == 75.0


def test_parse_inline_comments():
    raw = cf.parse_s2p("# GHZ S RI R 50\n1.0 0.1 0 0.9 0 0.9 0 0.1 0 ! trailing\n")
    assert raw.s11[0] == 0.1 + 0.0j


def test_parse_empty_data_ok():
    raw = cf.parse_s2p("! just a header\n# GHZ S RI R 50\n")
    assert len(raw.grid) == 0


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("1.0 0.1 0 0.9 0 0.9 0 0.1 0\n", 1, "before the option line"),
        ("! c\n! c\n", 3, "no option line"),
        ("# GHZ S RI R 50\n# GHZ S RI R 50\n", 2, "duplicate"),
        ("# GHZ Y RI R 50\n", 1, "only S"),
        ("# GHZ S XX R 50\n", 1, "unrecognized"),
        ("# GHZ S RI R\n", 1, "missing its impedance"),
        ("# GHZ S RI R fifty\n", 1, "unparseable reference impedance"),
        ("# QHZ S RI R 50\n", 1, "unrecognized"),
        # Touchstone v1.1 allows each option once; a later token may not override
        ("# GHZ S RI R 50 MHZ MA R 75\n", 1, "duplicate option token 'MHZ'"),
        ("# GHZ S RI R 50 ma\n", 1, "duplicate option token 'ma'"),
        ("! c\n# S GHZ s\n", 2, "duplicate option token 's'"),
        ("# R 50 GHZ R 75\n", 1, "duplicate option token 'R'"),
        ("# GHZ S RI R 50\n1.0 0.1 0 0.9 0\n", 2, "expected 9"),
        ("# GHZ S RI R 50\n1.0 0.1 0 0.9 0 0.9 0 0.1 0 7\n", 2, "expected 9"),
        ("# GHZ S RI R 50\n1.0 0.1 zero 0.9 0 0.9 0 0.1 0\n", 2, "unparseable number"),
        ("# GHZ S RI R 50\n1.0 0.1 nan 0.9 0 0.9 0 0.1 0\n", 2, "non-finite"),
        ("# GHZ S RI R 50\n2.0 0 0 1 0 1 0 0 0\n1.0 0 0 1 0 1 0 0 0\n", 3, "strictly increasing"),
        ("# GHZ S RI R 50\n0.0 0 0 1 0 1 0 0 0\n", 2, "must be > 0"),
        # the earliest bad row wins, for the first of: a "#" line, the token count, the
        # first bad token, f > 0, increasing f, a dB value beyond the float range
        ("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n#x\n", 3, "duplicate option line"),
        ("# GHZ S RI R 50\n1 nan x 0 0 0 0 0 0\n", 2, "non-finite number 'nan'"),
        ("# GHZ S RI R 50\n1 x nan 0 0 0 0 0 0\n", 2, "unparseable number 'x'"),
        ("# GHZ S RI R 50\n0 0 0 0 0 0 0 0 inf\n", 2, "non-finite number 'inf'"),
        ("# GHZ S RI R 50\n0 0 0 0 0 0 0 0 0\n1 x\n", 2, "frequency must be > 0, got 0.0"),
        ("# GHZ S DB R 50\n0 6166 0 0 0 0 0 0 0\n", 2, "frequency must be > 0, got 0.0"),
        ("# GHZ S DB R 50\n1 0 0 0 0 0 0 0 0\n2 0 0 0 0 0 0 6166 0\n", 3,
         "dB magnitude out of range"),
        ("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n1e300 0 0 0 0 0 0 0 0\n", 3,
         "grid frequencies must be finite, got inf"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(cf.ParseError) as err:
        cf.parse_s2p(text)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


# ------------------------------------------------------------------ write


def test_write_parse_round_trip_ri():
    raw = _raw([1e9, 2e9], [0.1 + 0.2j, -0.3j], [0.9, 0.5 - 0.5j])
    back = cf.parse_s2p(cf.write_s2p(raw, unit="ghz", fmt="ri"))
    assert np.allclose(back.grid.points_hz, raw.grid.points_hz, rtol=1e-12)
    for name in ("s11", "s21", "s12", "s22"):
        assert np.max(np.abs(getattr(back, name) - getattr(raw, name))) < 1e-12


def test_write_empty_round_trip():
    raw = _raw([], [], [])
    text = cf.write_s2p(raw)
    assert text.splitlines()[1].startswith("#")
    assert len(cf.parse_s2p(text).grid) == 0


def test_write_rejects_unknown_spec():
    raw = _raw([1e9], [0.1], [0.9])
    with pytest.raises(ValueError):
        cf.write_s2p(raw, unit="thz")
    with pytest.raises(ValueError):
        cf.write_s2p(raw, fmt="xy")


def test_write_db_of_zero_magnitude_uses_floor():
    raw = _raw([1e9], [0.0], [0.5])
    text = cf.write_s2p(raw, fmt="db")
    row = text.splitlines()[-1].split()
    assert float(row[1]) == -300.0
    back = cf.parse_s2p(text)
    assert abs(back.s11[0]) < 1e-10


@settings(max_examples=80, deadline=None)
@given(
    fmt=st.sampled_from(["ri", "ma", "db"]),
    unit=st.sampled_from(["hz", "khz", "mhz", "ghz"]),
    data=st.lists(
        st.tuples(
            st.floats(1e6, 4e10),
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_write_parse_round_trip_property(fmt, unit, data):
    freqs = sorted({round(d[0], 3) for d in data})
    rows = data[: len(freqs)]
    raw = _raw(freqs, [r[1] for r in rows], [r[2] for r in rows])
    back = cf.parse_s2p(cf.write_s2p(raw, unit=unit, fmt=fmt))
    assert np.max(np.abs(back.grid.points_hz / raw.grid.points_hz - 1.0)) < 1e-10
    for name in ("s11", "s21", "s12", "s22"):
        assert np.max(np.abs(getattr(back, name) - getattr(raw, name))) < 1e-10


# ------------------------------------------------- byte-identity oracle
#
# The writers render whole columns through one "%.12g" row template. The
# per-value writers below are the reference they must match byte for byte.


_UNIT_TO_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _complex_to_pair(fmt, s):
    if fmt == "ri":
        return s.real, s.imag
    mag = abs(s)
    ang = math.degrees(math.atan2(s.imag, s.real)) if mag > 0.0 else 0.0
    if fmt == "ma":
        return mag, ang
    return (20.0 * math.log10(mag) if mag > 0.0 else -300.0), ang


def _oracle_write_s2p(raw, unit="ghz", fmt="ri"):
    lines = [
        "! coaxfilt two-port export",
        f"# {unit.upper()} S {fmt.upper()} R {_fmt(raw.z0_ohm)}",
    ]
    scale = _UNIT_TO_HZ[unit]
    for i, f_hz in enumerate(raw.grid.points_hz):
        fields = [_fmt(f_hz / scale)]
        for s in (raw.s11[i], raw.s21[i], raw.s12[i], raw.s22[i]):
            a, b = _complex_to_pair(fmt, complex(s))
            fields += [_fmt(a), _fmt(b)]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _oracle_export_csv(resp):
    lines = [_RESP_HEADER]
    for i, f_hz in enumerate(resp.grid.points_hz):
        s11 = complex(resp.s11[i])
        s21 = complex(resp.s21[i])
        values = (f_hz, s11.real, s11.imag, s21.real, s21.imag,
                  cf.magnitude_db(s11), cf.magnitude_db(s21))
        lines.append(",".join(_fmt(v) for v in values))
    return "\n".join(lines) + "\n"


def _oracle_material_to_csv(mat):
    lines = [_MAT_HEADER]
    for row in zip(*(c.tolist() for c in mat.table)):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# exact and signed zeros, the subnormal edge, magnitudes from 1e-12 to 1,
# and 1e-15, whose dB value is exactly the -300 floor
_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-15, -1e-15, 1.0, -1.0]),
    st.floats(-1e-299, 1e-299),
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-12.0, 0.0), st.sampled_from([1.0, -1.0])),
    st.floats(-1.0, 1.0),
)
_complex = st.builds(complex, _component, _component)


@st.composite
def _responses(draw, max_size=12):
    n = draw(st.integers(0, max_size))
    freqs = sorted(set(draw(st.lists(st.floats(1e3, 1e12), min_size=n, max_size=n))))
    column = st.lists(_complex, min_size=len(freqs), max_size=len(freqs))
    return np.array(freqs), [np.array(draw(column), dtype=complex) for _ in range(4)]


@settings(max_examples=200, deadline=None)
@given(data=_responses(), z0=st.sampled_from([50.0, 75.0, 12.5, 1e-3]))
def test_writers_match_per_value_oracle(data, z0):
    freqs, (s11, s21, s12, s22) = data
    raw = _raw(freqs, s11, s21, s12=s12, s22=s22, z0=z0)
    for fmt in ("ri", "ma", "db"):
        for unit in _UNIT_TO_HZ:
            assert cf.write_s2p(raw, unit=unit, fmt=fmt) == _oracle_write_s2p(raw, unit, fmt)
    resp = cf.TwoPortResponse(grid=raw.grid, s11=s11, s21=s21, z0_ohm=z0)
    assert cf.export_csv(resp) == _oracle_export_csv(resp)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.floats(1.0, 1e12), st.floats(1.0, 1e3), st.floats(1e-6, 1e3),
                  st.one_of(st.just(0.0), st.floats(0.0, 1e4))),
        min_size=1,
        max_size=12,
        unique_by=lambda r: r[0],
    )
)
def test_material_to_csv_matches_per_value_oracle(rows):
    rows.sort()
    mat = cf.MaterialModel(*zip(*rows))
    assert cf.material_to_csv(mat) == _oracle_material_to_csv(mat)


# -------------------------------------------------------------- symmetrize


def test_symmetrize_symmetric_unchanged():
    raw = _raw([1e9], [0.2 + 0.1j], [0.7 - 0.2j])
    resp, asym = cf.symmetrize(raw)
    assert asym == 0.0
    assert resp.s11[0] == 0.2 + 0.1j
    assert resp.s21[0] == 0.7 - 0.2j


def test_symmetrize_averages_and_reports():
    raw = _raw([1e9], [0.2], [0.5], s12=[0.5], s22=[0.4])
    resp, asym = cf.symmetrize(raw)
    assert resp.s11[0] == pytest.approx(0.3)
    assert asym == pytest.approx(0.2)


@settings(max_examples=50, deadline=None)
@given(
    s=st.lists(
        st.tuples(
            *(
                st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
                for _ in range(4)
            )
        ),
        min_size=1,
        max_size=5,
    )
)
def test_symmetrize_idempotent(s):
    freqs = [1e9 * (i + 1) for i in range(len(s))]
    raw = _raw(
        freqs,
        [r[0] for r in s],
        [r[1] for r in s],
        s12=[r[2] for r in s],
        s22=[r[3] for r in s],
    )
    resp1, _ = cf.symmetrize(raw)
    raw2 = cf.raw_from_response(resp1)
    resp2, asym2 = cf.symmetrize(raw2)
    assert asym2 < 1e-15
    assert np.max(np.abs(resp2.s11 - resp1.s11)) == 0.0
    assert np.max(np.abs(resp2.s21 - resp1.s21)) == 0.0


def test_symmetrize_commutes_with_subsetting():
    rng = np.random.default_rng(5)
    n = 8
    vals = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    freqs = np.linspace(1e9, 8e9, n)
    raw = _raw(freqs, vals[0], vals[1], s12=vals[2], s22=vals[3])
    resp, _ = cf.symmetrize(raw)
    keep = [1, 3, 6]
    sub_raw = _raw(freqs[keep], vals[0][keep], vals[1][keep], s12=vals[2][keep], s22=vals[3][keep])
    sub_resp, _ = cf.symmetrize(sub_raw)
    assert np.array_equal(sub_resp.s11, resp.s11[keep])
    assert np.array_equal(sub_resp.s21, resp.s21[keep])


# ------------------------------------------------------------------- CSV


def test_export_csv_values():
    resp = cf.TwoPortResponse(
        grid=cf.FrequencyGrid(np.array([1e9])),
        s11=np.array([0.0 + 0.0j]),
        s21=np.array([math.exp(-1.0) + 0.0j]),
    )
    text = cf.export_csv(resp)
    lines = text.splitlines()
    assert lines[0] == "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"
    fields = lines[1].split(",")
    assert float(fields[5]) == -300.0
    assert float(fields[6]) == pytest.approx(-8.6859, abs=5e-5)


def test_export_csv_empty():
    resp = cf.TwoPortResponse(
        grid=cf.FrequencyGrid(np.array([])), s11=np.array([]), s21=np.array([])
    )
    assert cf.export_csv(resp) == "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n"


def test_response_csv_round_trip():
    resp = cf.TwoPortResponse(
        grid=cf.FrequencyGrid(np.array([1e9, 2e9])),
        s11=np.array([0.1 + 0.2j, -0.05j]),
        s21=np.array([0.9 + 0.0j, 0.4 - 0.4j]),
    )
    back = cf.response_from_csv(cf.export_csv(resp))
    assert np.max(np.abs(back.s11 - resp.s11)) < 1e-12
    assert np.max(np.abs(back.s21 - resp.s21)) < 1e-12


def test_material_csv_round_trip():
    mat = cf.MaterialModel([1e7, 2e10], [4.0, 5.5], [1.2, 1.0], [0.0, 60.0])
    back = cf.material_from_csv(cf.material_to_csv(mat))
    for a, b in zip(mat.table, back.table):
        assert a.tolist() == b.tolist()


# Every bad table is refused at the line of its first bad row, counting blank lines.
@pytest.mark.parametrize(
    "reader, text, line_no, message",
    [
        (cf.response_from_csv, "", 1, "empty response CSV"),
        (cf.response_from_csv, "wrong,header\n", 1, f"expected header {_RESP_HEADER!r}"),
        (cf.response_from_csv, f"{_RESP_HEADER}\n1,2\n", 2, "expected 7 columns, got 2"),
        (cf.material_from_csv, "bad header\n1,2,3,4\n", 1, f"expected header {_MAT_HEADER!r}"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n1e9,4.0,1.0\n", 2, "expected 4 columns, got 3"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n1e9,nan,1,0\n2e9,4,nan,inf\n", 2,
         "non-finite number 'nan'"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n1e9,4,1,0\n2e9,4,1,inf\n", 3,
         "non-finite number 'inf'"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n\n1e9,4,1,0\n2e9,-inf,1,0\n", 4,
         "non-finite number '-inf'"),
        (cf.response_from_csv, f"{_RESP_HEADER}\n1e9,0.1,0,nan,0,-20,0\n", 2,
         "non-finite number 'nan'"),
        (cf.response_from_csv, f"{_RESP_HEADER}\n1e9,0.1,0,0.9,0,-20,-1\ninf,0,0,1,0,-300,0\n", 3,
         "non-finite number 'inf'"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n1e9,0.5,1,0\n2e9,4,1,0\n3e9,4,1,0\n", 2,
         "eps_rel must be finite and >= 1, got 0.5"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n1e9,4,1,0\n\n1e9,4,1,0\n2e9,4,1,0\n", 4,
         "material samples must be on a strictly increasing grid"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n", 1, "material model needs at least one sample"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n-1e9,4,1,0\n", 2,
         "f_hz must be finite and > 0, got -1000000000.0"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n0,4,1,0\n1e9,4,1,0\n", 2,
         "f_hz must be finite and > 0, got 0.0"),
        (cf.response_from_csv,
         f"{_RESP_HEADER}\n2e9,0,0,1,0,-300,0\n1e9,0,0,1,0,-300,0\n3e9,0,0,1,0,-300,0\n", 3,
         "grid frequencies must be strictly increasing"),
        # an unparseable field wins anywhere in its row, else the first non-finite one
        (cf.material_from_csv, f"{_MAT_HEADER}\n1e9,nan,1,x\n", 2,
         "unparseable number in material CSV"),
        (cf.response_from_csv, f"{_RESP_HEADER}\n1e9,inf,0,1,0,-300,zero\n", 2,
         "unparseable number in response CSV"),
        (cf.material_from_csv, f"{_MAT_HEADER}\n1e9,4,-inf, nan \n", 2, "non-finite number '-inf'"),
    ],
)
def test_csv_readers_name_bad_line(reader, text, line_no, message):
    with pytest.raises(cf.ParseError) as err:
        reader(text)
    assert err.value.line_no == line_no
    assert message in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
def test_writers_refuse_non_finite(bad):
    # the S-parameter types refuse the value when built, so no writer can be handed one
    with pytest.raises(ValueError, match="non-finite"):
        _raw([1e9, 2e9], [0.1, bad], [0.9, 0.5])
    with pytest.raises(ValueError, match="non-finite"):
        cf.TwoPortResponse(grid=cf.FrequencyGrid([1e9, 2e9]), s11=[0.9, 0.5], s21=[0.1, bad])


# ------------------------------------------------ readers vs line loops
#
# The line-by-line loops below are the readers as they were before each
# became one pass over array masks, and the oracle for them: the reader
# must return bit-identical arrays for every text the loop accepts and
# raise the identical ParseError for every text it refuses. The one
# change allowed: a dB value the loop let escape as OverflowError is
# refused at its line.


def _pair_to_complex(fmt, a, b):
    if fmt == "ri":
        return complex(a, b)
    if fmt == "ma":
        mag = a
    else:  # db
        mag = 10.0 ** (a / 20.0)
    phase = math.radians(b)
    return mag * complex(math.cos(phase), math.sin(phase))


def _parse_s2p_lines(lines):
    option = None
    freqs = []
    rows = []
    last_line = 0
    for line_no, raw_line in enumerate(lines, start=1):
        last_line = line_no
        line = raw_line.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if option is not None:
                raise cf.ParseError(line_no, "duplicate option line")
            option = cf.touchstone._parse_option_line(line, line_no)
            continue
        if option is None:
            raise cf.ParseError(line_no, "data encountered before the option line")
        unit, fmt, _ = option
        tokens = line.split()
        if len(tokens) != 9:
            raise cf.ParseError(
                line_no, f"expected 9 numbers on a two-port data line, got {len(tokens)}")
        values = []
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise cf.ParseError(line_no, f"unparseable number {tok!r}")
            if not math.isfinite(v):
                raise cf.ParseError(line_no, f"non-finite number {tok!r}")
            values.append(v)
        f_hz = values[0] * _UNIT_TO_HZ[unit]
        if f_hz <= 0.0:
            raise cf.ParseError(line_no, f"frequency must be > 0, got {values[0]!r}")
        if freqs and f_hz <= freqs[-1]:
            raise cf.ParseError(line_no, "frequencies must be strictly increasing")
        freqs.append(f_hz)
        rows.append([_pair_to_complex(fmt, values[k], values[k + 1]) for k in (1, 3, 5, 7)])
    if option is None:
        raise cf.ParseError(last_line + 1, "no option line found")
    return np.array(freqs), np.array(rows, dtype=complex).reshape(len(rows), 4), option[2]


def _numbered(lines):
    return [(no, ln) for no, ln in enumerate(lines, start=1) if ln.strip()]


def _read_csv_lines(lines, header, kind):
    numbered = _numbered(lines)
    if not numbered:
        raise cf.ParseError(1, f"empty {kind} CSV")
    if numbered[0][1].strip() != header:
        raise cf.ParseError(numbered[0][0], f"expected header {header!r}")
    n_cols = header.count(",") + 1
    rows = []
    for line_no, line in numbered[1:]:
        fields = line.split(",")
        if len(fields) != n_cols:
            raise cf.ParseError(line_no, f"expected {n_cols} columns, got {len(fields)}")
        try:
            values = [float(v) for v in fields]
        except ValueError:
            raise cf.ParseError(line_no, f"unparseable number in {kind} CSV")
        for tok, v in zip(fields, values):
            if not math.isfinite(v):
                raise cf.ParseError(line_no, f"non-finite number {tok.strip()!r}")
        rows.append(values)
    return np.array(rows).reshape(len(rows), n_cols)


def _oracle_csv(lines, header, kind, build):
    """The loop's table passed to build, a ValueError named at its row's line."""
    data = _read_csv_lines(lines, header, kind)
    try:
        return build(data)
    except ValueError as err:
        line_nos = [no for no, _ in _numbered(lines)]
        if isinstance(err, cf.RowError):
            raise cf.ParseError(line_nos[err.row + 1], err.reason)
        raise cf.ParseError(line_nos[-1], str(err))


def _oracle_response(data):
    s = data[:, 1:5].copy().view(complex)
    return cf.FrequencyGrid(data[:, 0]).points_hz, s[:, 0], s[:, 1]


def _read_response(text):
    resp = cf.response_from_csv(text)
    return resp.grid.points_hz, resp.s11, resp.s21


# per header: the reader's arrays, and the same built from the loop's table
_CSV_READERS = {
    _MAT_HEADER: (lambda text: cf.material_from_csv(text).table,
                  partial(_oracle_csv, header=_MAT_HEADER, kind="material",
                          build=lambda data: cf.MaterialModel(*data.T).table)),
    _RESP_HEADER: (_read_response, partial(_oracle_csv, header=_RESP_HEADER, kind="response",
                                           build=_oracle_response)),
}


# tokens float() accepts: signed zeros, subnormals, digit grouping
_number_token = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: "%.12g" % x),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "1e-310", "-2.5e-320",
                     "1_0", "-1_000.25", "1e1_0", "+.5", "5.", "1E3"]),
)
_gap = st.sampled_from([" ", "  ", "\t", " \t "])
_blank = st.sampled_from(["", "   ", "\t"])
_case = st.sampled_from([str.lower, str.upper, str.title])
# what float() refuses, or reads as non-finite
_bad_token = st.sampled_from(["x", "nan", "-inf", "1e999", "0x10", "1__0", "--1", "#", "#x"])


@st.composite
def _s2p_lines(draw):
    groups = [[draw(_case)(draw(st.sampled_from(list(_UNIT_TO_HZ))))], [draw(_case)("s")],
              [draw(_case)(draw(st.sampled_from(["ri", "ma", "db"])))]]
    if draw(st.booleans()):
        groups.append([draw(_case)("r"), repr(draw(st.floats(1e-3, 1e3)))])
    option = draw(st.sampled_from(["#", "# ", "#\t"])) + draw(_gap).join(
        tok for group in draw(st.permutations(groups)) for tok in group)
    lines = ["! measured data", option + draw(st.sampled_from(["", " ! option # line"]))]
    for f in sorted(draw(st.lists(st.floats(1e-6, 1e12), max_size=8, unique=True))):
        tokens = [repr(f), *draw(st.lists(_number_token, min_size=8, max_size=8))]
        line = draw(_gap).join(tokens)
        lines.append(draw(_gap) + line + draw(st.sampled_from(["", " ! note 1 2 3", "!#"])))
        lines += draw(st.lists(st.one_of(_blank, st.just("! 1 2 3 4 5 6 7 8 9")), max_size=2))
    return lines


@st.composite
def _csv_lines(draw, header):
    """A toolkit CSV with increasing positive frequencies; the other fields are
    valid material values in half the draws and any float() token otherwise."""
    n_cols = header.count(",") + 1
    token = draw(st.sampled_from([st.floats(1.0, 1e6).map(repr), _number_token]))
    lines = draw(st.lists(_blank, max_size=2)) + [draw(_gap) + header]
    for f in sorted(draw(st.lists(st.floats(1e-6, 1e12), max_size=8, unique=True))):
        fields = [repr(f), *draw(st.lists(token, min_size=n_cols - 1, max_size=n_cols - 1))]
        lines.append(",".join(draw(st.sampled_from(["", " "])) + f for f in fields))
        lines += draw(st.lists(_blank, max_size=1))
    return lines


@st.composite
def _corrupted(draw, lines, first_data, sep, bad_lines):
    """lines with one fault at a drawn position, or unchanged."""
    i = draw(st.integers(first_data, max(first_data, len(lines) - 1)))
    fault = draw(st.sampled_from(["none", "shift", "token", "line", "swap"]))
    lines = list(lines)
    if fault == "none" or i >= len(lines):
        return lines
    if fault == "line":
        lines.insert(i, draw(st.sampled_from(bad_lines)))
        return lines
    row = lines[i].split(sep)
    if fault == "shift" and i + 1 < len(lines):
        # one token moves to the next line: the total count stays a multiple
        lines[i], lines[i + 1] = sep.join(row[:-1]), lines[i + 1] + sep + row[-1]
    elif fault == "token":
        row[draw(st.integers(0, len(row) - 1))] = draw(_bad_token)
        lines[i] = sep.join(row)
    elif fault == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def _assert_matches_loop(read, loop, text, same):
    lines = text.splitlines()
    try:
        expected = loop(lines)
    except cf.ParseError as err:
        with pytest.raises(cf.ParseError) as got:
            read(text)
        assert (str(got.value), got.value.line_no) == (str(err), err.line_no)
        return
    except OverflowError:  # 10 ** (dB / 20) above about 6165.1 dB
        with pytest.raises(cf.ParseError) as got:
            read(text)
        line_no = got.value.line_no
        assert str(got.value) == f"line {line_no}: dB magnitude out of range"
        loop(lines[: line_no - 1])  # the first line on which the loop overflows
        with pytest.raises(OverflowError):
            loop(lines[:line_no])
        return
    assert same(read(text), expected)


def _same_bits(got, expected):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() and np.shape(a) == np.shape(b)
               for a, b in zip(got, expected, strict=True))


def _s2p_arrays(text):
    raw = cf.parse_s2p(text)
    return raw.grid.points_hz, np.stack([raw.s11, raw.s21, raw.s12, raw.s22], axis=1), raw.z0_ohm


@settings(max_examples=400, deadline=None)
@given(data=st.data(), end=st.sampled_from(["", "\n"]))
def test_parse_s2p_matches_line_loop(data, end):
    bad_lines = ["# GHZ S RI R 50", "#x", "1 2 3", "0 0 0 0 0 0 0 0 0", "!"]
    lines = data.draw(_corrupted(data.draw(_s2p_lines()), 1, " ", bad_lines))
    text = "\n".join(lines) + end
    _assert_matches_loop(_s2p_arrays, _parse_s2p_lines, text, _same_bits)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), header=st.sampled_from([_MAT_HEADER, _RESP_HEADER]))
def test_csv_readers_match_line_loop(data, header):
    lines = data.draw(_csv_lines(header))
    first_data = next(i for i, ln in enumerate(lines) if ln.strip()) + 1
    bad_lines = [header, "1,2", ",,,", "#x", ",".join(["0"] * (header.count(",") + 1))]
    text = "\n".join(data.draw(_corrupted(lines, first_data, ",", bad_lines))) + "\n"
    _assert_matches_loop(*_CSV_READERS[header], text, _same_bits)


# line numbers count the two header lines: row k of 2000 is on line k + 3
@pytest.mark.parametrize(
    "replace, line_no, message",
    [
        ({100: "101 0.1 0 0.9 0 0.9 0 0.1", 101: "102 0.1 0 0.9 0 0.9 0 0.1 0 0"}, 103,
         "expected 9 numbers on a two-port data line, got 8"),
        ({1999: "# GHZ S RI R 50"}, 2002, "duplicate option line"),
        ({1497: "1498 0.1 0 0.9 0 0.9 oops 0.1 0"}, 1500, "unparseable number 'oops'"),
    ],
    ids=["8-then-10-tokens", "second-option-line", "bad-token-line-1500"],
)
def test_parse_s2p_names_line_in_long_file(replace, line_no, message):
    rows = [replace.get(k, f"{k + 1} 0.1 0 0.9 0 0.9 0 0.1 0") for k in range(2000)]
    text = "! header\n# GHZ S RI R 50\n" + "\n".join(rows) + "\n"
    with pytest.raises(cf.ParseError) as err:
        cf.parse_s2p(text)
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "reader, header, row, n_cols",
    [(cf.material_from_csv, _MAT_HEADER, "%de6,4.2,1,0.5", 4),
     (cf.response_from_csv, _RESP_HEADER, "%de6,0.1,0,0.9,0,-20,-0.9", 7)],
    ids=["material", "response"],
)
def test_csv_readers_name_line_in_long_file(reader, header, row, n_cols):
    kind = "material" if reader is cf.material_from_csv else "response"
    short = row.rsplit(",", 1)[0]
    cases = [
        # a short row, then a long one: the total field count is still right
        ({100: short % 101, 101: (row + ",0") % 102}, 102,
         f"expected {n_cols} columns, got {n_cols - 1}"),
        ({1998: header}, 2000, f"unparseable number in {kind} CSV"),
        ({1498: (short + ",nan") % 1499}, 1500, "non-finite number 'nan'"),
        ({1498: "1499e6" + ",oops" * (n_cols - 1)}, 1500, f"unparseable number in {kind} CSV"),
    ]
    for replace, line_no, message in cases:
        rows = [replace.get(k, row % (k + 1)) for k in range(2000)]
        text = header + "\n" + "\n".join(rows) + "\n"
        with pytest.raises(cf.ParseError) as err:
            reader(text)
        assert str(err.value) == f"line {line_no}: {message}"
