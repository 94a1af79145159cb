import math

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
        ("# GHZ S RI R 50\n1.0 0.1 0 0.9 0\n", 2, "expected 9"),
        ("# GHZ S RI R 50\n1.0 0.1 0 0.9 0 0.9 0 0.1 0 7\n", 2, "expected 9"),
        ("# GHZ S RI R 50\n1.0 0.1 zero 0.9 0 0.9 0 0.1 0\n", 2, "unparseable number"),
        ("# GHZ S RI R 50\n1.0 0.1 nan 0.9 0 0.9 0 0.1 0\n", 2, "non-finite"),
        ("# GHZ S RI R 50\n2.0 0 0 1 0 1 0 0 0\n1.0 0 0 1 0 1 0 0 0\n", 3, "strictly increasing"),
        ("# GHZ S RI R 50\n0.0 0 0 1 0 1 0 0 0\n", 2, "must be > 0"),
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
    for s in mat.samples:
        lines.append(",".join(_fmt(v) for v in (s.f_hz, s.eps_rel, s.mu_rel, s.alpha_np_per_m)))
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
    mat = cf.MaterialModel.from_arrays(*zip(*rows))
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


def test_response_csv_errors():
    with pytest.raises(cf.ParseError):
        cf.response_from_csv("")
    with pytest.raises(cf.ParseError):
        cf.response_from_csv("wrong,header\n")
    with pytest.raises(cf.ParseError) as err:
        cf.response_from_csv("freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n1,2\n")
    assert err.value.line_no == 2


def test_material_csv_round_trip():
    mat = cf.MaterialModel.from_arrays(
        [1e7, 2e10], [4.0, 5.5], [1.2, 1.0], [0.0, 60.0]
    )
    back = cf.material_from_csv(cf.material_to_csv(mat))
    for a, b in zip(mat.samples, back.samples):
        assert a == b


def test_material_csv_errors():
    with pytest.raises(cf.ParseError):
        cf.material_from_csv("bad header\n1,2,3,4\n")
    with pytest.raises(cf.ParseError) as err:
        cf.material_from_csv("f_hz,eps_rel,mu_rel,alpha_np_per_m\n1e9,4.0,1.0\n")
    assert err.value.line_no == 2


# Every bad table is refused at the line of its first bad row, counting blank lines.
@pytest.mark.parametrize(
    "reader, text, line_no, message",
    [
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
        (cf.response_from_csv,
         f"{_RESP_HEADER}\n2e9,0,0,1,0,-300,0\n1e9,0,0,1,0,-300,0\n3e9,0,0,1,0,-300,0\n", 3,
         "grid frequencies must be strictly increasing"),
    ],
)
def test_csv_readers_refuse_non_finite(reader, text, line_no, message):
    with pytest.raises(cf.ParseError) as err:
        reader(text)
    assert err.value.line_no == line_no
    assert message in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
def test_writers_refuse_non_finite(bad):
    raw = _raw([1e9, 2e9], [0.1, bad], [0.9, 0.5])
    for fmt in ("ri", "ma", "db"):
        with pytest.raises(ValueError, match="non-finite"):
            cf.write_s2p(raw, fmt=fmt)
    resp = cf.TwoPortResponse(grid=raw.grid, s11=raw.s21, s21=raw.s11)
    with pytest.raises(ValueError, match="non-finite"):
        cf.export_csv(resp)


# ------------------------------------------- bulk readers vs line loops
#
# The readers validate whole arrays first and rerun their line-by-line
# loop only to name an error. The loop is the oracle: the bulk path must
# return bit-identical arrays for every text the loop accepts, and must
# decline (return None) every text the loop refuses.

ts = cf.touchstone

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
_bad_token = st.sampled_from(["x", "nan", "-inf", "1e999", "0x10", "1__0", "--1", "#"])


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


def _assert_bulk_matches_loop(bulk, loop, lines, same):
    try:
        expected = loop(lines)
    except cf.ParseError:
        assert bulk(lines) is None
        return
    except OverflowError as err:
        # 10 ** (dB / 20) overflows above about 6165 dB: the bulk path raises
        # the same, or declines and leaves the loop to raise it
        try:
            assert bulk(lines) is None
        except OverflowError as bulk_err:
            assert str(bulk_err) == str(err)
        return
    got = bulk(lines)
    assert got is not None
    assert same(got, expected)


def _same_bits(got, expected):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, expected))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_s2p_bulk_matches_line_loop(data):
    lines = data.draw(_s2p_lines())
    lines = data.draw(_corrupted(lines, 2, " ", ["# GHZ S RI R 50", "1 2 3", "!"]))
    _assert_bulk_matches_loop(ts._parse_s2p_bulk, ts._parse_s2p_lines, lines, _same_bits)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), header=st.sampled_from([_MAT_HEADER, _RESP_HEADER]))
def test_read_csv_bulk_matches_line_loop(data, header):
    n_cols = header.count(",") + 1
    lines = data.draw(st.lists(_blank, max_size=2)) + [data.draw(_gap) + header]
    first_data = len(lines)
    for _ in range(data.draw(st.integers(0, 8))):
        fields = data.draw(st.lists(_number_token, min_size=n_cols, max_size=n_cols))
        lines.append(",".join(data.draw(st.sampled_from(["", " "])) + f for f in fields))
        lines += data.draw(st.lists(_blank, max_size=1))
    lines = data.draw(_corrupted(lines, first_data, ",", [header, "1,2", ",,,"]))
    _assert_bulk_matches_loop(
        lambda ls: ts._read_csv_bulk(ls, header),
        lambda ls: ts._read_csv_lines(ls, header, "material"),
        lines,
        lambda got, expected: got.tobytes() == expected.tobytes() and got.shape == expected.shape,
    )


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
def test_parse_s2p_bulk_declines_and_loop_names_line(replace, line_no, message):
    rows = [replace.get(k, f"{k + 1} 0.1 0 0.9 0 0.9 0 0.1 0") for k in range(2000)]
    text = "! header\n# GHZ S RI R 50\n" + "\n".join(rows) + "\n"
    assert ts._parse_s2p_bulk(text.splitlines()) is None
    with pytest.raises(cf.ParseError) as err:
        cf.parse_s2p(text)
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "reader, header, row, n_cols",
    [(cf.material_from_csv, _MAT_HEADER, "%de6,4.2,1,0.5", 4),
     (cf.response_from_csv, _RESP_HEADER, "%de6,0.1,0,0.9,0,-20,-0.9", 7)],
    ids=["material", "response"],
)
def test_csv_bulk_declines_and_loop_names_line(reader, header, row, n_cols):
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
        assert ts._read_csv_bulk(text.splitlines(), header) is None
        with pytest.raises(cf.ParseError) as err:
            reader(text)
        assert str(err.value) == f"line {line_no}: {message}"
