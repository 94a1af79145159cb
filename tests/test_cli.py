import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coaxfilt as cf
from coaxfilt.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

DESIGN = FIXTURES / "design_42mm.json"
MEAS42 = FIXTURES / "meas_42mm.s2p"
MEAS36 = FIXTURES / "meas_36mm.s2p"
MAT_REF = FIXTURES / "material_ref.csv"

_design = json.loads(DESIGN.read_text())
G42 = _design["geometry"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------- golden runs


def test_model_golden_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["model", str(DESIGN), "--out", "model_42mm.csv"])
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "model_stdout.txt").read_text()
    assert (tmp_path / "model_42mm.csv").read_bytes() == (GOLDEN / "model_42mm.csv").read_bytes()


def test_model_golden_s2p(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, ["model", str(DESIGN), "--out", "model_42mm.s2p"])
    assert code == 0
    assert (tmp_path / "model_42mm.s2p").read_bytes() == (GOLDEN / "model_42mm.s2p").read_bytes()


def test_extract_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys,
        [
            "extract", str(MEAS42),
            "--length", "0.042",
            "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
            "--out", "extract_material.csv",
        ],
    )
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "extract_stdout.txt").read_text()
    assert (tmp_path / "extract_material.csv").read_bytes() == (
        GOLDEN / "extract_material.csv"
    ).read_bytes()


def test_predict_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        [
            "predict", str(MAT_REF),
            "--length", "0.036",
            "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
            "--grid", "1e9:2e10:21",
            "--out", "predict_36mm.csv",
        ],
    )
    assert code == 0
    assert out == (GOLDEN / "predict_stdout.txt").read_text()
    assert (tmp_path / "predict_36mm.csv").read_bytes() == (
        GOLDEN / "predict_36mm.csv"
    ).read_bytes()


def test_synth_golden(capsys):
    code, out, _ = run(
        capsys,
        ["synth", str(MAT_REF), "--target-z", "50", "--slope-db-per-ghz", "1.0",
         "--f-ref", "1e9"],
    )
    assert code == 0
    assert out == (GOLDEN / "synth_stdout.txt").read_text()


def test_check_golden_pass(capsys):
    code, out, _ = run(capsys, ["check", str(GOLDEN / "model_42mm.csv")])
    assert code == 0
    assert out == (GOLDEN / "check_stdout_pass.txt").read_text()


def test_check_golden_fail(capsys):
    code, out, _ = run(capsys, ["check", str(FIXTURES / "mismatch_65ohm.csv")])
    assert code == 6
    assert out == (GOLDEN / "check_stdout_fail.txt").read_text()


def test_convert_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        ["convert", str(GOLDEN / "model_42mm.s2p"), "convert_ma_mhz.s2p",
         "--to", "ma", "--unit", "mhz"],
    )
    assert code == 0
    assert out == (GOLDEN / "convert_stdout.txt").read_text()
    assert (tmp_path / "convert_ma_mhz.s2p").read_bytes() == (
        GOLDEN / "convert_ma_mhz.s2p"
    ).read_bytes()


def test_outputs_are_deterministic(tmp_path, capsys):
    for name in ("a.csv", "b.csv"):
        code, _, _ = run(capsys, ["model", str(DESIGN), "--out", str(tmp_path / name)])
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ------------------------------------------------------------- error paths


_DELETE = object()


def _design_with(path, value):
    """The 42 mm design with the field at path replaced, or removed by _DELETE."""
    doc = json.loads(DESIGN.read_text())
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


# each document breaks one rule, and stderr is pinned to the exact line naming it
_MALFORMED_DESIGNS = [
    (("geometry",), _DELETE, "geometry: missing required section"),
    (("geometry", "length_m"), _DELETE, "geometry.length_m: missing required field"),
    (("geometry", "inner_d_m"), "5mm", "geometry.inner_d_m: must be a number, got '5mm'"),
    (("geometry", "outer_d_m"), True, "geometry.outer_d_m: must be a number, got True"),
    (("geometry", "outer_d_m"), 0.001,
     "geometry: need 0 < inner_d_m < outer_d_m, got d=0.0051, D=0.001"),
    (("geometry", "length_m"), -1, "geometry: length_m must be >= 0, got -1.0"),
    (("material",), _DELETE, "material: missing required section"),
    (("material", "samples"), _DELETE,
     "material.samples: missing (give inline samples or material.path)"),
    (("material", "samples"), [], "material.samples: must be a non-empty list"),
    (("material", "samples", 1), 7, "material.samples[1]: must be an object"),
    (("material", "samples", 0, "eps_rel"), _DELETE,
     "material.samples[0].eps_rel: missing required field"),
    (("material", "samples", 1, "f_hz"), "2e10",
     "material.samples[1].f_hz: must be a number, got '2e10'"),
    (("material", "samples", 1, "eps_rel"), 0.5,
     "material.samples[1]: eps_rel must be finite and >= 1, got 0.5"),
    (("material",), {"path": "absent.csv"}, "material.path: file not found: {dir}/absent.csv"),
    # a valid path does not hide a malformed sample: the section names one source
    (("material",), {"path": str(MAT_REF), "samples": [{"f_hz": 1e7, "eps_rel": "junk"}]},
     "material: give either path or samples, not both"),
    (("z0_ohm",), "50", "z0_ohm: must be a number, got '50'"),
    (("z0_ohm",), 0, "z0_ohm: must be > 0, got 0.0"),
    (("grid", "n_points"), 2.0, "grid.n_points: must be an integer, got 2.0"),
    (("grid", "spacing"), "log", "grid.spacing: only 'linear' is supported, got 'log'"),
    (("grid", "f_stop_hz"), None, "grid.f_stop_hz: must be a number, got None"),
    (("grid", "f_start_hz"), 1e6,
     "grid: outside the material sample range [1e+07, 2e+10] Hz"),
    (("targets",), [], "targets: must be an object"),
    (("targets", "reflection_ceiling_db"), 3, "targets: reflection_ceiling_db must be < 0"),
    (("targets", "band_max_hz"), "20 GHz",
     "targets.band_max_hz: must be a number, got '20 GHz'"),
]


class _HugeInt(int):
    """An integer beyond float range; json.dumps writes all its digits, the test id a few."""

    def __repr__(self) -> str:
        return "10**400"


# non-finite numbers (Python's JSON reader accepts NaN and Infinity, and an integer too
# large for a float reads as infinite) and f <= 0 samples, refused by the value types
# and named by the loader
_REFUSED_VALUES = [
    (("z0_ohm",), _HugeInt(10**400), "z0_ohm: must be finite, got inf"),
    (("geometry", "length_m"), _HugeInt(10**400), "geometry: length_m must be finite, got inf"),
    (("geometry", "length_m"), math.inf, "geometry: length_m must be finite, got inf"),
    (("geometry", "length_m"), math.nan, "geometry: length_m must be finite, got nan"),
    (("geometry", "outer_d_m"), math.inf, "geometry: outer_d_m must be finite, got inf"),
    (("material", "samples", 0, "f_hz"), 0,
     "material.samples[0]: f_hz must be finite and > 0, got 0.0"),
    (("material", "samples", 0, "f_hz"), -1e9,
     "material.samples[0]: f_hz must be finite and > 0, got -1000000000.0"),
    (("z0_ohm",), math.nan, "z0_ohm: must be finite, got nan"),
    (("z0_ohm",), math.inf, "z0_ohm: must be finite, got inf"),
    (("targets", "reflection_ceiling_db"), math.nan,
     "targets: reflection_ceiling_db must be finite, got nan"),
    (("targets", "slope_tolerance_rel"), -0.1, "targets: slope_tolerance_rel must be >= 0"),
    (("grid",), {"f_start_hz": 1e9, "f_stop_hz": math.nan, "n_points": 1},
     "grid: f_stop_hz must be finite and > 0, got nan"),
    (("grid", "f_stop_hz"), math.inf, "grid: f_stop_hz must be finite and > 0, got inf"),
    (("grid", "f_start_hz"), 0, "grid: f_start_hz must be finite and > 0, got 0.0"),
    (("grid", "f_start_hz"), 2e10,
     "grid: f_stop_hz must exceed f_start_hz, got f_start_hz=20000000000.0, "
     "f_stop_hz=20000000000.0"),
]

# a misspelt or foreign key is refused by its path, not ignored in favour of a default
_UNKNOWN_FIELDS = [
    (("z0",), 75, "z0: unknown field"),
    (("targets", "reflection_ceilng_db"), -30, "targets.reflection_ceilng_db: unknown field"),
    (("grid", "f_stop"), 1e10, "grid.f_stop: unknown field"),
    (("geometry", "length_mm"), 42, "geometry.length_mm: unknown field"),
    (("material", "csv"), "m.csv", "material.csv: unknown field"),
    (("material", "samples", 1, "eps"), 4.2, "material.samples[1].eps: unknown field"),
]


@pytest.mark.parametrize(
    "path, value, message",
    _MALFORMED_DESIGNS + _REFUSED_VALUES + _UNKNOWN_FIELDS,
    ids=[".".join(map(str, p)) + ("-deleted" if v is _DELETE else f"={v!r}")
         for p, v, _ in _MALFORMED_DESIGNS + _REFUSED_VALUES + _UNKNOWN_FIELDS],
)
def test_model_malformed_design_names_field(tmp_path, capsys, path, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_design_with(path, value)))
    code, out, err = run(capsys, ["model", str(bad), "--out", str(tmp_path / "x.csv")])
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(dir=tmp_path)}\n"
    assert not (tmp_path / "x.csv").exists()


_PREDICT = ["predict", str(MAT_REF), "--inner-d", "0.0051", "--outer-d", "0.008",
            "--grid", "1e9:2e10:3"]
# the 36 mm prediction deviates 38.95% from the 42 mm measurement
_COMPARE = ["predict", str(MAT_REF), "--length", "0.036", "--inner-d", "0.0051",
            "--outer-d", "0.028169", "--compare", str(MEAS42)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_PREDICT + ["--length", "inf"], "length_m must be finite, got inf"),
        (_PREDICT + ["--length", "0.036", "--z0", "nan"], "z0_ohm must be finite and > 0, got nan"),
        (["check", str(GOLDEN / "model_42mm.csv"), "--reflection-ceiling-db", "nan"],
         "reflection_ceiling_db must be finite, got nan"),
        (["check", str(GOLDEN / "model_42mm.csv"), "--slope-tol-rel", "-1"],
         "slope_tolerance_rel must be >= 0"),
        (["predict", str(MAT_REF), "--length", "0.036", "--inner-d", "0.0051",
          "--outer-d", "0.008", "--grid", "1e9:nan:1"],
         "f_stop_hz must be finite and > 0, got nan"),
        (_PREDICT + ["--length", "0.036", "--grid", "1e9:inf:5"],
         "f_stop_hz must be finite and > 0, got inf"),
        (_PREDICT + ["--length", "0.036", "--grid", "0:2e10:5"],
         "f_start_hz must be finite and > 0, got 0.0"),
        (_PREDICT + ["--length", "0.036", "--grid", "2e10:1e9:5"],
         "f_stop_hz must exceed f_start_hz, got f_start_hz=20000000000.0, "
         "f_stop_hz=1000000000.0"),
        (_PREDICT + ["--length", "0.036", "--grid", "1e9:1e9:3"],
         "f_stop_hz must exceed f_start_hz, got f_start_hz=1000000000.0, "
         "f_stop_hz=1000000000.0"),
        (_COMPARE + ["--tol", "nan"], "--tol must be finite and >= 0, got nan"),
        (_COMPARE + ["--tol", "-1"], "--tol must be finite and >= 0, got -1.0"),
        (_COMPARE + ["--tol", "inf"], "--tol must be finite and >= 0, got inf"),
        (["synth", str(MAT_REF), "--slope-db-per-ghz", "inf"],
         "target_slope_db_per_ghz must be finite and > 0, got inf"),
        (["synth", str(MAT_REF), "--slope-db-per-ghz", "nan"],
         "target_slope_db_per_ghz must be finite and > 0, got nan"),
        (["synth", str(MAT_REF), "--target-z", "nan"],
         "target_z_ohm must be finite and > 0, got nan"),
        (["synth", str(MAT_REF), "--target-z", "inf"],
         "target_z_ohm must be finite and > 0, got inf"),
        # the valid impedance target is solved but not printed: no partial report
        (["synth", str(MAT_REF), "--target-z", "50", "--slope-db-per-ghz", "nan"],
         "target_slope_db_per_ghz must be finite and > 0, got nan"),
    ],
    ids=["predict-length-inf", "predict-z0-nan", "check-ceiling-nan", "check-tol-negative",
         "predict-grid-nan-stop", "predict-grid-inf-stop", "predict-grid-zero-start",
         "predict-grid-reversed", "predict-grid-equal-ends",
         "predict-tol-nan", "predict-tol-negative", "predict-tol-inf",
         "synth-slope-inf", "synth-slope-nan", "synth-target-z-nan", "synth-target-z-inf",
         "synth-target-z-then-slope-nan"],
)
def test_out_of_range_flag_names_field(tmp_path, capsys, argv, message):
    out_path = tmp_path / "p.csv"
    extra = ["--out", str(out_path)] if argv[0] == "predict" else []
    assert run(capsys, argv + extra) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["model", str(DESIGN), "--out", "{dir}/x.csv"],
        ["extract", str(MEAS42), "--length", "0.042", "--inner-d", str(G42["inner_d_m"]),
         "--outer-d", str(G42["outer_d_m"]), "--out", "{dir}/x.csv"],
        ["convert", str(GOLDEN / "model_42mm.s2p"), "{dir}/x.s2p"],
    ],
    ids=["model", "extract", "convert"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    argv = [a.format(dir=missing) for a in argv]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{argv[-1]}'\n"


def test_model_zero_length_is_all_pass(tmp_path, capsys):
    doc = json.loads(DESIGN.read_text())
    doc["geometry"]["length_m"] = 0.0
    d = tmp_path / "d.json"
    d.write_text(json.dumps(doc))
    out_path = tmp_path / "x.csv"
    code, _, _ = run(capsys, ["model", str(d), "--out", str(out_path)])
    assert code == 0
    resp = cf.response_from_csv(out_path.read_text())
    assert all(s == 1.0 for s in resp.s21)
    assert all(s == 0.0 for s in resp.s11)


def test_model_full_band_monotone_loss(tmp_path, capsys):
    # matched lossy design modeled over the default-width band: |S21| in
    # dB decreases monotonically with frequency
    doc = json.loads(DESIGN.read_text())
    doc["grid"] = {"f_start_hz": 1e7, "f_stop_hz": 2e10, "n_points": 2001,
                   "spacing": "linear"}
    d = tmp_path / "d.json"
    d.write_text(json.dumps(doc))
    out_path = tmp_path / "full.csv"
    code, _, _ = run(capsys, ["model", str(d), "--out", str(out_path)])
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    s21_db = [float(r.split(",")[6]) for r in rows]
    assert all(a > b for a, b in zip(s21_db, s21_db[1:]))


def test_model_bad_out_extension(tmp_path, capsys):
    code, _, err = run(capsys, ["model", str(DESIGN), "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert ".csv or .s2p" in err


def test_extract_zero_length(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["extract", str(MEAS42), "--length", "0", "--inner-d", "0.0051",
         "--outer-d", "0.008", "--out", str(tmp_path / "m.csv")],
    )
    assert code == 2


def test_extract_corrupt_file_fails_with_flags(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["extract", str(FIXTURES / "corrupt_nonpassive.s2p"), "--length", "0.042",
         "--inner-d", "0.0051", "--outer-d", "0.008", "--out", str(tmp_path / "m.csv")],
    )
    assert code == 3
    assert "passivity-violation" in err
    assert "point 0" in err


def test_extract_refuses_overflowing_pair_average(tmp_path, capsys):
    # S11 + S22 overflows when the pairs are averaged, and the averaged S11 is refused
    lines = MEAS42.read_text().splitlines()
    row = lines[2].split()
    row[1] = row[7] = "1.5e308"
    lines[2] = " ".join(row)
    path = tmp_path / "overflow.s2p"
    path.write_text("\n".join(lines) + "\n")
    argv = ["extract", str(path), "--length", "0.042", "--inner-d", str(G42["inner_d_m"]),
            "--outer-d", str(G42["outer_d_m"]), "--out", str(tmp_path / "m.csv")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(capsys, argv) == (2, "", "error: s11 holds a non-finite value\n")
    assert not (tmp_path / "m.csv").exists()


def test_predict_grid_outside_material(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["predict", str(MAT_REF), "--length", "0.036", "--inner-d", "0.0051",
         "--outer-d", "0.008", "--grid", "1e6:2e10:11", "--out", str(tmp_path / "p.csv")],
    )
    assert (code, err) == (2, "error: frequency outside material range [1e+07, 2e+10] Hz\n")
    assert not (tmp_path / "p.csv").exists()


def test_predict_default_grid_is_the_design_default(tmp_path, capsys):
    out_path = tmp_path / "p.csv"
    code, _, _ = run(
        capsys,
        ["predict", str(MAT_REF), "--length", "0.036", "--inner-d", "0.0051",
         "--outer-d", "0.008", "--out", str(out_path)],
    )
    assert code == 0
    grid = cf.response_from_csv(out_path.read_text()).grid.points_hz
    assert grid.tolist() == cf.FrequencyGrid.linear(1e7, 2e10, 2001).points_hz.tolist()


def test_predict_compare_within_tolerance(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["predict", str(MAT_REF), "--length", "0.036",
         "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
         "--out", str(tmp_path / "p.csv"), "--compare", str(MEAS36)],
    )
    assert code == 0
    assert "max relative |S21| deviation" in out


def test_predict_compare_exceeding_tolerance(tmp_path, capsys):
    # comparing a 36 mm prediction against 42 mm data blows the default 10%
    code, out, err = run(
        capsys,
        ["predict", str(MAT_REF), "--length", "0.036",
         "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
         "--out", str(tmp_path / "p.csv"), "--compare", str(MEAS42)],
    )
    assert code == 4
    assert "exceeds tolerance" in err


def test_predict_compare_defaults_to_the_compared_z0(tmp_path, capsys):
    # the same filter referenced to 75 Ohm: |S21| matches only when modeled at 75 Ohm too
    geom = cf.CoaxGeometry(0.036, G42["inner_d_m"], G42["outer_d_m"])
    material = cf.material_from_csv(MAT_REF.read_text())
    resp = cf.s_params_model(geom, material, cf.FrequencyGrid.linear(1e9, 2e10, 21), 75.0)
    meas = tmp_path / "meas_36mm_75ohm.s2p"
    meas.write_text(cf.write_s2p(cf.raw_from_response(resp)))
    argv = ["predict", str(MAT_REF), "--length", "0.036",
            "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
            "--out", str(tmp_path / "p.csv"), "--compare", str(meas)]

    def max_deviation(out):
        line = next(ln for ln in out.splitlines() if ln.startswith("max relative"))
        return float(line.split(": ")[1].rstrip("%")) / 100.0

    code, out, _ = run(capsys, argv)
    assert code == 0
    assert max_deviation(out) < 1e-6
    # an explicit --z0 is still honoured
    code, out, _ = run(capsys, argv + ["--z0", "50"])
    assert code == 0
    assert max_deviation(out) > 0.05


def test_predict_tiny_tol_fails(tmp_path, capsys):
    # even self-comparison trips an absurdly small tolerance
    code, _, _ = run(
        capsys,
        ["predict", str(MAT_REF), "--length", "0.042",
         "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
         "--out", str(tmp_path / "p.csv"), "--compare", str(MEAS42), "--tol", "1e-18"],
    )
    assert code == 4


def test_noisy_extract_predict_pipeline(tmp_path, capsys):
    # measurement noise at extraction stays within a few percent of the
    # noiseless cross-length truth once the median smoother is on
    import math

    import numpy as np

    rng = np.random.default_rng(99)
    mat = cf.material_from_csv(MAT_REF.read_text())
    g42 = cf.CoaxGeometry(0.042, G42["inner_d_m"], G42["outer_d_m"])
    g36 = cf.CoaxGeometry(0.036, G42["inner_d_m"], G42["outer_d_m"])
    grid = cf.FrequencyGrid.linear(1e7, 2e10, 2001)
    clean42 = cf.s_params_model(g42, mat, grid, 50.0)

    def noise():
        return 0.01 * (
            rng.standard_normal(2001) + 1j * rng.standard_normal(2001)
        ) / math.sqrt(2.0)

    noisy = cf.RawTwoPort(
        grid=grid,
        s11=clean42.s11 + noise(),
        s21=clean42.s21 + noise(),
        s12=clean42.s21 + noise(),
        s22=clean42.s11 + noise(),
        z0_ohm=50.0,
    )
    meas_path = tmp_path / "noisy42.s2p"
    meas_path.write_text(cf.write_s2p(noisy))
    # noise can flag the few lowest points as negative-loss, so the
    # comparison grid starts above the region the material may not cover
    cmp_grid = cf.FrequencyGrid.linear(5e8, 2e10, 1951)
    truth36 = tmp_path / "truth36.s2p"
    truth36.write_text(
        cf.write_s2p(cf.raw_from_response(cf.s_params_model(g36, mat, cmp_grid, 50.0)))
    )

    mat_out = tmp_path / "mat.csv"
    code, out, err = run(
        capsys,
        ["extract", str(meas_path), "--length", "0.042",
         "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
         "--smooth-window", "21", "--out", str(mat_out)],
    )
    assert code == 0
    assert "asymmetry_max" in out

    code, out, err = run(
        capsys,
        ["predict", str(mat_out), "--length", "0.036",
         "--inner-d", str(G42["inner_d_m"]), "--outer-d", str(G42["outer_d_m"]),
         "--out", str(tmp_path / "pred36.csv"), "--compare", str(truth36)],
    )
    assert code == 0, err
    max_line = next(l for l in out.splitlines() if l.startswith("max relative"))
    assert float(max_line.split(":")[1].rstrip("%")) < 5.0


def test_predict_rejects_grid_plus_compare(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["predict", str(MAT_REF), "--length", "0.036", "--inner-d", "0.0051",
         "--outer-d", "0.008", "--grid", "1e9:2e10:5", "--out", str(tmp_path / "p.csv"),
         "--compare", str(MEAS36)],
    )
    assert code == 2


def test_synth_constant_alpha_slope_unsupported(tmp_path, capsys):
    mat = cf.MaterialModel([1e7, 2e10], [4.0, 4.0], [1.0, 1.0], [30.0, 30.0])
    path = tmp_path / "const.csv"
    path.write_text(cf.material_to_csv(mat))
    code, _, err = run(capsys, ["synth", str(path), "--slope-db-per-ghz", "1.0"])
    assert code == 5
    assert "slope" in err
    # the impedance target is solvable, but a refused slope leaves no partial report
    argv = ["synth", str(path), "--target-z", "50", "--slope-db-per-ghz", "1.0"]
    assert run(capsys, argv) == (
        5, "", "error: alpha slope is not positive; no length gives the target\n"
    )


@pytest.mark.parametrize(
    "target, message",
    [
        ("1e6", "no finite D/d > 1 gives 1e+06 Ohm (D/d = inf)"),
        ("1e-300", "no finite D/d > 1 gives 1e-300 Ohm (D/d = 1)"),
    ],
)
def test_synth_unreachable_target_z(capsys, target, message):
    assert run(capsys, ["synth", str(MAT_REF), "--target-z", target]) == (
        5, "", f"error: {message}\n"
    )


@pytest.mark.parametrize("f_ref, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"),
                                           ("-1", "-1.0")])
def test_synth_refuses_bad_f_ref(tmp_path, capsys, f_ref, shown):
    # a one-row material covers every frequency, so the range check lets any f_ref through
    path = tmp_path / "one_row.csv"
    path.write_text(cf.material_to_csv(cf.MaterialModel.constant(4.2, 1.0, 0.0)))
    assert run(capsys, ["synth", str(path), "--target-z", "50", "--f-ref", f_ref]) == (
        2, "", f"error: f_ref_hz must be finite and > 0, got {shown}\n"
    )


def test_synth_requires_a_target(capsys):
    code, _, err = run(capsys, ["synth", str(MAT_REF)])
    assert code == 2


def test_synth_solved_ratio_models_matched(tmp_path, capsys):
    # feed the solved ratio back into a design; in-band |S11| stays tiny
    code, out, _ = run(capsys, ["synth", str(MAT_REF), "--target-z", "50", "--f-ref", "1e9"])
    assert code == 0
    ratio = float(out.splitlines()[0].split(":")[1])
    doc = json.loads(DESIGN.read_text())
    doc["geometry"]["outer_d_m"] = doc["geometry"]["inner_d_m"] * ratio
    d = tmp_path / "d.json"
    d.write_text(json.dumps(doc))
    out_path = tmp_path / "r.csv"
    code, _, _ = run(capsys, ["model", str(d), "--out", str(out_path)])
    assert code == 0
    resp = cf.response_from_csv(out_path.read_text())
    assert max(abs(s) for s in resp.s11) < 1e-5  # about -100 dB


def test_check_empty_band(capsys):
    code, _, err = run(
        capsys, ["check", str(GOLDEN / "model_42mm.csv"), "--band-max-hz", "1e8"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "text, code, err",
    [
        ("# GHZ S RI R 50\n1.0 0.1 0 0.9 0\n", 2,
         "error: line 2: expected 9 numbers on a two-port data line, got 5\n"),
        # 10 ** (dB / 20) is beyond the float range above about 6165.1 dB
        ("# GHZ S DB R 50\n1 6165 0 0 0 0 0 0 0\n", 0, ""),
        ("# GHZ S DB R 50\n1 6166 0 0 0 0 0 0 0\n", 2,
         "error: line 2: dB magnitude out of range\n"),
    ],
    ids=["token-count", "db-6165", "db-6166"],
)
def test_convert_malformed_reports_line(tmp_path, capsys, text, code, err):
    src = tmp_path / "in.s2p"
    src.write_text(text)
    assert run(capsys, ["convert", str(src), str(tmp_path / "o.s2p")])[::2] == (code, err)
    assert (tmp_path / "o.s2p").exists() == (code == 0)


def test_convert_round_trip_preserves_values(tmp_path, capsys):
    mid = tmp_path / "mid.s2p"
    back = tmp_path / "back.s2p"
    assert run(capsys, ["convert", str(MEAS42), str(mid), "--to", "db", "--unit", "khz"])[0] == 0
    assert run(capsys, ["convert", str(mid), str(back), "--to", "ri", "--unit", "ghz"])[0] == 0
    a = cf.parse_s2p(MEAS42.read_text())
    b = cf.parse_s2p(back.read_text())
    assert max(abs(x - y) for x, y in zip(a.s21, b.s21)) < 1e-10


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, ["extract", str(tmp_path / "nope.s2p"), "--length", "0.042",
                                "--inner-d", "0.0051", "--outer-d", "0.008",
                                "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert "no such file" in err


def test_internal_numeric_error_maps_to_exit_1(monkeypatch, capsys):
    # main resolves _cmd_synth at call time, so patching the module
    # attribute reroutes the subcommand
    import coaxfilt.cli as cli_mod

    def boom(args):
        raise cf.SingularNetworkError("synthetic failure")

    monkeypatch.setattr(cli_mod, "_cmd_synth", boom)
    code = cli_mod.main(["synth", str(MAT_REF), "--target-z", "50"])
    assert code == 1


def test_module_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "coaxfilt", "model", str(DESIGN),
         "--out", str(tmp_path / "m.csv")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "modeled 21 points" in result.stdout
    assert (tmp_path / "m.csv").read_bytes() == (GOLDEN / "model_42mm.csv").read_bytes()


def test_make_fixtures_reproduces_committed_bytes():
    script = Path(__file__).parent.parent / "scripts" / "make_fixtures.py"
    result = subprocess.run(
        [sys.executable, str(script), "--check"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "match the committed bytes" in result.stdout


def test_run_length_transfer_script_noisy():
    script = Path(__file__).parent.parent / "scripts" / "run_length_transfer.py"
    result = subprocess.run(
        [sys.executable, str(script), "--noise", "0.01", "--smooth-window", "21"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "prediction 42 mm -> 36 mm" in result.stdout
    max_line = next(l for l in result.stdout.splitlines() if "max  relative" in l)
    assert float(max_line.split(":")[1].rstrip("%")) < 5.0
