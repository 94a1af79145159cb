import json
import subprocess
import sys
from pathlib import Path

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


def test_model_missing_geometry_field(tmp_path, capsys):
    doc = json.loads(DESIGN.read_text())
    del doc["geometry"]["length_m"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["model", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "geometry.length_m" in err


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


def test_predict_grid_outside_material(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["predict", str(MAT_REF), "--length", "0.036", "--inner-d", "0.0051",
         "--outer-d", "0.008", "--grid", "1e6:2e10:11", "--out", str(tmp_path / "p.csv")],
    )
    assert code == 2
    assert "material range" in err


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
    mat = cf.MaterialModel.from_arrays([1e7, 2e10], [4.0, 4.0], [1.0, 1.0], [30.0, 30.0])
    path = tmp_path / "const.csv"
    path.write_text(cf.material_to_csv(mat))
    code, _, err = run(capsys, ["synth", str(path), "--slope-db-per-ghz", "1.0"])
    assert code == 5
    assert "slope" in err


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
