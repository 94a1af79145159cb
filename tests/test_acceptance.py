"""Acceptance suite: one test per release criterion.

Each test prints a single [criterion N] PASS/FAIL line ending in its wall
time (visible with pytest -s). Tolerances and runtime budgets are
asserted exactly as stated; nothing here is calibrated after the fact.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import coaxfilt as cf
from coaxfilt.cli import main as cli_main

from conftest import matched_material_and_geoms

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def _criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {desc} ({time.perf_counter() - t0:.3f} s)")
        raise
    print(f"[criterion {num}] PASS - {desc} ({time.perf_counter() - t0:.3f} s)")


def _random_flat_z_material(rng):
    """Dispersive material whose sqrt(mu/eps) ratio, and so Z, is flat."""
    n = 4
    f = np.sort(rng.uniform(1e7, 2e10, n))
    while np.any(np.diff(f) <= 0.0):
        f = np.sort(rng.uniform(1e7, 2e10, n))
    eps = rng.uniform(1.0, 10.0, n)
    k = rng.uniform(0.3, 3.0)
    alpha = rng.uniform(0.0, 100.0, n)
    return cf.MaterialModel(f, eps, k * k * eps, alpha), f


def test_criterion_1_matched_line_identity():
    with _criterion(1, "matched-line identity over 1000 random draws, < 5 s"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for _ in range(1000):
            mat, f_samples = _random_flat_z_material(rng)
            length = rng.uniform(0.0, 0.1)
            ratio = rng.uniform(1.1, 6.0)
            geom = cf.CoaxGeometry(length, 0.001, 0.001 * ratio)
            grid = cf.FrequencyGrid(np.linspace(f_samples[0], f_samples[-1], 8))
            z0 = cf.characteristic_impedance(geom, mat, float(grid.points_hz[0]))
            resp = cf.s_params_model(geom, mat, grid, z0)
            expected = np.exp(-cf.propagation_constant(mat, grid.points_hz) * length)
            assert np.max(np.abs(resp.s11)) < 1e-12
            assert np.max(np.abs(resp.s21 - expected)) < 1e-12
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_unitarity_and_passivity():
    with _criterion(2, "lossless unitarity and lossy passivity over 1000 draws"):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            eps = rng.uniform(1.0, 10.0)
            mu = rng.uniform(0.2, 4.0)
            length = rng.uniform(0.0, 0.15)
            ratio = rng.uniform(1.05, 8.0)
            f = rng.uniform(1e7, 2e10)
            z0 = rng.uniform(5.0, 300.0)
            geom = cf.CoaxGeometry(length, 0.001, 0.001 * ratio)
            grid = cf.FrequencyGrid(np.array([f]))

            lossless = cf.s_params_model(geom, cf.MaterialModel.constant(eps, mu, 0.0), grid, z0)
            power = abs(lossless.s11[0]) ** 2 + abs(lossless.s21[0]) ** 2
            assert abs(power - 1.0) < 1e-10

            alpha = rng.uniform(0.0, 300.0)
            lossy = cf.s_params_model(geom, cf.MaterialModel.constant(eps, mu, alpha), grid, z0)
            assert abs(lossy.s11[0]) ** 2 + abs(lossy.s21[0]) ** 2 <= 1.0 + 1e-10


def test_criterion_3_oracle_equivalence():
    with _criterion(3, "closed form vs ABCD path and two-segment cascade, 1e-10"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            eps = rng.uniform(1.0, 10.0)
            mu = rng.uniform(0.3, 3.0)
            alpha = rng.uniform(0.0, 200.0)
            length = rng.uniform(0.0, 0.1)
            ratio = rng.uniform(1.1, 8.0)
            f = rng.uniform(1e7, 2e10)
            z0 = rng.uniform(10.0, 200.0)
            mat = cf.MaterialModel.constant(eps, mu, alpha)
            geom = cf.CoaxGeometry(length, 0.001, 0.001 * ratio)
            resp = cf.s_params_model(geom, mat, cf.FrequencyGrid(np.array([f])), z0)
            s11, s21 = cf.abcd_to_s(cf.abcd_of_line(geom, mat, f), z0)
            assert abs(resp.s11[0] - s11) < 1e-10
            assert abs(resp.s21[0] - s21) < 1e-10

            if length > 0.0:
                frac = rng.uniform(0.05, 0.95)
                ga = cf.CoaxGeometry(length * frac, 0.001, 0.001 * ratio)
                gb = cf.CoaxGeometry(length * (1.0 - frac), 0.001, 0.001 * ratio)
                s11c, s21c = cf.abcd_to_s(
                    cf.abcd_of_line(ga, mat, f) @ cf.abcd_of_line(gb, mat, f), z0
                )
                assert abs(resp.s11[0] - s11c) < 1e-10
                assert abs(resp.s21[0] - s21c) < 1e-10


def test_criterion_4_noiseless_round_trip():
    with _criterion(4, "42->36 mm noiseless extraction round trip, 1e-6, < 1 s"):
        rng = np.random.default_rng(404)
        f = np.linspace(1e7, 2e10, 2001)
        lerp = (f - f[0]) / (f[-1] - f[0])
        eps = rng.uniform(2.0, 8.0) + (rng.uniform(2.0, 8.0) - rng.uniform(2.0, 8.0)) * lerp
        eps = np.clip(eps, 2.0, 8.0)
        mu = rng.uniform(0.8, 2.0) + rng.uniform(-0.2, 0.2) * lerp
        mu = np.clip(mu, 0.8, 2.0)
        alpha = rng.uniform(1.0, 5.0) + (80.0 - 5.0) * lerp * rng.uniform(0.5, 1.0)
        mat = cf.MaterialModel(f, eps, mu, alpha)
        g42 = cf.CoaxGeometry(0.042, 0.0051, 0.008)
        g36 = cf.CoaxGeometry(0.036, 0.0051, 0.008)
        grid = cf.FrequencyGrid(f)
        measured = cf.s_params_model(g42, mat, grid, 50.0)

        t0 = time.perf_counter()
        report = cf.extract_material(measured, g42)
        fe, eps_e, mu_e, alpha_e = report.material.table
        assert fe.size == 2001 and not report.flags
        eps_t, mu_t, alpha_t = mat.eval(fe)
        assert np.max(np.abs(eps_e - eps_t) / eps_t) < 1e-6
        assert np.max(np.abs(mu_e - mu_t) / mu_t) < 1e-6
        assert np.max(np.abs(alpha_e - alpha_t) / alpha_t) < 1e-6

        pred = cf.s_params_model(g36, report.material, grid, 50.0)
        elapsed = time.perf_counter() - t0
        truth = cf.s_params_model(g36, mat, grid, 50.0)
        rel = np.abs(np.abs(pred.s21) - np.abs(truth.s21)) / np.abs(truth.s21)
        assert np.max(rel) < 1e-6
        assert elapsed < 1.0


def test_criterion_5_noise_monte_carlo():
    with _criterion(5, "sigma=0.01 noise: 95% of 200 trials within 5%, < 60 s"):
        f = np.linspace(1e7, 2e10, 2001)
        mat, g42, g36 = matched_material_and_geoms()
        grid = cf.FrequencyGrid(f)
        resp42 = cf.s_params_model(g42, mat, grid, 50.0)
        truth36 = cf.s_params_model(g36, mat, grid, 50.0)

        rng = np.random.default_rng(505)
        sigma = 0.01
        n = len(f)

        def noise():
            # complex standard deviation sigma per S-parameter
            return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)

        t0 = time.perf_counter()
        max_rel_errors = []
        for _ in range(200):
            raw = cf.RawTwoPort(
                grid=grid,
                s11=resp42.s11 + noise(),
                s21=resp42.s21 + noise(),
                s12=resp42.s21 + noise(),
                s22=resp42.s11 + noise(),
                z0_ohm=50.0,
            )
            sym, _ = cf.symmetrize(raw)
            report = cf.extract_material(sym, g42, smooth_window=21)
            m = report.material
            mask = (f >= m.f_min_hz) & (f <= m.f_max_hz)
            sub = cf.FrequencyGrid(f[mask])
            pred = cf.s_params_model(g36, m, sub, 50.0)
            truth = truth36.s21[mask]
            rel = np.abs(np.abs(pred.s21) - np.abs(truth)) / np.abs(truth)
            max_rel_errors.append(float(np.max(rel)))
        elapsed = time.perf_counter() - t0

        frac_ok = float(np.mean(np.array(max_rel_errors) <= 0.05))
        assert frac_ok >= 0.95, f"only {100 * frac_ok:.1f}% of trials within 5%"
        assert elapsed < 60.0


def test_criterion_6_synthesized_design_compliance():
    with _criterion(6, "synthesized matched design: slope 1 dB/GHz, |S11| < -100 dB"):
        a1 = 2.5e-9  # Np/m per Hz
        mat = cf.MaterialModel([1e7, 2e10], [4.2, 4.2], [1.0, 1.0], [a1 * 1e7, a1 * 2e10])
        ratio = cf.solve_diameter_ratio(50.0, mat, 1e9)
        length = cf.solve_length_for_slope(1.0, mat)
        geom = cf.CoaxGeometry(length, 0.0051, 0.0051 * ratio)
        resp = cf.s_params_model(geom, mat, cf.FrequencyGrid.linear(1e7, 2e10, 2001), 50.0)
        report = cf.check_compliance(resp)
        assert abs(report.fitted_slope_db_per_ghz - 1.0) < 1e-6
        assert report.worst_reflection_db < -100.0
        assert report.reflection_pass and report.slope_pass


def test_criterion_7_inverse_function_checks():
    with _criterion(7, "impedance/ratio and reflection/impedance inverses"):
        rng = np.random.default_rng(707)
        for _ in range(500):
            target = rng.uniform(10.0, 200.0)
            mat = cf.MaterialModel.constant(rng.uniform(1.0, 9.0), rng.uniform(0.3, 3.0), 0.0)
            ratio = cf.solve_diameter_ratio(target, mat, 1e9)
            geom = cf.CoaxGeometry(0.01, 1.0, ratio)
            z = cf.characteristic_impedance(geom, mat, 1e9)
            assert abs(z - target) / target < 1e-9

            r = rng.uniform(1e-3, 1e3)
            gamma = (r - 1.0) / (r + 1.0)
            z0 = rng.uniform(1.0, 200.0)
            back = cf.impedance_from_reflection(gamma, z0)
            assert abs(back - r * z0) / (r * z0) < 1e-12


_MALFORMED = [
    ("1.0 0.1 0 0.9 0 0.9 0 0.1 0\n", 1),
    ("! c\n! c\n", 3),
    ("# GHZ S RI R 50\n# GHZ S RI R 50\n", 2),
    ("# GHZ Y RI R 50\n", 1),
    ("# GHZ S XX R 50\n", 1),
    ("# GHZ S RI R\n", 1),
    ("# GHZ S RI R fifty\n", 1),
    ("# QHZ S RI R 50\n", 1),
    ("# GHZ S RI R 50\n1.0 0.1 0 0.9 0\n", 2),
    ("# GHZ S RI R 50\n1.0 0.1 0 0.9 0 0.9 0 0.1 0 7\n", 2),
    ("# GHZ S RI R 50\n1.0 0.1 zero 0.9 0 0.9 0 0.1 0\n", 2),
    ("# GHZ S RI R 50\n1.0 0.1 inf 0.9 0 0.9 0 0.1 0\n", 2),
    ("# GHZ S RI R 50\n2.0 0 0 1 0 1 0 0 0\n1.0 0 0 1 0 1 0 0 0\n", 3),
    ("# GHZ S RI R 50\n-1.0 0 0 1 0 1 0 0 0\n", 2),
]


def test_criterion_8_touchstone_fidelity():
    with _criterion(8, "s2p round trips (3 formats x 4 units) and malformed corpus"):
        rng = np.random.default_rng(808)
        n = 50
        freqs = np.sort(rng.uniform(1e5, 5e10, n))
        while np.any(np.diff(freqs) <= 0.0):
            freqs = np.sort(rng.uniform(1e5, 5e10, n))
        vals = [
            (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5 for _ in range(4)
        ]
        raw = cf.RawTwoPort(
            grid=cf.FrequencyGrid(freqs),
            s11=vals[0], s21=vals[1], s12=vals[2], s22=vals[3],
            z0_ohm=50.0,
        )
        for fmt in ("ri", "ma", "db"):
            for unit in ("hz", "khz", "mhz", "ghz"):
                back = cf.parse_s2p(cf.write_s2p(raw, unit=unit, fmt=fmt))
                assert np.max(np.abs(back.grid.points_hz / raw.grid.points_hz - 1.0)) < 1e-10
                for name in ("s11", "s21", "s12", "s22"):
                    err = np.max(np.abs(getattr(back, name) - getattr(raw, name)))
                    assert err < 1e-10, (fmt, unit, name, err)

        assert len(_MALFORMED) >= 10
        for text, line_no in _MALFORMED:
            with pytest.raises(cf.ParseError) as err:
                cf.parse_s2p(text)
            assert err.value.line_no == line_no
            assert f"line {line_no}:" in str(err.value)


def test_criterion_9_cli_contract(tmp_path, monkeypatch, capsys):
    with _criterion(9, "CLI golden files, exit-code table, 2001-point pipeline < 1 s"):
        design = FIXTURES / "design_42mm.json"
        doc = json.loads(design.read_text())
        geom = doc["geometry"]

        # golden byte-identity for all six subcommands
        monkeypatch.chdir(tmp_path)
        cases = [
            (["model", str(design), "--out", "model_42mm.csv"],
             "model_stdout.txt", ["model_42mm.csv"]),
            (["model", str(design), "--out", "model_42mm.s2p"], None, ["model_42mm.s2p"]),
            (["extract", str(FIXTURES / "meas_42mm.s2p"), "--length", "0.042",
              "--inner-d", str(geom["inner_d_m"]), "--outer-d", str(geom["outer_d_m"]),
              "--out", "extract_material.csv"],
             "extract_stdout.txt", ["extract_material.csv"]),
            (["predict", str(FIXTURES / "material_ref.csv"), "--length", "0.036",
              "--inner-d", str(geom["inner_d_m"]), "--outer-d", str(geom["outer_d_m"]),
              "--grid", "1e9:2e10:21", "--out", "predict_36mm.csv"],
             "predict_stdout.txt", ["predict_36mm.csv"]),
            (["synth", str(FIXTURES / "material_ref.csv"), "--target-z", "50",
              "--slope-db-per-ghz", "1.0", "--f-ref", "1e9"],
             "synth_stdout.txt", []),
            (["check", str(GOLDEN / "model_42mm.csv")], "check_stdout_pass.txt", []),
            (["convert", str(GOLDEN / "model_42mm.s2p"), "convert_ma_mhz.s2p",
              "--to", "ma", "--unit", "mhz"],
             "convert_stdout.txt", ["convert_ma_mhz.s2p"]),
        ]
        for argv, stdout_golden, file_goldens in cases:
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0, argv
            if stdout_golden:
                assert out == (GOLDEN / stdout_golden).read_text(), argv
            for name in file_goldens:
                assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

        # exit-code table: 0 covered above; 2, 3, 4, 5, 6 from real inputs
        bad_design = tmp_path / "bad.json"
        broken = json.loads(design.read_text())
        del broken["geometry"]["length_m"]
        bad_design.write_text(json.dumps(broken))
        assert cli_main(["model", str(bad_design), "--out", "x.csv"]) == 2

        assert cli_main(
            ["extract", str(FIXTURES / "corrupt_nonpassive.s2p"), "--length", "0.042",
             "--inner-d", "0.0051", "--outer-d", "0.008", "--out", "m.csv"]
        ) == 3

        assert cli_main(
            ["predict", str(FIXTURES / "material_ref.csv"), "--length", "0.036",
             "--inner-d", str(geom["inner_d_m"]), "--outer-d", str(geom["outer_d_m"]),
             "--out", "p.csv", "--compare", str(FIXTURES / "meas_42mm.s2p")]
        ) == 4

        const_mat = tmp_path / "const.csv"
        const_mat.write_text(cf.material_to_csv(
            cf.MaterialModel([1e7, 2e10], [4.0, 4.0], [1.0, 1.0], [30.0, 30.0])
        ))
        assert cli_main(["synth", str(const_mat), "--slope-db-per-ghz", "1"]) == 5

        assert cli_main(["check", str(FIXTURES / "mismatch_65ohm.csv")]) == 6
        capsys.readouterr()

        # full pipeline on 2001 points: model -> extract -> predict+compare
        pipeline_design = tmp_path / "pipeline.json"
        doc2 = json.loads(design.read_text())
        doc2["grid"] = {"f_start_hz": 1e7, "f_stop_hz": 2e10, "n_points": 2001,
                        "spacing": "linear"}
        pipeline_design.write_text(json.dumps(doc2))

        t0 = time.perf_counter()
        assert cli_main(["model", str(pipeline_design), "--out", "pipe42.s2p"]) == 0
        assert cli_main(
            ["extract", "pipe42.s2p", "--length", "0.042",
             "--inner-d", str(geom["inner_d_m"]), "--outer-d", str(geom["outer_d_m"]),
             "--out", "pipe_mat.csv"]
        ) == 0
        assert cli_main(
            ["predict", "pipe_mat.csv", "--length", "0.036",
             "--inner-d", str(geom["inner_d_m"]), "--outer-d", str(geom["outer_d_m"]),
             "--grid", "1e7:2e10:2001", "--out", "pipe36.csv"]
        ) == 0
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert elapsed < 1.0, f"pipeline took {elapsed:.2f} s"

        # the predicted 36 mm response matches a direct model of 36 mm
        pred = cf.response_from_csv((tmp_path / "pipe36.csv").read_text())
        mat_true = cf.MaterialModel(
            [s["f_hz"] for s in doc["material"]["samples"]],
            [s["eps_rel"] for s in doc["material"]["samples"]],
            [s["mu_rel"] for s in doc["material"]["samples"]],
            [s["alpha_np_per_m"] for s in doc["material"]["samples"]],
        )
        g36 = cf.CoaxGeometry(0.036, geom["inner_d_m"], geom["outer_d_m"])
        truth = cf.s_params_model(g36, mat_true, pred.grid, 50.0)
        rel = np.abs(np.abs(pred.s21) - np.abs(truth.s21)) / np.abs(truth.s21)
        assert np.max(rel) < 1e-6
