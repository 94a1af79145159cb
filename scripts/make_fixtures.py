#!/usr/bin/env python3
"""Regenerate the committed test fixtures and golden CLI outputs.

Everything here is deterministic; rerunning must reproduce the committed
bytes exactly. Run from the repository root:

    python scripts/make_fixtures.py            # overwrite tests/fixtures and tests/golden
    python scripts/make_fixtures.py --check    # regenerate elsewhere and compare

`--check` writes into a temporary directory, byte-compares the result
against the committed files, names each file that differs (or exists on
one side only) and exits 1 if any does.

GOLDEN_RUNS is the one statement of the golden CLI runs; acceptance
criterion 9 and CI replay it against the committed goldens.
"""

import argparse
import filecmp
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

import coaxfilt as cf
from coaxfilt.cli import main as cli_main
from reference_filter import matched_geometry, reference_material

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

LENGTH_42 = 0.042
LENGTH_36 = 0.036

MATERIAL = reference_material(1.0, LENGTH_42)
G42 = matched_geometry(LENGTH_42, MATERIAL)
G36 = matched_geometry(LENGTH_36, MATERIAL)


class GoldenRun(NamedTuple):
    """One pinned CLI run: argv ({fixtures} and {golden} stand for the two
    directories), its exit code, the golden holding its stdout (None if
    not kept) and the output files kept as goldens of the same name."""

    argv: list[str]
    code: int
    stdout: str | None
    outputs: list[str]


# Every golden CLI output is produced here, in order: the check and convert
# runs read model_42mm.csv and model_42mm.s2p from the golden directory.
# Output names are bare, so the echoed "wrote <path>" lines do not depend
# on where the runs happen.
GOLDEN_RUNS = [
    GoldenRun(["model", "{fixtures}/design_42mm.json", "--out", "model_42mm.csv"],
              0, "model_stdout.txt", ["model_42mm.csv"]),
    GoldenRun(["model", "{fixtures}/design_42mm.json", "--out", "model_42mm.s2p"],
              0, None, ["model_42mm.s2p"]),
    GoldenRun(["extract", "{fixtures}/meas_42mm.s2p", "--length", "0.042",
               "--inner-d", str(G42.inner_d_m), "--outer-d", str(G42.outer_d_m),
               "--out", "extract_material.csv"],
              0, "extract_stdout.txt", ["extract_material.csv"]),
    GoldenRun(["predict", "{fixtures}/material_ref.csv", "--length", "0.036",
               "--inner-d", str(G36.inner_d_m), "--outer-d", str(G36.outer_d_m),
               "--grid", "1e9:2e10:21", "--out", "predict_36mm.csv"],
              0, "predict_stdout.txt", ["predict_36mm.csv"]),
    GoldenRun(["synth", "{fixtures}/material_ref.csv", "--target-z", "50",
               "--slope-db-per-ghz", "1.0", "--f-ref", "1e9"],
              0, "synth_stdout.txt", []),
    GoldenRun(["check", "{golden}/model_42mm.csv"], 0, "check_stdout_pass.txt", []),
    GoldenRun(["check", "{fixtures}/mismatch_65ohm.csv"], 6, "check_stdout_fail.txt", []),
    GoldenRun(["convert", "{golden}/model_42mm.s2p", "convert_ma_mhz.s2p",
               "--to", "ma", "--unit", "mhz"],
              0, "convert_stdout.txt", ["convert_ma_mhz.s2p"]),
    GoldenRun(["convert", "{golden}/model_42mm.s2p", "convert_db_hz.s2p",
               "--to", "db", "--unit", "hz"],
              0, None, ["convert_db_hz.s2p"]),
]


def golden_argv(argv: list[str], fixtures: Path, golden_dir: Path) -> list[str]:
    """argv with its {fixtures} and {golden} placeholders filled in."""
    return [a.format(fixtures=fixtures, golden=golden_dir) for a in argv]


def generate(fixtures: Path, golden_dir: Path) -> None:
    """Write every fixture into `fixtures` and every golden into `golden_dir`."""
    fixtures.mkdir(parents=True, exist_ok=True)
    golden_dir.mkdir(parents=True, exist_ok=True)

    # --- fixtures -----------------------------------------------------
    fields = cf.MaterialSample._fields  # the MaterialModel.table columns
    design = {
        "geometry": {
            "length_m": LENGTH_42,
            "inner_d_m": G42.inner_d_m,
            "outer_d_m": G42.outer_d_m,
        },
        "material": {
            "samples": [
                dict(zip(fields, row)) for row in zip(*(c.tolist() for c in MATERIAL.table))
            ]
        },
        "z0_ohm": 50.0,
        "grid": {"f_start_hz": 1e9, "f_stop_hz": 2e10, "n_points": 21, "spacing": "linear"},
        "targets": {
            "reflection_ceiling_db": -20.0,
            "band_max_hz": 2e10,
            "slope_target_db_per_ghz": 1.0,
            "slope_tolerance_rel": 0.1,
        },
    }
    (fixtures / "design_42mm.json").write_text(json.dumps(design, indent=2) + "\n")
    (fixtures / "material_ref.csv").write_text(cf.material_to_csv(MATERIAL))

    meas_grid = cf.FrequencyGrid.linear(1e8, 2e10, 201)
    for geom, name in ((G42, "meas_42mm.s2p"), (G36, "meas_36mm.s2p")):
        resp = cf.s_params_model(geom, MATERIAL, meas_grid, 50.0)
        (fixtures / name).write_text(cf.write_s2p(cf.raw_from_response(resp)))

    # gain-like corrupted file: every point violates passivity
    corrupt_grid = cf.FrequencyGrid.linear(1e9, 2e9, 11)
    corrupt = cf.RawTwoPort(
        grid=corrupt_grid,
        s11=np.full(11, 0.001 + 0.0j),
        s21=np.full(11, 1.2 + 0.0j),
        s12=np.full(11, 1.2 + 0.0j),
        s22=np.full(11, 0.001 + 0.0j),
    )
    (fixtures / "corrupt_nonpassive.s2p").write_text(cf.write_s2p(corrupt))

    # mismatched lossless 65 Ohm line; fails the -20 dB ceiling
    mis_mat = cf.MaterialModel.constant(4.0, 1.0, 0.0)
    mis_ratio = cf.solve_diameter_ratio(65.0, mis_mat, 1e9)
    mis_geom = cf.CoaxGeometry(LENGTH_42, 0.001, 0.001 * mis_ratio)
    mis_resp = cf.s_params_model(mis_geom, mis_mat, meas_grid, 50.0)
    (fixtures / "mismatch_65ohm.csv").write_text(cf.export_csv(mis_resp))

    # --- golden CLI outputs -------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        old_cwd = Path.cwd()
        os.chdir(tmp)
        try:
            for run in GOLDEN_RUNS:
                argv = golden_argv(run.argv, fixtures, golden_dir)
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_main(argv)
                assert code == run.code, (argv, code, buf.getvalue())
                if run.stdout:
                    (golden_dir / run.stdout).write_text(buf.getvalue())
                for name in run.outputs:
                    shutil.copyfile(Path(tmp) / name, golden_dir / name)
        finally:
            os.chdir(old_cwd)


def check() -> int:
    """Regenerate into a temporary directory and compare with the committed files."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {FIXTURES: Path(tmp) / "fixtures", GOLDEN: Path(tmp) / "golden"}
        generate(fresh[FIXTURES], fresh[GOLDEN])
        differing = []
        for committed, regenerated in fresh.items():
            names = {p.name for p in committed.iterdir()} | {p.name for p in regenerated.iterdir()}
            for name in sorted(names):
                a, b = committed / name, regenerated / name
                if not (a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)):
                    differing.append(a.relative_to(ROOT))
    for path in differing:
        print(f"differs: {path}")
    if differing:
        return 1
    print("fixtures and golden outputs match the committed bytes")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh regeneration with the committed files instead of overwriting them",
    )
    if parser.parse_args().check:
        return check()
    generate(FIXTURES, GOLDEN)
    print(f"fixtures in {FIXTURES}")
    print(f"golden outputs in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
