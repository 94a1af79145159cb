"""Command-line frontend.

Subcommands: model, extract, predict, synth, check, convert. Reports go
to stdout, diagnostics to stderr, data only to --out paths. Exit codes:
0 success, 1 internal numeric error, 2 invalid input (an unreadable input
or unwritable --out path included), 3 extraction failure, 4 prediction
tolerance exceeded, 5 synthesis unsupported, 6 compliance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .constants import NP_TO_DB
from .design import DEFAULT_GRID, load_design
from .errors import (
    CoaxfiltError,
    DesignError,
    ExtractionError,
    FrequencyRangeError,
    InsufficientDataError,
    NoSolutionError,
    ParseError,
    UnsupportedMaterialError,
)
from .extraction import count_flags, extract_material
from .synthesis import (
    ComplianceTargets,
    alpha_affine_fit,
    check_compliance,
    solve_diameter_ratio,
    solve_length_for_slope,
)
from .touchstone import (
    FORMATS,
    UNIT_TO_HZ,
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
    CoaxGeometry,
    FrequencyGrid,
    characteristic_impedance,
    magnitude_db,
    s_params_model,
)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2
EXIT_EXTRACTION = 3
EXIT_PREDICTION = 4
EXIT_SYNTHESIS = 5
EXIT_COMPLIANCE = 6

_DEFAULT_GRID_SPEC = "{f_start_hz:g}:{f_stop_hz:g}:{n_points}".format(**DEFAULT_GRID)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_response(resp, out_path: str) -> None:
    path = Path(out_path)
    suffix = path.suffix.lower()
    if suffix == ".s2p":
        path.write_text(write_s2p(raw_from_response(resp)))
    elif suffix == ".csv":
        path.write_text(export_csv(resp))
    else:
        raise ValueError(f"--out must end in .csv or .s2p, got {out_path!r}")


def _geometry_from_args(args) -> CoaxGeometry:
    return CoaxGeometry(
        length_m=args.length, inner_d_m=args.inner_d, outer_d_m=args.outer_d
    )


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=float, required=True, help="line length, m")
    p.add_argument("--inner-d", type=float, required=True, help="inner conductor diameter, m")
    p.add_argument("--outer-d", type=float, required=True, help="outer conductor diameter, m")


def _parse_grid_spec(spec: str) -> FrequencyGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid must be START_HZ:STOP_HZ:N_POINTS, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError:
        raise ValueError(f"--grid must be START_HZ:STOP_HZ:N_POINTS, got {spec!r}")
    return FrequencyGrid.linear(start, stop, n)


def _read(path_str: str) -> str:
    path = Path(path_str)
    if not path.is_file():
        raise ValueError(f"no such file: {path_str}")
    return path.read_text()


def _load_response(path_str: str):
    text = _read(path_str)
    if Path(path_str).suffix.lower() == ".csv":
        return response_from_csv(text), 0.0
    return symmetrize(parse_s2p(text))


def _cmd_model(args) -> int:
    design = load_design(args.design)
    resp = s_params_model(design.geometry, design.material, design.grid, design.z0_ohm)
    _write_response(resp, args.out)
    f0 = float(resp.grid.points_hz[0])
    print(f"modeled {len(resp.grid)} points, {f0:g} Hz to {float(resp.grid.points_hz[-1]):g} Hz")
    print(
        f"DC proxy (lowest grid point, {f0:g} Hz): "
        f"|S21| = {magnitude_db(resp.s21[0]):.6g} dB, |S11| = {magnitude_db(resp.s11[0]):.6g} dB"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    resp, asym = symmetrize(parse_s2p(_read(args.measured)))
    geom = _geometry_from_args(args)
    report = extract_material(resp, geom, smooth_window=args.smooth_window)
    Path(args.out).write_text(material_to_csv(report.material))
    n = len(resp.grid)
    print(f"asymmetry_max: {asym:.6g}")
    print(f"flagged: {len(report.flags)} of {n} points")
    for reason, count in count_flags(report.flags).items():
        print(f"  {reason}: {count}")
    print(f"material samples: {len(report.material)}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    material = material_from_csv(_read(args.material))
    geom = _geometry_from_args(args)

    if args.compare and args.grid:
        raise ValueError("give either --grid or --compare, not both")
    # without --z0, a compared response is modeled at its own reference impedance
    if args.compare:
        measured, _ = _load_response(args.compare)
        grid, z0 = measured.grid, measured.z0_ohm
    else:
        measured = None
        grid, z0 = _parse_grid_spec(args.grid or _DEFAULT_GRID_SPEC), 50.0

    resp = s_params_model(geom, material, grid, z0_ohm=z0 if args.z0 is None else args.z0)
    lines = [f"predicted {len(grid)} points for length {geom.length_m:g} m", f"wrote {args.out}"]
    max_rel = 0.0
    # compared before the write, so a refused comparison file leaves no --out behind
    if measured is not None:
        meas_mag = np.abs(measured.s21)
        usable = meas_mag > 0.0
        if not np.any(usable):
            raise ValueError("comparison file has no nonzero |S21| points")
        rel = np.abs(np.abs(resp.s21)[usable] - meas_mag[usable]) / meas_mag[usable]
        max_rel = float(np.max(rel))
        lines.append(f"max relative |S21| deviation: {100.0 * max_rel:.4g}%")
        lines.append(f"mean relative |S21| deviation: {100.0 * float(np.mean(rel)):.4g}%")
    _write_response(resp, args.out)
    print("\n".join(lines))
    if max_rel > args.tol:
        print(f"deviation exceeds tolerance ({100.0 * args.tol:.4g}%)", file=sys.stderr)
        return EXIT_PREDICTION
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.target_z is None and args.slope_db_per_ghz is None:
        raise ValueError("give --target-z and/or --slope-db-per-ghz")
    material = material_from_csv(_read(args.material))
    f_ref = args.f_ref if args.f_ref is not None else material.f_min_hz
    if not material.covers(f_ref):
        raise FrequencyRangeError(
            f"--f-ref outside material range [{material.f_min_hz:g}, {material.f_max_hz:g}] Hz"
        )

    # solve every given target before printing, so a refused one leaves no partial report
    lines = []
    if args.target_z is not None:
        ratio = solve_diameter_ratio(args.target_z, material, f_ref)
        check_geom = CoaxGeometry(length_m=0.0, inner_d_m=1.0, outer_d_m=ratio)
        z_check = characteristic_impedance(check_geom, material, f_ref)
        lines.append(f"diameter ratio D/d: {ratio:.10g}")
        lines.append(f"impedance at f_ref {f_ref:g} Hz: {z_check:.10g} Ohm")

    if args.slope_db_per_ghz is not None:
        length = solve_length_for_slope(args.slope_db_per_ghz, material)
        _, a1, _ = alpha_affine_fit(material)
        achieved = NP_TO_DB * a1 * 1e9 * length
        lines.append(f"length_m: {length:.10g}")
        lines.append(f"achieved matched-line slope: {achieved:.10g} dB/GHz")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_check(args) -> int:
    resp, asym = _load_response(args.response)
    targets = ComplianceTargets(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(ComplianceTargets)}
    )
    report = check_compliance(resp, targets)
    print(f"reflection: {'PASS' if report.reflection_pass else 'FAIL'}")
    print(
        f"  worst |S11|: {report.worst_reflection_db:.6g} dB "
        f"at {report.worst_reflection_f_hz:g} Hz (ceiling {targets.reflection_ceiling_db:g} dB)"
    )
    print(f"slope: {'PASS' if report.slope_pass else 'FAIL'}")
    print(
        f"  fitted: {report.fitted_slope_db_per_ghz:.6g} dB/GHz "
        f"(target {targets.slope_target_db_per_ghz:g} "
        f"+/- {100.0 * targets.slope_tolerance_rel:g}%)"
    )
    print(f"  intercept: {report.fitted_intercept_db:.6g} dB")
    print(f"  max linearity residual: {report.max_linearity_residual_db:.6g} dB")
    if asym > 0.0:
        print(f"input asymmetry_max: {asym:.6g}")
    return EXIT_OK if report.passed else EXIT_COMPLIANCE


def _cmd_convert(args) -> int:
    raw = parse_s2p(_read(args.input))
    Path(args.output).write_text(write_s2p(raw, unit=args.unit, fmt=args.to))
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coaxfilt",
        description="Model, invert, predict and check matched low-pass coaxial powder filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="forward-model a design file to a response")
    p.add_argument("design", help="design JSON path")
    p.add_argument("--out", required=True, help="output path (.csv or .s2p)")

    p = sub.add_parser("extract", help="invert a measured .s2p into a material CSV")
    p.add_argument("measured", help="measured two-port .s2p path")
    _add_geometry_flags(p)
    p.add_argument("--smooth-window", type=int, default=1, help="odd moving-median window (1 = off)")
    p.add_argument("--out", required=True, help="material CSV output path")

    p = sub.add_parser("predict", help="predict another length from a material CSV")
    p.add_argument("material", help="material CSV path")
    _add_geometry_flags(p)
    p.add_argument("--grid", help=f"grid spec START_HZ:STOP_HZ:N_POINTS (default {_DEFAULT_GRID_SPEC})")
    p.add_argument("--z0", type=float,
                   help="reference impedance, Ohm (default: the --compare file's, else 50)")
    p.add_argument("--out", required=True, help="output path (.csv or .s2p)")
    p.add_argument("--compare", help="measured .s2p/.csv to compare against (uses its grid)")
    p.add_argument("--tol", type=float, default=0.1, help="max relative |S21| deviation (default 0.1)")

    p = sub.add_parser("synth", help="solve geometry ratio and/or length for targets")
    p.add_argument("material", help="material CSV path")
    p.add_argument("--target-z", type=float, help="target characteristic impedance, Ohm")
    p.add_argument("--slope-db-per-ghz", type=float, help="target |S21| slope magnitude, dB/GHz")
    p.add_argument("--f-ref", type=float, help="reference frequency, Hz (default: lowest sample)")

    p = sub.add_parser("check", help="grade a response against compliance targets")
    p.add_argument("response", help="response path (.s2p or .csv)")
    # one flag per ComplianceTargets field, named after it ("tolerance" shortened to "tol")
    for f in dataclasses.fields(ComplianceTargets):
        flag = "--" + f.name.replace("_", "-").replace("tolerance", "tol")
        p.add_argument(flag, dest=f.name, type=float, default=f.default)

    p = sub.add_parser("convert", help="convert a .s2p between formats and units")
    p.add_argument("input", help="input .s2p path")
    p.add_argument("output", help="output .s2p path")
    p.add_argument("--to", choices=FORMATS, default="ri", help="output format")
    p.add_argument("--unit", choices=list(UNIT_TO_HZ), default="ghz", help="output frequency unit")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so the cached parser holds no handler
    command = globals()[f"_cmd_{args.command}"]
    try:
        return command(args)
    except (
        ParseError, DesignError, FrequencyRangeError, InsufficientDataError, ValueError, OSError
    ) as err:
        return _fail(EXIT_INPUT, str(err))
    except ExtractionError as err:
        code = _fail(EXIT_EXTRACTION, str(err))
        for idx in sorted(err.flags):
            print(f"  point {idx}: {err.flags[idx]}", file=sys.stderr)
        return code
    except (UnsupportedMaterialError, NoSolutionError) as err:
        return _fail(EXIT_SYNTHESIS, str(err))
    except (CoaxfiltError, ArithmeticError) as err:
        return _fail(EXIT_NUMERIC, str(err))


if __name__ == "__main__":
    sys.exit(main())
