"""The benchmark's workloads and the independent reference that checks them.

Every workload draws a pool of inputs from its seed, runs one op per
call of `run_op`, and turns an op's outputs into bytes (`collect`) and a
deviation from the reference (`verify`). The reference is a vectorised
chain-matrix (ABCD) model of the line written here from the formulas,
so no program change can move it; the inputs are made with it as well,
and the program receives only the generated inputs.

All workloads use a 2001-point linear grid from 10 MHz to 20 GHz.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from coaxfilt import cli, extraction, synthesis, touchstone, txline

N_POINTS = 2001
F_START_HZ = 1e7
F_STOP_HZ = 2e10
Z0_OHM = 50.0
INNER_D_M = 0.0051

C0 = 299792458.0
MU0 = 1.25663706127e-6
EPS0 = 8.8541878188e-12
ETA0 = math.sqrt(MU0 / EPS0)
NP_TO_DB = 20.0 / math.log(10.0)

MATERIAL_HEADER = "f_hz,eps_rel,mu_rel,alpha_np_per_m"
RESPONSE_HEADER = "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"


class OutputError(Exception):
    """An op exited nonzero or wrote output that cannot be read back."""


def grid_hz() -> np.ndarray:
    return np.linspace(F_START_HZ, F_STOP_HZ, N_POINTS)


def reference_s(f, eps, mu, alpha, length_m, ratio):
    """(S11, S21) of the line from its chain matrix, referenced to 50 Ohm.

    A = D = cosh(gamma*l), B = Z*sinh(gamma*l), C = sinh(gamma*l)/Z.
    """
    gamma = alpha + 1j * 2.0 * np.pi * f * np.sqrt(eps * mu) / C0
    z = ETA0 / (2.0 * np.pi) * np.sqrt(mu / eps) * math.log(ratio)
    ch = np.cosh(gamma * length_m)
    sh = np.sinh(gamma * length_m)
    a, b, c = ch, z * sh, sh / z
    den = a + b / Z0_OHM + c * Z0_OHM + a
    return (b / Z0_OHM - c * Z0_OHM) / den, 2.0 / den


def diameter_ratio(z_ohm: float, eps: float, mu: float) -> float:
    """D/d that gives the line the impedance z_ohm."""
    return math.exp(2.0 * math.pi * z_ohm / (ETA0 * math.sqrt(mu / eps)))


def max_rel(actual, expected) -> float:
    return float(np.max(np.abs(np.asarray(actual) - expected) / np.abs(expected)))


def _read_table(text: str, header: str, columns: int) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise OutputError(f"expected header {header!r}")
    try:
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as err:
        raise OutputError(f"unreadable table: {err}") from err
    if table.shape[1] != columns or not np.all(np.isfinite(table)):
        raise OutputError("table has the wrong shape or non-finite values")
    return table


class ExtractCli:
    """`coaxfilt extract --smooth-window 21` in-process on noisy 42 mm files.

    Inputs: the matched 42 mm reference filter (eps 4.2, mu 1, 1 dB/GHz),
    with sigma=0.01 complex noise on all four S-parameters, written as
    Touchstone RI files. Check: the extracted table predicts |S21| of the
    36 mm filter; result_err is the p95 over the pool of each table's max
    relative error (acceptance criterion 5 bounds it by 0.05).
    """

    name = "extract-cli"
    tolerance = 0.05

    def __init__(self, seed: int, workdir: Path, pool_size: int = 16):
        rng = np.random.default_rng(seed)
        self.f = grid_hz()
        a1 = 1.0 / (NP_TO_DB * 1e9 * 0.042)
        self.eps, self.mu, self.a1 = 4.2, 1.0, a1
        self.ratio = diameter_ratio(Z0_OHM, self.eps, self.mu)
        s11, s21 = reference_s(self.f, self.eps, self.mu, a1 * self.f, 0.042, self.ratio)
        self.truth36 = np.abs(
            reference_s(self.f, self.eps, self.mu, a1 * self.f, 0.036, self.ratio)[1]
        )
        self.argv = []
        for k in range(pool_size):
            noisy = [
                s + 0.01 * (rng.standard_normal(N_POINTS) + 1j * rng.standard_normal(N_POINTS))
                / math.sqrt(2.0)
                for s in (s11, s21, s21, s11)
            ]
            path = workdir / f"meas-{k:03d}.s2p"
            _write_touchstone(path, self.f, noisy)
            self.argv.append(
                ["extract", str(path), "--length", "0.042", "--inner-d", repr(INNER_D_M),
                 "--outer-d", repr(INNER_D_M * self.ratio), "--smooth-window", "21"]
            )
        self.pool_size = pool_size

    def run_op(self, k: int, stem: Path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli.main([*self.argv[k], "--out", f"{stem}.csv"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def collect(self, k: int, stem: Path, ret):
        code, text = ret
        if code != 0:
            raise OutputError(f"exit {code}: {text.strip()}")
        data = Path(f"{stem}.csv").read_bytes()
        table = _read_table(data.decode(), MATERIAL_HEADER, 4)
        if f"material samples: {table.shape[0]}\n" not in text:
            raise OutputError("stdout sample count does not match the table")
        f, eps, mu, alpha = table.T
        if (
            table.shape[0] < N_POINTS / 2
            or np.any(np.diff(f) <= 0.0)
            or np.any(eps < 1.0) or np.any(mu <= 0.0) or np.any(alpha < 0.0)
        ):
            raise OutputError("material table is not a valid material")
        # the report names the output path, which is fresh for every op
        report = text.replace(f"{stem}.csv", "OUT.csv")
        return report.encode() + data, table, len(data)

    def verify(self, k: int, table) -> float:
        f, eps, mu, alpha = table.T
        inside = (self.f >= f[0]) & (self.f <= f[-1])
        fp = self.f[inside]
        pred = reference_s(
            fp, np.interp(fp, f, eps), np.interp(fp, f, mu), np.interp(fp, f, alpha),
            0.036, self.ratio,
        )[1]
        return max_rel(np.abs(pred), self.truth36[inside])

    @staticmethod
    def aggregate(errs) -> float:
        return float(np.percentile(errs, 95))

    @staticmethod
    def cleanup(stem: Path) -> None:
        Path(f"{stem}.csv").unlink(missing_ok=True)


class RoundtripNoiseless:
    """`extract_material` (no smoothing), then `s_params_model` at 36 mm.

    Inputs: noiseless 42 mm responses of dispersive materials drawn as in
    acceptance criterion 4 (eps 2-8, mu 0.8-2, alpha 1-80 Np/m; D/d =
    8/5.1). Check: eps, mu, alpha and the predicted |S21| within 1e-6
    relative of the truth.
    """

    name = "roundtrip-noiseless"
    tolerance = 1e-6

    def __init__(self, seed: int, workdir: Path, pool_size: int = 16):
        rng = np.random.default_rng(seed)
        f = grid_hz()
        lerp = (f - f[0]) / (f[-1] - f[0])
        self.f = f
        self.grid = txline.FrequencyGrid(f)
        ratio = 0.008 / INNER_D_M
        self.g42 = txline.CoaxGeometry(0.042, INNER_D_M, 0.008)
        self.g36 = txline.CoaxGeometry(0.036, INNER_D_M, 0.008)
        self.truth, self.measured = [], []
        for _ in range(pool_size):
            eps = rng.uniform(2.0, 8.0) + (rng.uniform(2.0, 8.0) - rng.uniform(2.0, 8.0)) * lerp
            eps = np.clip(eps, 2.0, 8.0)
            mu = np.clip(rng.uniform(0.8, 2.0) + rng.uniform(-0.2, 0.2) * lerp, 0.8, 2.0)
            alpha = rng.uniform(1.0, 5.0) + (80.0 - 5.0) * lerp * rng.uniform(0.5, 1.0)
            s11, s21 = reference_s(f, eps, mu, alpha, 0.042, ratio)
            s21_36 = reference_s(f, eps, mu, alpha, 0.036, ratio)[1]
            self.truth.append((eps, mu, alpha, np.abs(s21_36)))
            self.measured.append(txline.TwoPortResponse(self.grid, s11, s21, Z0_OHM))
        self.pool_size = pool_size

    def run_op(self, k: int, stem: Path):
        report = extraction.extract_material(self.measured[k], self.g42)
        pred = txline.s_params_model(self.g36, report.material, self.grid, Z0_OHM)
        return report, pred

    def collect(self, k: int, stem: Path, ret):
        report, pred = ret
        if report.flags:
            raise OutputError(f"{len(report.flags)} points flagged on noiseless data")
        eps, mu, alpha = report.material.eval(self.f)
        cols = np.stack([eps, mu, alpha, pred.s11.real, pred.s11.imag,
                         pred.s21.real, pred.s21.imag])
        return cols.tobytes(), (eps, mu, alpha, np.abs(pred.s21)), 0

    def verify(self, k: int, result) -> float:
        return max(max_rel(a, b) for a, b in zip(result, self.truth[k]))

    @staticmethod
    def aggregate(errs) -> float:
        return float(np.max(errs))

    @staticmethod
    def cleanup(stem: Path) -> None:
        pass


class DesignSweep:
    """Synthesis and the write path: solve D/d and length, model, check, export.

    Inputs: designs with eps 2-8, mu 1, alpha = a1*f with a1 1-4 nNp/m/Hz,
    a slope target of 0.5-2 dB/GHz and a line impedance of 47-49 Ohm (so
    that S11 is never exactly zero: formatting a zero is cheaper, and the
    share of such designs would otherwise vary with the seed). Each op
    writes a response CSV and a Touchstone file. Check: the design passes
    its targets, and D/d, the length, the fitted slope and both files
    parsed back agree with the reference within 1e-9 relative.
    """

    name = "design-sweep"
    tolerance = 1e-9

    def __init__(self, seed: int, workdir: Path, pool_size: int = 16):
        rng = np.random.default_rng(seed)
        self.f = grid_hz()
        self.grid = txline.FrequencyGrid(self.f)
        self.designs, self.materials, self.targets = [], [], []
        for _ in range(pool_size):
            eps = rng.uniform(2.0, 8.0)
            a1 = rng.uniform(1.0, 4.0) * 1e-9
            slope = rng.uniform(0.5, 2.0)
            z_line = rng.uniform(47.0, 49.0)
            self.designs.append((eps, a1, slope, z_line))
            self.materials.append(
                txline.MaterialModel.from_arrays(
                    [F_START_HZ, F_STOP_HZ], [eps, eps], [1.0, 1.0],
                    [a1 * F_START_HZ, a1 * F_STOP_HZ],
                )
            )
            self.targets.append(synthesis.ComplianceTargets(slope_target_db_per_ghz=slope))
        self.pool_size = pool_size

    def run_op(self, k: int, stem: Path):
        mat, targets = self.materials[k], self.targets[k]
        ratio = synthesis.solve_diameter_ratio(self.designs[k][3], mat, 1e9)
        length = synthesis.solve_length_for_slope(targets.slope_target_db_per_ghz, mat)
        geom = txline.CoaxGeometry(length, INNER_D_M, INNER_D_M * ratio)
        resp = txline.s_params_model(geom, mat, self.grid, Z0_OHM)
        report = synthesis.check_compliance(resp, targets)
        Path(f"{stem}.csv").write_text(touchstone.export_csv(resp))
        Path(f"{stem}.s2p").write_text(touchstone.write_s2p(touchstone.raw_from_response(resp)))
        return ratio, length, report

    def collect(self, k: int, stem: Path, ret):
        ratio, length, report = ret
        csv = Path(f"{stem}.csv").read_bytes()
        s2p = Path(f"{stem}.s2p").read_bytes()
        table = _read_table(csv.decode(), RESPONSE_HEADER, 7)
        lines = s2p.decode().splitlines()
        if "# GHZ S RI R 50" not in lines:
            raise OutputError("Touchstone option line is not '# GHZ S RI R 50'")
        try:
            rows = np.loadtxt([ln for ln in lines if ln[:1] not in ("!", "#")], ndmin=2)
        except ValueError as err:
            raise OutputError(f"unreadable Touchstone data: {err}") from err
        if table.shape[0] != N_POINTS or rows.shape != (N_POINTS, 9):
            raise OutputError("exported files do not hold one row per grid point")
        if not report.passed:
            raise OutputError("synthesized design fails its own compliance targets")
        fields = (ratio, length, report.fitted_slope_db_per_ghz)
        blob = csv + s2p + repr(fields).encode()
        return blob, (fields, table, rows), len(csv) + len(s2p)

    def verify(self, k: int, result) -> float:
        (ratio, length, slope), table, rows = result
        eps, a1, target, z_line = self.designs[k]
        ratio_ref = diameter_ratio(z_line, eps, 1.0)
        length_ref = target / (NP_TO_DB * a1 * 1e9)
        s11, s21 = reference_s(self.f, eps, 1.0, a1 * self.f, length_ref, ratio_ref)
        scale = np.abs(s21)
        s2p = rows[:, 1::2] + 1j * rows[:, 2::2]  # S11 S21 S12 S22
        pairs = [
            (table[:, 1] + 1j * table[:, 2], s11),
            (table[:, 3] + 1j * table[:, 4], s21),
            (s2p[:, 0], s11), (s2p[:, 1], s21), (s2p[:, 2], s21), (s2p[:, 3], s11),
        ]
        errs = [
            max_rel(ratio, ratio_ref),
            max_rel(length, length_ref),
            max_rel(slope, np.polyfit(self.f / 1e9, -20.0 * np.log10(scale), 1)[0]),
            max_rel(table[:, 0], self.f),
            max_rel(rows[:, 0] * 1e9, self.f),
            float(np.max(np.abs(table[:, 6] - 20.0 * np.log10(scale)))),
        ]
        # S-parameter deviations relative to |S21|, since S11 can pass near zero
        errs += [float(np.max(np.abs(got - want) / scale)) for got, want in pairs]
        return max(errs)

    @staticmethod
    def aggregate(errs) -> float:
        return float(np.max(errs))

    @staticmethod
    def cleanup(stem: Path) -> None:
        for suffix in (".csv", ".s2p"):
            Path(f"{stem}{suffix}").unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (ExtractCli, RoundtripNoiseless, DesignSweep)}


def _write_touchstone(path: Path, f, s) -> None:
    """Touchstone v1, GHz / RI / 50 Ohm, 12 significant digits."""
    cols = [f / 1e9]
    for v in s:
        cols += [v.real, v.imag]
    body = io.StringIO()
    np.savetxt(body, np.column_stack(cols), fmt="%.12g")
    path.write_text("! benchmark input\n# GHZ S RI R 50\n" + body.getvalue())
