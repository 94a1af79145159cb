#!/usr/bin/env python3
"""Monte Carlo sweep of prediction error versus measurement noise.

For each noise level and smoothing window, runs repeated extract/predict
trials on a matched calibration filter and reports percentiles of the
max relative |S21| prediction error at the second length.

    python scripts/noise_robustness.py --trials 50
"""

import argparse
import math

import numpy as np

import coaxfilt as cf


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--n-points", type=int, default=2001)
    ap.add_argument("--noise-levels", type=float, nargs="+", default=[0.003, 0.01, 0.03])
    ap.add_argument("--windows", type=int, nargs="+", default=[1, 11, 21, 51])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    a1 = 1.0 / (cf.NP_TO_DB * 1e9 * 0.042)
    mat = cf.MaterialModel.from_arrays(
        [1e7, 2e10], [4.2, 4.2], [1.0, 1.0], [a1 * 1e7, a1 * 2e10]
    )
    ratio = cf.solve_diameter_ratio(50.0, mat, 1e9)
    g42 = cf.CoaxGeometry(0.042, 0.0051, 0.0051 * ratio)
    g36 = cf.CoaxGeometry(0.036, 0.0051, 0.0051 * ratio)
    f = np.linspace(1e7, 2e10, args.n_points)
    grid = cf.FrequencyGrid(f)
    resp42 = cf.s_params_model(g42, mat, grid, 50.0)
    truth36 = cf.s_params_model(g36, mat, grid, 50.0)

    print(f"{args.trials} trials per cell; max relative |S21| error at 36 mm")
    print(f"{'sigma':>8} {'window':>7} {'p50':>9} {'p95':>9} {'worst':>9} {'fail>5%':>8}")
    for sigma in args.noise_levels:
        for window in args.windows:
            rng = np.random.default_rng(args.seed)
            errs = []
            for _ in range(args.trials):
                def noise():
                    return sigma * (
                        rng.standard_normal(args.n_points)
                        + 1j * rng.standard_normal(args.n_points)
                    ) / math.sqrt(2.0)

                raw = cf.RawTwoPort(
                    grid=grid,
                    s11=resp42.s11 + noise(),
                    s21=resp42.s21 + noise(),
                    s12=resp42.s21 + noise(),
                    s22=resp42.s11 + noise(),
                    z0_ohm=50.0,
                )
                sym, asym = cf.symmetrize(raw)
                try:
                    report = cf.extract_material(
                        sym, g42, smooth_window=window, asymmetry_max=asym
                    )
                except cf.ExtractionError:
                    errs.append(float("inf"))
                    continue
                m = report.material
                mask = (f >= m.f_min_hz) & (f <= m.f_max_hz)
                sub = cf.FrequencyGrid(f[mask])
                pred = cf.s_params_model(g36, m, sub, 50.0)
                rel = np.abs(np.abs(pred.s21) - np.abs(truth36.s21[mask])) / np.abs(
                    truth36.s21[mask]
                )
                errs.append(float(np.max(rel)))
            errs = np.array(errs)
            print(
                f"{sigma:8g} {window:7d} {np.percentile(errs, 50):9.4f} "
                f"{np.percentile(errs, 95):9.4f} {np.max(errs):9.4f} "
                f"{np.mean(errs > 0.05):8.2f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
