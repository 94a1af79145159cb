#!/usr/bin/env python3
"""Length-transfer experiment.

Forward-model a calibration filter, invert its (optionally noisy)
response into a material table, predict a filter of another length from
that table, and compare the prediction against the directly modeled
truth. This is the core workflow the toolkit exists for: measure one
length, predict any other.

    python scripts/run_length_transfer.py
    python scripts/run_length_transfer.py --noise 0.01 --smooth-window 21
"""

import argparse

import numpy as np

import coaxfilt as cf
from reference_filter import matched_geometry, noisy_measurement, reference_material


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cal-length", type=float, default=0.042, help="calibration length, m")
    ap.add_argument("--new-length", type=float, default=0.036, help="predicted length, m")
    ap.add_argument("--slope", type=float, default=1.0, help="design slope, dB/GHz")
    ap.add_argument("--noise", type=float, default=0.0, help="complex noise std per S-parameter")
    ap.add_argument("--smooth-window", type=int, default=1, help="odd median window (1 = off)")
    ap.add_argument("--n-points", type=int, default=2001)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    mat = reference_material(args.slope, args.cal_length)
    g_cal = matched_geometry(args.cal_length, mat)
    g_new = matched_geometry(args.new_length, mat)
    f = np.linspace(1e7, 2e10, args.n_points)
    grid = cf.FrequencyGrid(f)

    measured = cf.s_params_model(g_cal, mat, grid, 50.0)
    if args.noise > 0.0:
        raw = noisy_measurement(measured, args.noise, np.random.default_rng(args.seed))
        measured, asym = cf.symmetrize(raw)
        print(f"noise sigma = {args.noise:g}, asymmetry_max = {asym:.4g}")

    report = cf.extract_material(measured, g_cal, smooth_window=args.smooth_window)
    m = report.material
    print(f"extraction: {len(m)} samples, {len(report.flags)} flagged")

    mask = (f >= m.f_min_hz) & (f <= m.f_max_hz)
    sub = cf.FrequencyGrid(f[mask])
    pred = cf.s_params_model(g_new, m, sub, 50.0)
    truth = cf.s_params_model(g_new, mat, sub, 50.0)
    rel = np.abs(np.abs(pred.s21) - np.abs(truth.s21)) / np.abs(truth.s21)

    print(f"\nprediction {args.cal_length * 1e3:g} mm -> {args.new_length * 1e3:g} mm")
    print(f"  max  relative |S21| error: {100.0 * np.max(rel):.4g}%")
    print(f"  mean relative |S21| error: {100.0 * np.mean(rel):.4g}%")

    print("\n   f (GHz)   |S21| pred (dB)   |S21| true (dB)   |S11| pred (dB)")
    for f_hz in (1e9, 5e9, 1e10, 1.5e10, 2e10):
        i = int(np.argmin(np.abs(sub.points_hz - f_hz)))
        print(
            f"  {sub.points_hz[i] / 1e9:8.3f}   {cf.magnitude_db(pred.s21[i]):15.3f}"
            f"   {cf.magnitude_db(truth.s21[i]):15.3f}"
            f"   {cf.magnitude_db(pred.s11[i]):15.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
