#!/usr/bin/env python3
"""Divergence phase diagram for fBm against the Cantor-type coefficient.

Sweeps (hurst, s) over a grid: for each hurst and seed, one classify_sweep
call classifies the path at every s, and each cell records the fraction of
diverging verdicts.  The column predicted_diverging is the side of the
sufficient condition s < 1/hurst - 1 (n = 2).  The measured boundary does
not track that curve: it stays near s = 0.7 for every hurst, because the
statistic diverges once s exceeds the dimension of the coefficient's
gradient measure (log 2/log 3 = 0.63), as acceptance criterion 6 records.
Writes phase_diagram.csv: hurst, s, n_seeds, frac_diverging,
predicted_diverging.
"""

import argparse
import csv

import numpy as np

from varpath.bv_library import cantor_coefficient
from varpath.grid_paths import TimeGrid, make_fbm
from varpath.variability import VariabilityParams, classify_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=2 ** 11)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="phase_diagram.csv")
    ap.add_argument("--hurst", default="0.5,0.6,0.7,0.8,0.9")
    ap.add_argument("--s", default="0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    args = ap.parse_args()

    hursts = [float(x) for x in args.hurst.split(",")]
    svals = [float(x) for x in args.s.split(",")]
    phi = cantor_coefficient(2)
    grid = TimeGrid(1.0, args.N)
    params = VariabilityParams(s=svals[0], p=1.0)  # classify_sweep sets s

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hurst", "s", "n_seeds", "frac_diverging", "predicted_diverging"])
        for H in hursts:
            n_div = np.zeros(len(svals), dtype=int)
            for seed in range(args.seeds):
                path = make_fbm(H, 2, grid, seed=seed)
                reports = classify_sweep(path, phi, svals, params)
                n_div += [r.verdict == "diverging" for r in reports]
            for s, n in zip(svals, n_div):
                # finiteness holds when n-1+s < 1/H, i.e. s < 1/H - 1
                predicted = int(not (s < 1.0 / H - 1.0))
                w.writerow([H, s, args.seeds, n / args.seeds, predicted])
                print(f"H={H:.2f} s={s:.2f}  diverging {n}/{args.seeds}  "
                      f"predicted {'diverging' if predicted else 'finite'}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
