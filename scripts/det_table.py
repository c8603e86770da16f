#!/usr/bin/env python3
"""Tabulate det^2(Delta - z(1-z)I) and its constituents on a real segment.

Prints CSV: z, det^2, D+, D-, phi, two-path residual.  The two evaluation
routes (explicit formula vs product of regularized products) must agree to
working precision at every point.

Usage:
    python scripts/det_table.py [--prec 192] [--cutoff 2000]
                                 [--zmin 2] [--zmax 5] [--steps 13]
"""

import argparse

from mpmath import mp, mpf

from szdet.orbifold import modular_orbifold
from szdet.regdet import SurfaceContext, d_minus, d_plus, det_squared
from szdet.zetas import ModularGeodesicSource, ModularScattering


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prec", type=int, default=192)
    ap.add_argument("--cutoff", type=float, default=2000.0)
    ap.add_argument("--zmin", type=float, default=2.0)
    ap.add_argument("--zmax", type=float, default=5.0)
    ap.add_argument("--steps", type=int, default=13)
    args = ap.parse_args()

    ctx = SurfaceContext(
        modular_orbifold(), ModularGeodesicSource(), ModularScattering(),
        prec=args.prec, cutoff_norm=args.cutoff,
    )
    print("z,det_squared,d_plus,d_minus,phi,two_path_residual")
    with mp.workprec(args.prec + 8):
        for i in range(args.steps):
            z = mpf(args.zmin) + (mpf(args.zmax) - mpf(args.zmin)) * i / (args.steps - 1)
            ds = det_squared(ctx, z)
            dp, dm = d_plus(ctx, z), d_minus(ctx, z)
            phi = ctx.point(z).phi
            resid = abs(ds - dp * dm) / abs(ds)
            print(",".join([
                mp.nstr(z, 6), mp.nstr(ds, 20), mp.nstr(dp, 20),
                mp.nstr(dm, 20), mp.nstr(phi, 20), mp.nstr(resid, 4),
            ]))


if __name__ == "__main__":
    main()
