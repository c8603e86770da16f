#!/usr/bin/env python3
"""Resolve the expansion constants of log G1 by a high-point constant fit.

Two published closed-form variants of the constants b0 (sign of the
(d-1)/(2d) log 2pi block) and a0~ (sign of the first elliptic sum, and
whether the beta sum carries 1/d) disagree.  This script measures the
constant term empirically: subtract all non-constant expansion terms from
log G1(s) at s, 2s, 4s and Richardson-extrapolate.  The surviving variant is
the one whose residual decays like O(1/s).

Usage:
    python scripts/b0_constant_fit.py [--prec 288] [--s0 400]
"""

import argparse

from mpmath import mp, mpf

from szdet.gfuncs import g1_coefficients, log_g1
from szdet.numerics import frac_to_mpf
from szdet.oracles import a0_candidates, b0_candidates
from szdet.orbifold import (
    CuspData,
    OrbifoldData,
    RepresentationData,
    Signature,
    modular_orbifold,
)


def constant_fit(orb, prec, s0, a0t):
    """Richardson-extrapolated constant term, using the given a0~."""
    c = g1_coefficients(orb, prec)
    with mp.workprec(prec + 32):
        def resid(s):
            z = mpf(s)
            lg = mp.log(z)
            nonconst = (frac_to_mpf(c.a2t) * z * z * (lg - mpf(3) / 2)
                        + frac_to_mpf(c.a1t) * z * (lg - 1) + c.b1 * z
                        + frac_to_mpf(a0t) * lg)
            return log_g1(orb, z, prec + 32) - nonconst

        f = [resid(s0), resid(2 * s0), resid(4 * s0)]
        r1 = [2 * f[i + 1] - f[i] for i in range(2)]
        return (4 * r1[1] - r1[0]) / 3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prec", type=int, default=288)
    ap.add_argument("--s0", type=int, default=400)
    args = ap.parse_args()

    sig = Signature(0, 2, (3, 5))
    rep = RepresentationData(
        2, elliptic_exponents=((1, 2), (2, 4)),
        cusp_data=(CuspData(1, (0.25,)), CuspData(0, (0.3, 0.65))))
    cases = [("modular, trivial character", modular_orbifold()),
             ("(0;2;3,5), nontrivial character", OrbifoldData(sig, rep))]

    for name, orb in cases:
        a0_ok, a0_bad = a0_candidates(orb)
        b0_ok, b0_bad = b0_candidates(orb, args.prec)
        fit = constant_fit(orb, args.prec, args.s0, a0_ok)
        with mp.workprec(args.prec):
            print(f"== {name}")
            print(f"   a0~ adopted {a0_ok}   rejected {a0_bad}")
            print(f"   fit - b0(adopted)  = {mp.nstr(abs(fit - b0_ok), 6)}")
            print(f"   fit - b0(rejected) = {mp.nstr(abs(fit - b0_bad), 6)}")
            bad_fit = constant_fit(orb, args.prec, args.s0, a0_bad)
            print(f"   with rejected a0~, fit drifts by "
                  f"{mp.nstr(abs(bad_fit - b0_ok), 6)} (log s leakage)")


if __name__ == "__main__":
    main()
