#!/usr/bin/env python3
"""Census of primitive hyperbolic classes of the modular group.

Enumerates canonical cyclic L/R words up to a norm cutoff, reports per-trace
class counts, cross-checks them (including proper powers) against the
independent quadratic-form conjugacy reduction for small traces, and
optionally writes a geodesic cache file.

Usage:
    python scripts/geodesic_census.py [--cutoff 1e4] [--check-trace 12]
                                      [--save geodesics.tsv]
"""

import argparse
from collections import Counter

from mpmath import mp

from szdet.oracles import matrix_class_counts, necklace_counts_by_trace
from szdet.zetas import modular_geodesics, save_geodesic_table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cutoff", type=float, default=1e4)
    ap.add_argument("--check-trace", type=int, default=12)
    ap.add_argument("--entry-bound", type=int, default=60)
    ap.add_argument("--save", type=str, default=None)
    ap.add_argument("--prec", type=int, default=128)
    args = ap.parse_args()

    classes = modular_geodesics(args.cutoff, prec=args.prec)
    per_trace = Counter(c.trace for c in classes)
    print(f"{len(classes)} primitive classes with norm <= {args.cutoff}")
    print("trace -> primitive classes:",
          dict(sorted(per_trace.items())[:15]), "...")

    words = necklace_counts_by_trace(args.check_trace)
    mats = matrix_class_counts(args.check_trace, args.entry_bound)
    bad = [t for t in range(3, args.check_trace + 1)
           if words.get(t, 0) != mats.get(t, 0)]
    print(f"word vs matrix conjugacy counts (t <= {args.check_trace}):",
          "MATCH" if not bad else f"MISMATCH at traces {bad}")

    if args.save:
        save_geodesic_table(args.save, classes, prec=args.prec)
        print(f"wrote cache file {args.save}")


if __name__ == "__main__":
    main()
