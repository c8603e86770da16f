"""Independent oracles: reference routes that the tests, `szdet verify` and
the scripts compare the library against.

Each function here computes a quantity the production modules also compute,
by a different route (brute-force enumeration, direct iteration), or keeps a rejected variant of a closed form so that a fit can
tell the two apart.  They live apart from the production path so that each
quantity there has one evaluation path.  This module may import the
production modules; no production module (cli, elliptic, gfuncs, numerics,
orbifold, regdet, zetas) may import it.  Oracles that only the tests run
live in the tests (tests/g1_oracles.py, tests/superzeta_oracles.py).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from mpmath import mp

from .errors import DomainError
from .gfuncs import _beta_table, g1_coefficients
from .numerics import DEFAULT_PREC, _rounded
from .orbifold import OrbifoldData, vol_over_2pi
from .zetas import _modular_walk


# ---------------------------------------------------------------------------
# Conjugacy-class counts: quadratic forms against words
# ---------------------------------------------------------------------------


def _form_reduce_step(form, sq):
    a, b, c = form
    ac = abs(c)
    if ac <= sq:
        bp = sq - ((sq + b) % (2 * ac))
    else:
        r = (-b) % (2 * ac)
        bp = r if r <= ac else r - 2 * ac
    cp = (bp * bp - (b * b - 4 * a * c)) // (4 * c)
    return (c, bp, cp)


def _form_is_reduced(form, sq) -> bool:
    a, b, _ = form
    if b < 1 or b > sq:
        return False
    return sq - b + 1 <= 2 * abs(a) <= sq + b


def _form_cycle_key(form, disc):
    sq = isqrt(disc)
    f = form
    for _ in range(10001):
        if _form_is_reduced(f, sq):
            break
        f = _form_reduce_step(f, sq)
    else:
        raise RuntimeError("form reduction failed to terminate")
    cycle = [f]
    g = _form_reduce_step(f, sq)
    while g != f:
        cycle.append(g)
        g = _form_reduce_step(g, sq)
    return min(cycle)


def matrix_class_counts(tmax: int, entry_bound: int = 60) -> dict[int, int]:
    """Conjugacy classes of trace-t hyperbolic matrices, 3 <= t <= tmax.

    Brute force: enumerate integer matrices with entries bounded by
    ``entry_bound``, map each to its fixed-point binary quadratic form
    (c, d-a, -b) of discriminant t^2 - 4, and Gauss-reduce; classes
    correspond to reduction cycles.  Counts all classes, including proper
    powers (the word-side comparison must include imprimitive necklaces).
    """
    reps: dict[int, set] = {t: set() for t in range(3, tmax + 1)}
    for t in range(3, tmax + 1):
        disc = t * t - 4
        for a in range(-entry_bound, entry_bound + 1):
            d = t - a
            if abs(d) > entry_bound:
                continue
            prod = a * d - 1  # = b c
            if prod == 0:
                continue  # bc = 0 requires ad = 1, trace +-2: not hyperbolic
            for b in _divisors_signed(prod, entry_bound):
                c = prod // b  # nonzero, as prod is
                if abs(c) > entry_bound:
                    continue
                key = _form_cycle_key((c, d - a, -b), disc)
                reps[t].add(key)
    return {t: len(v) for t, v in reps.items()}


def _divisors_signed(n: int, bound: int):
    """The divisors b of n with 1 <= |b| <= bound, both signs."""
    m = abs(n)
    return [s * b for b in range(1, min(m, bound) + 1) if m % b == 0 for s in (1, -1)]


def necklace_counts_by_trace(tmax: int) -> dict[int, int]:
    """Cyclic L/R words (including proper powers) per trace, word side.

    Each primitive class P of trace t counts once at every
    tr(P^k) <= tmax, with tr(P^(k+1)) = t tr(P^k) - tr(P^(k-1)).
    """
    counts: dict[int, int] = {}
    for t, _ in _modular_walk(tmax):
        prev, tr = 2, t
        while tr <= tmax:
            counts[tr] = counts.get(tr, 0) + 1
            prev, tr = tr, t * tr - prev
    return counts


# ---------------------------------------------------------------------------
# Rejected closed-form variants of the log G1 constants
# ---------------------------------------------------------------------------


def b0_candidates(orb: OrbifoldData, prec: int = DEFAULT_PREC):
    """(adopted, rejected) values of b0.

    The two closed forms differ in the sign of the h(d_R - 1)/(2 d_R) log 2pi
    term; the adopted one carries +.  They coincide when the orbifold has no
    elliptic classes.
    """
    adopted = g1_coefficients(orb, prec).b0
    h = orb.dim
    with mp.workprec(prec + 16):
        log2pi = mp.log(2 * mp.pi)
        delta = mp.fsum(
            h * (d - 1) * log2pi / d for d in orb.signature.elliptic_orders
        )
        rejected = _rounded(prec, adopted - delta)
    return adopted, rejected


def a0_candidates(orb: OrbifoldData) -> tuple[Fraction, Fraction]:
    """(adopted, rejected) values of a0~, as exact rationals.

    The rejected variant flips the sign of the h (d_R-1)/(2 d_R) part and
    divides the beta sum by d_R; both variants agree when there are no
    elliptic classes.
    """
    coeffs = g1_coefficients(orb)
    h = orb.dim
    hv = h * vol_over_2pi(orb.signature)
    betas = _beta_table(orb)
    rejected = (
        hv / 3
        + sum(
            h * Fraction(d - 1, d) * (Fraction(1, 2) - Fraction(d - 2, 6))
            for d, _ in betas
        )
        - sum(
            sum(
                Fraction(b, d) * (Fraction(m, d) - Fraction(1, 2))
                for m, b in enumerate(bs)
            )
            for d, bs in betas
        )
    )
    return coeffs.a0t, rejected


# ---------------------------------------------------------------------------
# Elliptic counting lemmas by direct iteration
# ---------------------------------------------------------------------------


def count_multiples(n: int, q: int, d: int) -> int:
    """|{t : t*d in {-n+q, ..., n+q}}| by direct iteration (the oracle)."""
    if d < 2 or not 0 <= q <= d - 1 or n < 0:
        raise DomainError("need d >= 2, 0 <= q < d, n >= 0")
    count = 0
    t = -(n // d) - 1
    while t * d <= n + q:
        if -n + q <= t * d:
            count += 1
        t += 1
    return count


def case_table_shift(m: int, q: int, d: int) -> int:
    """The three-case value of k(R,m,j); the law beta_coeff obeys for m < d."""
    if m < q and m + q < d:
        return 1
    if m >= q and m + q >= d:
        return -1
    return 0
