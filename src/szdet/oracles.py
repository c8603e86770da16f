"""Independent oracles: reference routes that the tests, `szdet verify` and
the scripts compare the library against.

Each function here computes a quantity the production modules also compute,
by a different route (brute-force enumeration, direct iteration, an explicit
zero list), or keeps a rejected variant of a closed form so that a fit can
tell the two apart.  They live apart from the production path so that each
quantity there has one evaluation path.  This module may import the
production modules; no production module (cli, elliptic, gfuncs, numerics,
orbifold, regdet, zetas) may import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional

from mpmath import mp

from .errors import ConvergenceError, CutError, DomainError
from .gfuncs import ExpansionCoefficients, _beta_table, g1_coefficients
from .numerics import DEFAULT_PREC, _is_real, _real, _rounded, plog, to_scalar
from .orbifold import OrbifoldData, vol_over_2pi
from .zetas import ValueWithTail, _modular_walk


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
# Generic superzeta engine over an explicit zero list (the toy Voros engine)
# ---------------------------------------------------------------------------


@dataclass
class SuperzetaInput:
    """Explicit zeros y_k (with multiplicity), expansion coefficients of the
    Hadamard-normalized log Delta_f, and an evaluator for Delta_f itself."""

    zeros: tuple
    coeffs: ExpansionCoefficients
    evaluator: Callable


def superzeta_direct(
    inp: SuperzetaInput, s, z, cutoff: Optional[int] = None, prec: int = DEFAULT_PREC
) -> ValueWithTail:
    """sum_k (z - y_k)^(-s) over the listed zeros, with an integral tail bound.

    Convergent for Re(s) > 2 (order-two zero counting); the tail estimate
    assumes the zeros keep roughly their trailing mean spacing.
    """
    wp = prec + 16
    with mp.workprec(wp):
        ss = to_scalar(s, wp)
        w = to_scalar(z, wp)
        if _real(ss) <= 2:
            raise ConvergenceError("superzeta direct sum requires Re(s) > 2")
        zeros = inp.zeros[:cutoff] if cutoff is not None else inp.zeros
        total = mp.mpf(0)
        for y in zeros:
            d = w - to_scalar(y, wp)
            if _is_real(d) and _real(d) <= 0:
                raise CutError(f"z - y_k = {d} lies on the cut (-inf, 0]")
            total += mp.exp(-ss * plog(d))
        if zeros:
            sigma = _real(ss)
            r = abs(w - to_scalar(zeros[-1], wp))
            tailk = min(len(zeros) - 1, 5)
            gap = (
                abs(to_scalar(zeros[-1], wp) - to_scalar(zeros[-1 - tailk], wp)) / tailk
                if tailk
                else mp.mpf(1)
            )
            gap = gap if gap > 0 else mp.mpf(1)
            tail = 2 * r ** (1 - sigma) / ((sigma - 1) * gap)
        else:
            tail = mp.mpf(0)
    return ValueWithTail(_rounded(prec, total), _rounded(prec, tail))


def voros_product(inp: SuperzetaInput, z, prec: int = DEFAULT_PREC):
    """D_f(z) = exp(-(b1 z + b0)) Delta_f(z).

    Equals exp(-d/ds SZ_f(s, z)|_{s=0}) whenever log Delta_f satisfies the
    order-two asymptotic template with the supplied coefficients.
    """
    with mp.workprec(prec + 16):
        w = to_scalar(z, prec + 16)
        expo = (
            to_scalar(inp.coeffs.b1, prec + 16) * w
            + to_scalar(inp.coeffs.b0, prec + 16)
        )
        val = mp.exp(-expo) * inp.evaluator(w, prec + 16)
    return _rounded(prec, val)


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
