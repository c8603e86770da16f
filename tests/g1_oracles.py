"""Independent G1 oracles: the asymptotic expansion, divisor orders by exact
bookkeeping, and the appendix variants G_{q,d}, G_E and the alternate gamma
factor G~1.  Tests compare szdet.gfuncs.log_g1 and the floor-formula m_n
against them; the library does not evaluate them.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from superzeta_oracles import plog
from szdet.gfuncs import g1_coefficients
from szdet.numerics import (
    DEFAULT_PREC,
    _rounded,
    frac_to_mpf,
    log_barnes_g,
    log_gamma,
)
from szdet.orbifold import OrbifoldData, vol_over_2pi


def log_g1_asymptotic(orb: OrbifoldData, s, prec: int = DEFAULT_PREC, coeffs=None):
    """The expansion of log G1 truncated at the constant term."""
    if coeffs is None:
        coeffs = g1_coefficients(orb, prec)
    with mp.workprec(prec + 16):
        z = mp.mpmathify(s)
        lg = plog(z)
        val = (
            frac_to_mpf(coeffs.a2t) * z * z * (lg - mp.mpf(3) / 2)
            + frac_to_mpf(coeffs.a1t) * z * (lg - 1)
            + coeffs.b1 * z
            + frac_to_mpf(coeffs.a0t) * lg
            + coeffs.b0
        )
    return _rounded(prec, val)


def order_at(orb: OrbifoldData, n: int) -> int:
    """Exact order of G1 at s = -n from the divisors of Gamma and Barnes G.

    Independent of the floor-formula multiplicity m_n, with which it must
    agree: the vol block contributes (h vol/2pi)(2n+1), each Gamma(s) power
    contributes -h(1-1/d_R), and the unique m with m = n (mod d_R) in each
    fractional-argument product contributes +alpha(R, m)/d_R, with alpha
    taken from its residue definition sum_j ((m + q_j) mod d + (m - q_j) mod d)
    rather than from szdet.elliptic, whose alpha comes from g_count as m_n does.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    hv = orb.dim * vol_over_2pi(orb.signature)
    total = hv * (2 * n + 1)
    for d, qs in orb.elliptic_classes():
        total -= orb.dim * Fraction(d - 1, d)
        m = n % d
        total += Fraction(sum((m + q) % d + (m - q) % d for q in qs), d)
    assert total.denominator == 1, "divisor order must be an integer"
    return int(total)


# ---------------------------------------------------------------------------
# Appendix variants: G_{q,d}, G_E, and the alternate gamma factor
# ---------------------------------------------------------------------------


def log_g_qd(s, q: int, d: int, prec: int = DEFAULT_PREC):
    """log of G_{q,d}(s) = prod_m G((s-q+m)/d + 1) G((s-(d-q)+m)/d + 1)."""
    with mp.workprec(prec + 16):
        z = mp.mpmathify(s)
        val = mp.mpf(0)
        for m in range(d):
            for shift in (q, d - q):
                val += log_barnes_g((z - shift + m) / d + 1, prec + 16)
    return _rounded(prec, val)


def order_g_qd_at(n: int, q: int, d: int) -> int:
    """Order of G_{q,d} at s = -n by exact divisor bookkeeping."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    order = 0
    for m in range(d):
        for shift in (q, d - q):
            t = -n - shift + m
            if t % d == 0 and t // d <= -1:
                order += -(t // d)
    return order


def log_g_e(s, orb: OrbifoldData, prec: int = DEFAULT_PREC):
    """log of G_E(s) = prod_R prod_j G_{q(R)_j, d_R}(s)."""
    with mp.workprec(prec + 16):
        z = mp.mpmathify(s)
        val = mp.fsum(
            log_g_qd(z, q, d, prec + 16)
            for d, qs in orb.elliptic_classes()
            for q in qs
        )
    return _rounded(prec, val)


def order_g_e_at(n: int, orb: OrbifoldData) -> int:
    return sum(
        order_g_qd_at(n, q, d) for d, qs in orb.elliptic_classes() for q in qs
    )


def log_tilde_g1(s, orb: OrbifoldData, prec: int = DEFAULT_PREC):
    """log of the alternate gamma factor
    G_E(s)^(-1) ((2 pi)^(-s) G(s+1)^2 / Gamma(s))^(h(2g-2+c+e))."""
    sig = orb.signature
    power = orb.dim * (2 * sig.genus - 2 + sig.cusps + sig.num_elliptic)
    with mp.workprec(prec + 16):
        z = mp.mpmathify(s)
        block = (
            -z * mp.log(2 * mp.pi)
            + 2 * log_barnes_g(z + 1, prec + 16)
            - log_gamma(z, prec + 16)
        )
        val = -log_g_e(z, orb, prec + 16) + power * block
    return _rounded(prec, val)


def order_tilde_g1_at(n: int, orb: OrbifoldData) -> int:
    """Order of the alternate gamma factor at -n; equals m_n."""
    sig = orb.signature
    power = orb.dim * (2 * sig.genus - 2 + sig.cusps + sig.num_elliptic)
    return power * (2 * n + 1) - order_g_e_at(n, orb)
