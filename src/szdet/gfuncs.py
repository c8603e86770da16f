"""The gamma factor G1 for the trivial zeros, and its expansion constants.

G1 is assembled from the Barnes double Gamma function and Gamma functions so
that its divisor on the nonpositive integers is exactly the trivial-zero
multiplicity sequence m_n:

    G1(s) = ((2 pi)^(-s) G(s+1)^2 / Gamma(s))^(h vol/2pi)
            * prod_R d_R^(-h(1-1/d_R) s) Gamma(s)^(h(1-1/d_R))
                     prod_{m=0}^{d_R-1} Gamma((s+m)/d_R)^(-alpha(R,m)/d_R)

with all fractional powers taken through log_gamma and log_barnes_g, i.e.
the analytic continuations of the real logarithms from the positive real
axis (cut on (-inf, 0]), not principal logarithms.  log G1 here always means
the sum of those scaled logs of the factors, so exp(log_g1(s)) is G1(s) on
the common domain.

The large-s expansion is

    log G1(s) = (h vol/2pi) s^2 (log s - 3/2) + a1~ s (log s - 1) + b1 s
                + a0~ log s + b0 + O(1/s),

whose coefficients are produced by g1_coefficients.  The rational
coefficients (of s^2 terms, s(log s - 1) and log s) are carried as exact
fractions; b1 and b0 are floating values at the requested precision.  Two
published variants of the closed form of the constants disagree in the sign
of two terms; the adopted forms are the unique ones under which the residual
after subtracting the full expansion decays like O(1/s), which the test
suite checks by a high-point constant fit (the rejected variants are
szdet.oracles.b0_candidates and a0_candidates).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .elliptic import alpha, beta_coeff, m_n_floor
from .errors import BranchError, SingularityError
from .numerics import (
    DEFAULT_PREC,
    _is_real,
    _real,
    _rounded,
    frac_to_mpf,
    log_barnes_g,
    log_gamma,
    to_scalar,
    zeta_prime_minus1,
)
from .orbifold import OrbifoldData, vol_over_2pi


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients of the order-two asymptotic template.

    a2t multiplies z^2 (log z - 3/2), a1t multiplies z (log z - 1), b1
    multiplies z, a0t multiplies log z, b0 is the constant term; no function
    in scope has a z^2 term.  a2t, a1t, a0t are exact rationals; b1, b0 are
    floats.
    """

    a2t: Fraction
    a1t: Fraction
    b1: object
    a0t: Fraction
    b0: object


def _beta_table(orb: OrbifoldData):
    """beta(R, m) for each class R and m in [0, d_R)."""
    return [
        (d, [beta_coeff(d, qs, m) for m in range(d)])
        for d, qs in orb.elliptic_classes()
    ]


def g1_coefficients(orb: OrbifoldData, prec: int = DEFAULT_PREC) -> ExpansionCoefficients:
    """Expansion coefficients of log G1 for the given orbifold."""
    h = orb.dim
    hv = h * vol_over_2pi(orb.signature)
    betas = _beta_table(orb)

    a1t = -hv - sum(
        Fraction(sum(bs), d) for d, bs in betas
    )
    a0t = (
        hv / 3
        - sum(h * Fraction((d - 1) * (d + 1), 6 * d) for d, _ in betas)
        - sum(
            sum(b * (Fraction(m, d) - Fraction(1, 2)) for m, b in enumerate(bs))
            for d, bs in betas
        )
    )
    with mp.workprec(prec + 16):
        log2pi = mp.log(2 * mp.pi)
        b1 = mp.mpf(0)
        b0 = frac_to_mpf(hv) * (2 * zeta_prime_minus1(prec + 16) - log2pi / 2)
        for d, bs in betas:
            logd = mp.log(d)
            log2pid = log2pi + logd
            b1 += frac_to_mpf(Fraction(sum(bs), d)) * logd
            b0 += (
                h
                * (d - 1)
                * (log2pi / (2 * d) - log2pid / 2 + mp.mpf(2 * d - 1) / (3 * d) * logd)
            )
            b0 -= mp.fsum(
                b * (log2pid / 2 - mp.mpf(m) / d * logd) for m, b in enumerate(bs)
            )
        b1 = _rounded(prec, b1)
        b0 = _rounded(prec, b0)
    return ExpansionCoefficients(
        a2t=hv, a1t=a1t, b1=b1, a0t=a0t, b0=b0
    )


def log_g1(orb: OrbifoldData, s, prec: int = DEFAULT_PREC):
    """Direct evaluation of log G1(s) as a sum of scaled logs of the factors.

    Each log is the continuation from the positive real axis, cut on
    (-inf, 0], as computed by log_gamma and log_barnes_g.

    Raises SingularityError within 2^(-prec/4) of a nonpositive integer -n
    where m_n != 0, and BranchError if s lies on the cut (-inf, 0]; the
    other arguments, s + 1 and (s + m)/d with m >= 0, lie on it only if s
    does.
    """
    with mp.workprec(prec + 16):
        z = to_scalar(s, prec + 16)
        n_near = int(mp.nint(-_real(z)))
        if n_near >= 0 and abs(z + n_near) < mp.mpf(2) ** (-(prec // 4)):
            if order := m_n_floor(orb, n_near):
                raise SingularityError(
                    f"s = {s} within tolerance of the order-{order} "
                    f"divisor point -{n_near} of G1"
                )
        h = orb.dim
        hv = frac_to_mpf(h * vol_over_2pi(orb.signature))
        if _is_real(z) and _real(z) <= 0:
            raise BranchError(f"Gamma argument {z} lies on the cut (-inf, 0]")
        lg_s = log_gamma(z, prec + 16)
        val = hv * (
            -z * mp.log(2 * mp.pi)
            + 2 * log_barnes_g(z + 1, prec + 16)
            - lg_s
        )
        # classes of one order d share the arguments (z+m)/d: one log Gamma
        # per (d, m), weighted by alpha summed over those classes
        by_order: dict[int, list] = {}
        for d, qs in orb.elliptic_classes():
            by_order.setdefault(d, []).append(qs)
        for d, classes in by_order.items():
            w = mp.mpf(h) * (d - 1) / d
            val += len(classes) * (-w * z * mp.log(d) + w * lg_s)
            for m in range(d):
                a = sum(alpha(d, qs, m) for qs in classes)
                if a:
                    val -= mp.mpf(a) / d * log_gamma((z + m) / d, prec + 16)
    return _rounded(prec, val)
