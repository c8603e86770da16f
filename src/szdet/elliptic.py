"""Integer combinatorics of the trivial zeros of the Selberg zeta function.

Exact integer arithmetic gives the closed form of the root-of-unity sine sum
and the floor count g_count, the one route to the alpha/beta coefficients
(each wrap count is 1 - g_count) and to the floor-function formula for the
trivial-zero multiplicities m_n (the authoritative value).  The spectral
form of m_n, which `szdet mn` reports against it as a residual, sums the
sine sum numerically; its one evaluation path, read by trig_sum_brute and
m_n_spectral alike, is one entry per (exponent, order, residue n mod d,
precision), built on demand in O(d) from the order's sines and roots of
unity, which every exponent shares; entries, sines and roots are memoized
by bounded lru_caches.  The direct-iteration oracles for g_count and for
the wrap counts' case table are in szdet.oracles.

Note m_0 = h (2g - 2 + c) for the trivial representation, which is negative
for small signatures (e.g. -1 for the modular one); negative values are
returned as-is and read downstream as pole orders of the gamma factor.
"""

from __future__ import annotations

import functools

from mpmath import mp

from .errors import DomainError, NonIntegerError
from .numerics import DEFAULT_PREC, _rounded
from .orbifold import OrbifoldData, vol_over_2pi


def alpha(d: int, exponents, m: int) -> int:
    """alpha(R, m) = sum_j ((m + q_j) mod d + (m - q_j) mod d) >= 0 over the
    exponents q_j.  Each residue is m +/- q_j plus d times its wrap count, so
    alpha = 2mh + d beta(R, m)."""
    return 2 * m * len(exponents) + d * beta_coeff(d, exponents, m)


def beta_coeff(d: int, exponents, m: int) -> int:
    """beta(R, m) = sum_j k(R,m,j), the wrap counts of the residues of m +/- q_j:
    k = ((m+q) mod d - m - q)/d + ((m-q) mod d - m + q)/d = 1 - g_count(m, q, d).

    For 0 <= m < d each k lies in {-1, 0, 1} and follows the three-case
    table (+1 iff m < q and m+q < d; -1 iff m >= q and m+q >= d; 0
    otherwise); for m >= d it picks up an extra -2 * (m // d).  Invalid
    (d, q, m) raise DomainError from g_count.
    """
    return sum(1 - g_count(m, q, d) for q in exponents)


# ---------------------------------------------------------------------------
# Trigonometric character sums
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=512)
def _sines_and_roots(d: int, prec: int) -> tuple:
    """(sins, roots) with sins[j] = sin(j pi/d) for j in [0, 2d) and
    roots[r] = omega^r for r in [0, d), omega = exp(2 pi i / d), at prec + 8
    bits; every exponent of order d reads the same pair."""
    with mp.workprec(prec + 8):
        sins = tuple(mp.sinpi(mp.mpf(j) / d) for j in range(2 * d))
        return sins, tuple(mp.expjpi(2 * mp.mpf(r) / d) for r in range(d))


@functools.lru_cache(maxsize=8192)
def _sine_sum(q: int, d: int, r: int, prec: int):
    """sum_{k=1}^{d-1} omega^(qk) sin(k pi (2r+1)/d) / sin(k pi/d), 0 <= r < d.

    omega = exp(2 pi i / d).  The sum depends on n only through r = n mod d,
    so this one entry per residue serves every n, both for trig_sum_brute
    and for the character sums of m_n_spectral; an entry costs O(d) once
    the (d, prec) sines and roots exist.  Entries carry prec + 8 bits.
    """
    sins, roots = _sines_and_roots(d, prec)
    with mp.workprec(prec + 8):
        return mp.fsum(
            roots[(q * k) % d] / sins[k] * sins[(k * (2 * r + 1)) % (2 * d)]
            for k in range(1, d)
        )


def trig_sum_closed(n: int, q: int, d: int) -> int:
    """d - 1 - (q(n) + qt(n)) where q(n), qt(n) are residues of n +/- q mod d."""
    if d < 2 or not 0 <= q <= d - 1 or n < 0:
        raise DomainError("need d >= 2, 0 <= q < d, n >= 0")
    return d - 1 - ((n + q) % d + (n - q) % d)


def trig_sum_brute(n: int, q: int, d: int, prec: int = DEFAULT_PREC):
    """sum_{k=1}^{d-1} omega^k sin(k pi (2n+1)/d) / sin(k pi / d), numerically.

    omega = exp(2 pi i q / d).  Returned as a complex number whose imaginary
    part must vanish to working precision.
    """
    if d < 2 or not 0 <= q <= d - 1 or n < 0:
        raise DomainError("need d >= 2, 0 <= q < d, n >= 0")
    return _rounded(prec, _sine_sum(q, d, n % d, prec))


# ---------------------------------------------------------------------------
# Counting lemmas
# ---------------------------------------------------------------------------


def g_count(n: int, q: int, d: int) -> int:
    """floor((n+q)/d) + floor((n+d-q)/d); closed form of
    szdet.oracles.count_multiples."""
    if d < 2 or not 0 <= q <= d - 1 or n < 0:
        raise DomainError("need d >= 2, 0 <= q < d, n >= 0")
    return (n + q) // d + (n + d - q) // d


# ---------------------------------------------------------------------------
# Trivial-zero multiplicities by two independent formulas
# ---------------------------------------------------------------------------


def m_n_floor(orb: OrbifoldData, n: int) -> int:
    """m_n = h(2g-2+c+e)(2n+1) - sum_R sum_j g_count(n, q(R)_j, d_R), exactly."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    sig = orb.signature
    h = orb.dim
    total = h * (2 * sig.genus - 2 + sig.cusps + sig.num_elliptic) * (2 * n + 1)
    for d, qs in orb.elliptic_classes():
        for q in qs:
            total -= g_count(n, q, d)
    return total


def m_n_spectral(orb: OrbifoldData, n: int, prec: int = DEFAULT_PREC):
    """The sine-sum form of m_n, evaluated numerically.

    m_n = h vol/(2 pi) (2n+1)
          - sum_R sum_{k=1}^{d_R-1} tr(chi^k(R))/d_R
            * sin(k pi (2n+1)/d_R) / sin(k pi / d_R).

    As tr(chi^k(R)) = sum_{q in q(R)} omega^(qk), the R term is the sum of
    the q entries n mod d_R (one _sine_sum each), over d_R.

    Raises NonIntegerError if the result strays more than 10 * 2^(-prec/2)
    from an integer, which would signal an implementation bug.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    h = orb.dim
    v = vol_over_2pi(orb.signature)
    with mp.workprec(prec + 8):
        total = mp.mpc(mp.mpf(v.numerator) / v.denominator * h * (2 * n + 1))
        for d, qs in orb.elliptic_classes():
            for q in qs:
                total -= _sine_sum(q, d, n % d, prec) / d
        nearest = mp.nint(total.real)
        if abs(total - nearest) > 10 * mp.mpf(2) ** (-prec // 2):
            raise NonIntegerError(
                f"spectral multiplicity {total} not close to an integer at n={n}"
            )
        out = total.real
    return _rounded(prec, out)
