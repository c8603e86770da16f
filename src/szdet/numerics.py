"""Extended-precision scalars and the classical special functions.

Scalars are mpmath ``mpf``/``mpc`` values; every public function takes the
working precision in bits (``prec``, default 256) and returns a value rounded
to that precision, having computed with guard bits internally.

log_gamma and log_barnes_g are not principal logarithms of Gamma and G: they
are the analytic continuations of the real logarithms on the positive real
axis, with the cut on (-inf, 0], so their imaginary parts grow without bound
along vertical lines (Im log Gamma(3+50i) ~ 149.47).  exp() of either is the
function value.

log_gamma, riemann_zeta, hurwitz_zeta and zeta_prime_minus1 are mpmath's
(``loggamma``, ``zeta`` and Glaisher's constant) behind the library's domain
checks and error contract.  Two functions mpmath does not provide:
log_barnes_g expands ``log G(s+1)`` far right, its Bernoulli tail by Horner's
rule, and shifts there by one log of a product of rising factorials and a
branch integer; zeta_pair gives (zeta(s-1), zeta(s)) from one Borwein sum over
powers built from the primes where mpmath would run Borwein's algorithm for
both (Re s >= 1, |s| <= prec + 32), and from two riemann_zeta calls elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, to_fixed
from mpmath.libmp.gammazeta import borwein_coefficients
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, log_int_fixed, pi_fixed

from .errors import DomainError, PoleError, PrecisionError, ZeroError

DEFAULT_PREC = 256
_GUARD = 32


def to_scalar(x, prec: int = DEFAULT_PREC):
    """x as an mpf, or an mpc if its imaginary part is nonzero.

    A Fraction, int, float or string is converted at ``prec`` bits.  An mpf
    or mpc is returned as given, at the precision it carries, not rounded to
    ``prec`` (an mpc with zero imaginary part becomes its real part).  The
    exact trace rule relies on this: it reads an mpf cutoff at its full
    binary value, however many bits that takes.
    """
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        v = mp.mpmathify(x)
        if isinstance(v, mpc) and v.imag == 0:
            return v.real
        return v


def frac_to_mpf(fr: Fraction) -> mpf:
    """Exact rational -> mpf at the ambient working precision."""
    return mp.mpf(fr.numerator) / fr.denominator


def _rounded(prec: int, v):
    with mp.workprec(prec):
        return +v


def _is_real(z) -> bool:
    return not isinstance(z, mpc) or z.imag == 0


def _real(z):
    return z.real if isinstance(z, mpc) else z


def _nonpositive_integer(z):
    """Return n >= 0 with z == -n exactly, or None."""
    if not _is_real(z):
        return None
    x = _real(z)
    if x > 0 or x != mp.floor(x):
        return None
    return int(-x)


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------


def log_gamma(z, prec: int = DEFAULT_PREC):
    """log Gamma(z) for z off the cut (-inf, 0], by ``mp.loggamma``.

    The branch is the analytic continuation from the positive real axis, not
    the principal log of Gamma(z).
    """
    with mp.workprec(prec + _GUARD):
        w = mp.mpmathify(z)
        n_pole = _nonpositive_integer(w)
        if n_pole is not None:
            raise PoleError(f"log_gamma pole at z = -{n_pole}")
        if _is_real(w) and _real(w) < 0:
            raise DomainError("log_gamma: negative real argument lies on the cut")
        val = mp.loggamma(w)
    return _rounded(prec, val)


# ---------------------------------------------------------------------------
# log Barnes G
# ---------------------------------------------------------------------------


def _barnes_tail(u, log2_u: float, wp: int):
    """sum_{k>=1} c_k / u^{2k}, c_k = B_{2k+2} / (4 k (k+1)), adaptively truncated.

    Signed Bernoulli numbers with a leading plus (``mp.bernoulli`` at the
    working precision): the k=1 and k=2 terms of this convention are the
    unique choice matching independent high-precision oracles for log G(s+1).
    Horner's rule in 1/u^2 sums c_1..c_K, K the first k with log2|c_k u^-2k| < -(wp+4).
    """
    coeffs, last = [], math.inf
    for k in range(1, 4 * wp + 1):
        c = mp.bernoulli(2 * k + 2) / (4 * k * (k + 1))
        mag = c._mpf_[2] + math.log2(c._mpf_[1]) - 2 * k * log2_u  # log2 |c_k / u^2k|
        if mag > last:
            raise PrecisionError(
                f"Barnes series diverged before reaching 2^-{wp} at |u|={abs(u)}"
            )
        coeffs.append(c)
        if mag < -(wp + 4):
            return mp.polyval(coeffs[::-1] + [0], 1 / (u * u))
        last = mag
    raise PrecisionError("Barnes series failed to terminate")


def log_barnes_g(z, prec: int = DEFAULT_PREC):
    """log G(z) of the Barnes double Gamma function, z off the cut (-inf, 0].

    The branch is the analytic continuation from the positive real axis, not
    the principal log of G(z): Im log G(3+50i) ~ -1623.36.

    G(z) vanishes at z = 0, -1, -2, ... to order 1 - z; requesting log there
    raises ZeroError carrying that order.  Elsewhere log G(s+1) is expanded
    far right and shifted back by G(z+1) = Gamma(z) G(z), so the recursion
    holds to working precision by construction: one log of a product of rising
    factorials, put on the branch by a float sum of their arguments.
    """
    with mp.workprec(prec + _GUARD):
        w = mp.mpmathify(z)
        n_zero = _nonpositive_integer(w)
        if n_zero is not None:
            raise ZeroError(f"Barnes G vanishes at z = -{n_zero}", order=n_zero + 1)
        if _is_real(w) and _real(w) < 0:
            raise DomainError("log_barnes_g: negative real argument lies on the cut")
        s = w - 1  # G(z) = G(s+1)
        n = max(0, int(mp.ceil(max(20, prec // 3) - _real(s))))
        corr = 0
        if n:
            # log G(s+1) = log G(s+1+n) - n log Gamma(s+1) - log Q, where Q is
            # prod_{0<j<n} (s+j)^(n-j): 2 bitlen(n) + 10 bits cover its ~n^2/2 roundings
            with mp.workprec(prec + _GUARD + 2 * n.bit_length() + 10):
                p = q = mp.mpf(1)
                for j in range(1, n):
                    p *= s + j
                    q *= p
                log_q = mp.log(q)
                # a float arg is accurate where |a + j + f| >= 1/2, so the sum is off
                # ~n^2 pi 2^-52; both parts of s - a (a + j = 0) may underflow a float
                a = int(mp.nint(s.real))
                f, im = float(s.real - a), float(s.imag)
                args = [(n - j) * math.atan2(im, a + j + f) for j in range(1, n) if a + j]
                if 0 < -a < n:
                    args.append((n + a) * float(mp.atan2(s.imag, s.real - a)))
                if k := round((math.fsum(args) - float(log_q.imag)) / (2 * math.pi)):
                    log_q += mpc(0, 2 * k) * mp.pi  # k = 0 at real s
            corr = n * log_gamma(s + 1, prec + _GUARD) + log_q
        u = s + n
        log_u = mp.log(u)  # Re u >= 20, so the principal log is the branch
        main = (
            u * u / 2 * (log_u - mp.mpf(3) / 2)
            - log_u / 12
            + u / 2 * mp.log(2 * mp.pi)
            + zeta_prime_minus1(prec + _GUARD)
            + _barnes_tail(u, float(log_u.real) / math.log(2), prec + _GUARD)
        )
        val = main - corr
    return _rounded(prec, val)


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------


def riemann_zeta(s, prec: int = DEFAULT_PREC):
    """zeta(s) on C minus the pole at s = 1, by ``mp.zeta``."""
    with mp.workprec(prec + _GUARD):
        w = mp.mpmathify(s)
        if _is_real(w) and _real(w) == 1:
            raise PoleError("zeta pole at s = 1")
        val = mp.zeta(w)
    return _rounded(prec, val)


def zeta_pair(s, prec: int = DEFAULT_PREC):
    """(zeta(s-1), zeta(s)) on C minus the poles at s = 2 and s = 1.

    Where mpmath would sum Borwein's eta series for both (Re s >= 1, |s| <=
    prec + _GUARD, neither argument within 2^-(prec/2 + 26) of 1), one sum
    serves both: m^-s is a fixed-point exp and cos/sin of log p for a prime
    m = p and the product of two earlier entries for a composite, and eta(s-1)
    weights it by m.  As |m^-s| <= 1/m, each entry is off by a few units of
    2^-wp, and mpmath's 20 extra bits cover the n^2 of the weighted sum.
    Elsewhere it is riemann_zeta(s - 1), riemann_zeta(s).
    """
    with mp.workprec(prec + _GUARD):
        w = mp.mpmathify(s)
        wp = prec + _GUARD + 20
        dist = [-2 * mp.mag(r) for r in (2 - w, 1 - w)]  # bits to the poles, as mpmath
        if _real(w) < 1 or abs(w) > prec + _GUARD or max(dist) > wp:
            return riemann_zeta(mp.fsub(w, 1, prec=prec), prec), riemann_zeta(w, prec)
        wp += sum(max(0, x) for x in dist)
        n = int(wp / 2.54 + 5) + int(0.9 * abs(int(mp.im(w))))
        d = borwein_coefficients(n)
        sf, tf = (to_fixed(x._mpf_, wp) for x in (mp.re(w), mp.im(w)))
        ln2, pi2, one = ln2_fixed(wp), pi_fixed(wp - 1), 1 << wp
        spf = [0] * (n + 1)  # smallest prime factor
        re, im = [0, one], [0, 0]  # m^-s at index m
        for m in range(2, n + 1):
            if not spf[m]:
                spf[m::m] = [q or m for q in spf[m::m]]
                log = log_int_fixed(m, wp, ln2)
                r = exp_fixed(-(sf * log) >> wp, wp, ln2)
                c, si = cos_sin_fixed(-(tf * log) >> wp, wp, pi2) if tf else (one, 0)
                re.append((r * c) >> wp)
                im.append((r * si) >> wp)
            else:
                (a, b), p = (re[spf[m]], im[spf[m]]), m // spf[m]
                re.append((a * re[p] - b * im[p]) >> wp)
                im.append((a * im[p] + b * re[p]) >> wp)
        e1r = e1i = e0r = e0i = 0
        for m in range(1, n + 1):
            c = d[m - 1] - d[n] if m & 1 else d[n] - d[m - 1]
            x, y = c * re[m], c * im[m]
            e0r, e0i, e1r, e1i = e0r + x, e0i + y, e1r + m * x, e1i + m * y
    out = []
    with mp.workprec(wp):
        for u, er, ei in ((w - 1, e1r, e1i), (w, e0r, e0i)):
            eta = (mp.make_mpc((from_man_exp(er // -d[n], -wp), from_man_exp(ei // -d[n], -wp)))
                   if isinstance(w, mpc) else mp.make_mpf(from_man_exp(er // -d[n], -wp)))
            out.append(_rounded(prec, eta / (1 - mp.mpf(2) ** (1 - u))))
    return tuple(out)


def zeta_prime_minus1(prec: int = DEFAULT_PREC) -> mpf:
    """zeta'(-1) = 1/12 - log A, with A Glaisher's constant (cached by mpmath)."""
    with mp.workprec(prec + _GUARD):
        val = mp.mpf(1) / 12 - mp.log(mp.glaisher)
    return _rounded(prec, val)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------


def hurwitz_zeta(s, z, prec: int = DEFAULT_PREC):
    """zeta_H(s, z) = sum_{k>=0} (z+k)^(-s), by ``mp.zeta(s, z)``.

    Valid for z off the cut (-inf, 0] and s != 1.
    """
    with mp.workprec(prec + _GUARD):
        ss = mp.mpmathify(s)
        zz = mp.mpmathify(z)
        if _is_real(ss) and _real(ss) == 1:
            raise PoleError("hurwitz_zeta pole at s = 1")
        if _is_real(zz) and _real(zz) <= 0:
            raise DomainError("hurwitz_zeta: z on the cut (-inf, 0]")
        val = mp.zeta(ss, zz)
    return _rounded(prec, val)
