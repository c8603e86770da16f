"""Selberg zeta function via its Euler product, and scattering determinants.

Geodesics: primitive hyperbolic classes of the modular group are cyclic
words in L = [[1,1],[0,1]] and R = [[1,0],[1,1]] with both letters, written
as their least rotations: the Lyndon words over the blocks L^a R^b, which
one walk visits.  Norms are N(P0) = ((t + sqrt(t^2-4))/2)^2 with t the
integer trace, so a norm cutoff is a trace bound, found by exact integer
arithmetic on the cutoff's binary value, and with the trivial character the
Euler sum needs only the number of classes of each trace: the modular
source counts the walk's traces and builds no word.

log Z(s) = - sum over primitive classes P0 and powers l >= 1 of
tr chi(P0^l) / (l (1 - N(P0)^-l) N(P0)^{l s}), absolutely convergent for
Re(s) > 1; it is summed as one norm series per trace, and evaluations carry
an explicit truncation tail estimate.  The series' z-independent terms (per
trace: log N and the character-weighted coefficients of N^(-ls)) are
built by the first log Z call for a (trace bound, precision) pair and kept
on the geodesic source until a call with another pair replaces them, so a
later call with that pair reads no class.  Those coefficients and log N are
held as fixed-point integers, and no other form of N is kept: the
coefficients take N^-l, and every later call N^-s, from log N by mpmath's
fixed-point exp (and cos/sin) kernels, and a Horner loop sums the series,
all in Python integer arithmetic (error bound in selberg_log_z's docstring).

Scattering determinants come in two flavours: the built-in modular closed
form sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) zeta(2s)), whose two zetas
come from numerics.zeta_pair (one shared Borwein sum for Re s >= 1/2 and
|2s| <= prec + 48, two mp.zeta calls elsewhere), and a generic
Dirichlet-series model L(s) H(s) with user-supplied coefficients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, isqrt, log
from typing import NamedTuple, Protocol

from mpmath import mp, mpc
from mpmath.libmp import from_man_exp, fzero, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed

from .errors import ConvergenceError, CutoffError, DomainError, PoleError
from .numerics import (
    DEFAULT_PREC,
    _nonpositive_integer,
    _real,
    _rounded,
    log_gamma,
    to_scalar,
    zeta_pair,
)

# the walk counts the 602,498 classes up to this trace (norm ~9.0e6) in
# ~0.6 s on a 2-vCPU x86-64 host (BENCH_int_walk.json)
MAX_ENUMERATED_TRACE = 3000

# fractional bits of the Euler sum's fixed-point Horner loop beyond its
# working precision, and the most extra bits its phase Im(s) log N may take
# (see selberg_log_z)
_FIXED_GUARD = 24
_PHASE_BITS = 64


def word_matrix(word: str):
    """Integer matrix of an L/R word, one column update per letter: times L =
    (1, 1, 0, 1) adds the left column to the right one, times R = (1, 0, 1, 1)
    the right column to the left one."""
    m0, m1, m2, m3 = 1, 0, 0, 1
    for ch in word:
        if ch == "L":
            m1, m3 = m1 + m0, m3 + m2
        elif ch == "R":
            m0, m2 = m0 + m1, m2 + m3
        else:
            raise DomainError(f"word may contain only L and R, got {ch!r}")
    return m0, m1, m2, m3


def norm_of_trace(t: int, prec: int = DEFAULT_PREC):
    """N = ((t + sqrt(t^2 - 4)) / 2)^2 for an integer trace t >= 3."""
    if t < 3:
        raise DomainError("hyperbolic classes have trace >= 3")
    with mp.workprec(prec + 8):
        lam = (t + mp.sqrt(mp.mpf(t) ** 2 - 4)) / 2
        return _rounded(prec, lam * lam)


@dataclass(frozen=True)
class GeodesicClass:
    """A primitive hyperbolic conjugacy class with its character data.

    ``chi`` is ('trivial', h) or ('table', trace tuple), read by chi_trace.
    ListGeodesicSource groups a trace's classes by the identity of ``chi``,
    so a list or table hands classes with one character the same tuple.
    """

    word: str
    trace: int
    chi: tuple = ("trivial", 1)


def chi_trace(chi: tuple, ell: int, trace: int):
    """tr chi(P0^ell) for a class of the given trace with character ``chi``."""
    kind, data = chi
    if kind == "trivial":
        return mp.mpf(data)
    if kind == "table":
        if ell > len(data):
            raise DomainError(f"chi trace table for a class of trace {trace} "
                              f"holds only {len(data)} powers, requested {ell}")
        return data[ell - 1]
    raise DomainError(f"unknown chi kind {kind!r}")


class GeodesicSource(Protocol):
    """The classes with norm <= cutoff, counted per trace and character:
    classes() returns (trace, ((chi, multiplicity), ...)) in ascending trace,
    every class counted once, and log Z sums one norm series per trace.  A
    source that cannot count every class under the cutoff raises CutoffError.

    ``max_trace`` is the largest trace the source can count classes up to;
    _trace_bound refuses a cutoff whose trace bound lies beyond it or below 3.

    ``_terms`` belongs to ``selberg_log_z``: it holds the z-independent terms
    of each trace's series under their (trace bound, prec) key, for the last
    key only, so later calls with that key read no class.
    """

    dim: int
    max_trace: int
    _terms: dict

    def classes(self, norm_cutoff, prec: int) -> list[tuple[int, tuple]]: ...


def _max_trace_for_cutoff(norm_cutoff, prec: int, limit: int) -> int:
    """The largest trace t with N(t) <= norm_cutoff (< 3 when no class fits),
    or limit + 1, before any integer is formed, for a cutoff of (limit + 1)^2
    > N(limit + 1) or more: a source refuses it (10^D would take 3.3 D bits).

    Since N + 1/N = t^2 - 2, N(t) <= x exactly when t^2 x <= (x + 1)^2 for
    x >= 1; x = a/b is the cutoff's exact binary value (to_scalar, prec + 16).
    """
    x = to_scalar(norm_cutoff, prec + 16)
    if not mp.isfinite(x):
        raise CutoffError(f"norm cutoff must be finite, got {norm_cutoff}")
    if x >= (limit + 1) ** 2:
        return limit + 1
    if x < 1:
        return 0
    a, e = x.man_exp
    a, b = (a << e, 1) if e >= 0 else (a, 1 << -e)
    return isqrt((a + b) ** 2 // (a * b))


def _modular_walk(tmax: int):
    """(trace, blocks) of each primitive class with trace <= tmax, blocks
    being the exponents (a, b) of its canonical word L^a R^b L^a' R^b' ...

    A class's canonical word is its lexicographically least rotation, which
    starts with a longest L-run and so is a sequence of blocks L^a R^b
    (a, b >= 1).  Letter order on the cyclic word orders the blocks as
    (a, b) < (a', b') iff a > a', or a = a' and b < b', and the canonical
    words of primitive classes are the Lyndon words over that alphabet.  The
    walk visits prenecklaces (Fredricksen-Kessler-Maiorana; Ruskey, Savage
    and Wang, J. Algorithms 13 (1992)): with p the length of the longest
    Lyndon prefix, a block may extend the word when it is >= the block p
    places back; an equal block keeps p and a larger one makes the extended
    word Lyndon, so each class is yielded exactly once.  All matrix entries
    stay nonnegative, so the trace is monotone in every block exponent and
    each exponent loop stops at its first overshoot.

    The matrices come from column updates.  Times L adds the left column
    (m0, m2) to the right one (l1, l3), so M L^a R^b has left column (m0 +
    b l1, m2 + b l3) and trace m0 + l3 + b l1, which rises by l1 with each
    step in b.
    """
    # stack holds (matrix, blocks, p) for each prenecklace
    stack = [((1, 0, 0, 1), (), 0)]
    while stack:
        (m0, l1, m2, l3), blocks, p = stack.pop()
        n = len(blocks)
        # the first block is unconstrained: every block within tmax has
        # a < tmax - 1 and b >= 1, so it is larger than (tmax, 0)
        ra, rb = blocks[n - p] if n else (tmax, 0)
        for a in range(1, ra + 1):
            l1, l3 = l1 + m0, l3 + m2
            b = rb if a == ra else 1
            tr = m0 + l3 + b * l1
            if tr > tmax:
                break
            while tr <= tmax:
                longer = blocks + ((a, b),)
                q = p if (a, b) == (ra, rb) else n + 1
                if q == n + 1:
                    yield tr, longer
                stack.append(((m0 + b * l1, l1, m2 + b * l3, l3), longer, q))
                b += 1
                tr += l1


def _trace_bound(norm_cutoff, prec: int, limit: int) -> int:
    """The trace bound of a cutoff for a source that counts every class up to
    trace ``limit``: the one rule that refuses a cutoff, below N(3) or at
    N(limit + 1) and above."""
    tmax = _max_trace_for_cutoff(norm_cutoff, prec, limit)
    if tmax < 3:
        raise CutoffError(f"cutoff {norm_cutoff} below the smallest norm "
                          f"{norm_of_trace(3, 53)}")
    if tmax > limit:
        raise CutoffError(f"cutoff {norm_cutoff} reaches the enumeration limit: "
                          f"the source is complete only up to trace {limit}, so "
                          f"a cutoff must lie below N({limit + 1}) = "
                          f"{mp.nstr(norm_of_trace(limit + 1, 53), 10)}")
    return tmax


def modular_geodesics(norm_cutoff, prec: int = DEFAULT_PREC):
    """The modular group's primitive classes with norm <= cutoff by (trace,
    word), sharing one trivial one-dimensional ``chi``: a listing for tables
    and tests, which the Euler sum does not read."""
    chi = ("trivial", 1)
    words = sorted((tr, "".join(["L" * a + "R" * b for a, b in blocks])) for tr, blocks
                   in _modular_walk(_trace_bound(norm_cutoff, prec, MAX_ENUMERATED_TRACE)))
    return [GeodesicClass(word=w, trace=tr, chi=chi) for tr, w in words]


@dataclass
class ModularGeodesicSource:
    """Modular-group classes, counted per trace afresh by each classes()
    call; the Euler sum keeps what it needs in ``_terms``."""

    dim: int = 1
    _terms: dict = field(default_factory=dict, compare=False, repr=False)
    max_trace = MAX_ENUMERATED_TRACE

    def classes(self, norm_cutoff, prec: int = DEFAULT_PREC):
        chi, counts = ("trivial", self.dim), Counter(
            tr for tr, _ in _modular_walk(_trace_bound(norm_cutoff, prec, self.max_trace)))
        return [(tr, ((chi, counts[tr]),)) for tr in sorted(counts)]


@dataclass
class ListGeodesicSource:
    """A fixed class list (synthetic data or a loaded cache file).

    The list counts as complete up to its largest trace: a cutoff whose trace
    bound lies beyond it raises CutoffError, since the classes missing there
    would otherwise be dropped from the sum without a word, and so does a
    cutoff below N(3), as for every source.
    """

    entries: tuple
    dim: int = 1
    _terms: dict = field(default_factory=dict, compare=False, repr=False)
    max_trace: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.max_trace = max((c.trace for c in self.entries), default=2)

    def classes(self, norm_cutoff, prec: int = DEFAULT_PREC):
        tmax = _trace_bound(norm_cutoff, prec, self.max_trace)
        groups = {}
        for c in sorted((c for c in self.entries if c.trace <= tmax),
                        key=lambda c: (c.trace, c.word)):
            groups.setdefault(c.trace, {}).setdefault(id(c.chi), [c.chi, 0])[1] += 1
        return [(tr, tuple(map(tuple, g.values()))) for tr, g in groups.items()]


class ValueWithTail(NamedTuple):
    value: object
    tail_bound: object


class _TraceTerms:
    """The z-independent part of one trace's norm series in log Z: log N and
    c_l = (sum of tr chi(P0^l) over the trace's classes) / (l (1 - N^-l)),
    built on demand up to the most powers a call has needed.  ``groups``
    holds the (chi, multiplicity) pairs of a source's classes(), so each
    distinct character is evaluated once per power.  ``wp`` is
    selberg_log_z's working precision, prec + 16.

    log N = 2 acosh(t/2) is the one form of N kept: the fixed-point integer
    ``log_fixed`` with frac + _PHASE_BITS fractional bits, frac = wp + 24,
    enough for the phase Im(s) log N at any |Im s| that selberg_log_z
    accepts.  Each c_l is kept once as a fixed-point (Re, Im) pair with frac
    fractional bits for selberg_log_z's Horner loop: the character sum (one
    mp.fdot at frac bits), floored, times 2^frac, floor-divided by l times
    2^frac - E, with E = exp_fixed(-(l log_fixed >> _PHASE_BITS)) the kernel
    that forms |N^-s| there.  ``complex`` records whether any sum was an mpc.
    """

    def __init__(self, trace: int, groups, wp: int):
        self.trace, self.groups, self.coeffs = trace, groups, []
        self.frac = wp + _FIXED_GUARD
        with mp.workprec(self.frac + _PHASE_BITS + 8):
            log_norm = 2 * mp.acosh(mp.mpf(trace) / 2)
            self.log_fixed = to_fixed(log_norm._mpf_, self.frac + _PHASE_BITS)
        self.ratio = float((wp + 10) * mp.log(2) / log_norm)
        self.complex = False

    def powers(self, sigma) -> int:
        """Powers l the series needs at Re s = sigma, ceil((wp + 10) log 2 /
        (sigma log N)); sigma = 1 gives the most that any Re s > 1 needs."""
        return max(1, ceil(self.ratio / float(sigma)))

    def coefficients(self, lmax: int) -> list:
        """The fixed-point pairs of c_lmax, ..., c_1: Horner order."""
        frac = self.frac
        for ell in range(len(self.coeffs) + 1, lmax + 1):
            with mp.workprec(frac):
                chi = mp.fdot((n, chi_trace(c, ell, self.trace)) for c, n in self.groups)
            self.complex |= isinstance(chi, mpc)
            parts = chi._mpc_ if isinstance(chi, mpc) else (chi._mpf_, fzero)
            den = ell * ((1 << frac) - exp_fixed(-((ell * self.log_fixed) >> _PHASE_BITS), frac))
            self.coeffs.append(tuple((to_fixed(v, frac) << frac) // den for v in parts))
        return self.coeffs[lmax - 1::-1]


def selberg_log_z(
    source: GeodesicSource, s, cutoff, prec: int = DEFAULT_PREC
) -> ValueWithTail:
    """Truncated log Z(s) over classes with norm <= cutoff, plus tail bound.

    Each trace contributes one series in its norm N, weighted by the sum of
    tr chi(P0^l) over the trace's classes; those terms are kept on the
    source (``_terms``, for the last (trace bound, prec) key), so a warm call
    reads no class.  The tail estimate covers the classes beyond the cutoff
    (via the geodesic counting function, with a safety factor) and the
    truncated l-powers.

    The per-trace work runs in Python integers, in fixed point with frac =
    wp + 24 fractional bits.  With s = sigma + i tau, p = N^-s is
    exp_fixed(-sigma log N) (cos, -sin)(tau log N), from mpmath's fixed-point
    kernels.  The phase tau log N is formed and reduced with e = 1 +
    ceil(log2(1 + 2 |tau| log t_max)) more fractional bits (N(t) < t^2 for
    the largest trace t_max), so its error stays within a few 2^-frac at any
    tau; a call that needs e > _PHASE_BITS = 64 raises DomainError (|tau| 2
    log t_max >= 2^63, or |tau| >= 5.7e17 at the enumeration limit).
    A Horner loop sums c_1 + c_2 p + ... + c_L p^(L-1), the result times p
    is subtracted from two integer totals, and the totals become mpmath
    numbers once per call.

    Error bound, in units u = 2^-frac.  mpmath's fixed-point exp and
    cos/sin are accurate to a few u (its own exp and cos/sin add only 10-14
    guard bits to them); take a few as 4.  The argument sigma log N is off
    by less than (log N + 2) u, and the phase tau log N, with its reduction
    mod pi/2, by less than (log N / 4 + 2) u; both errors scale with |p| <=
    N^-sigma, and |p| (log N + 2) < 0.6 for N >= N(3).  With the floors that
    form p, p is off by less than 10 u (sampled: at most 2.7 u).  c_l is off
    by less than (3.1 + 7 |c_l|) u: its character sum is rounded and floored
    (less than (sqrt(2) + |sum|) u), N^-l < 0.146 is formed as p is (off by
    less than 5 u) and the division floors.  Every Horner step floors its
    product by less than sqrt(2) u, and |p| <= 1/N(3) < 0.146, so the inner
    sum H is off by less than (5.3 + 7 B + 12 A) u, with B = |c_1| + |c_2 p|
    + ... and A the largest tail c_l + c_(l+1) p + ... for l >= 2.  The
    product p H adds |H| 10 u + sqrt(2) u, with |H| <= |c_1| + A |p|.  When
    |tr chi| <= dim, |c_1| < 1.2 n dim, B < 1.3 n dim and A < 0.66 n dim, n
    being the number of classes of the trace, so the term p H is off by less
    than (3 + 16 n dim) u, and the sum over T traces and C classes by less
    than (3 T + 16 C dim) 2^-frac.  With T <= MAX_ENUMERATED_TRACE and C
    below 2^30 (the modular group has 602,498 classes up to that trace) this
    is under 2^-(prec + 5) dim: inside the tail's 2^-prec (1 + |total|)
    allowance for rounding.
    """
    wp = prec + 16
    with mp.workprec(wp):
        z = to_scalar(s, wp)
        if not mp.isfinite(z):
            raise DomainError(f"log Z needs a finite s, got {s}")
        sigma = _real(z)
        if sigma <= 1:
            raise ConvergenceError("Euler product requires Re(s) > 1")
        tmax = _trace_bound(cutoff, prec, source.max_trace)
        frac, is_complex = wp + _FIXED_GUARD, isinstance(z, mpc)
        # N(t) < t^2, so one bit over log2(1 + |tau| 2 log t) covers the phase
        tau = mp.im(z)
        extra = (int(abs(tau) * (2 * log(tmax))) + 1).bit_length() + 1
        if extra > _PHASE_BITS:
            raise DomainError(f"|Im s| = {mp.nstr(abs(tau), 5)} is too large: "
                              f"the phase needs {extra} extra bits, at most "
                              f"{_PHASE_BITS}")
        records = source._terms.get((tmax, prec))
        if records is None:
            records = [_TraceTerms(t, g, wp) for t, g in source.classes(cutoff, prec)]
            source._terms.clear()
            source._terms[tmax, prec] = records
        fsigma, phase = float(sigma), frac + extra
        sig, ln2 = to_fixed(sigma._mpf_, frac), ln2_fixed(frac)
        tau_fixed, pi2 = to_fixed(tau._mpf_, phase), pi_fixed(phase - 1)
        shift = frac + _PHASE_BITS
        total_re = total_im = 0
        for terms in records:
            coeffs = terms.coefficients(terms.powers(fsigma))
            is_complex = is_complex or terms.complex
            pr = exp_fixed(-((sig * terms.log_fixed) >> shift), frac, ln2)
            pi = 0
            if tau_fixed:
                cos, sin = cos_sin_fixed((tau_fixed * terms.log_fixed) >> shift, phase, pi2)
                pr, pi = (pr * cos) >> phase, -(pr * sin) >> phase
            ar = ai = 0
            for cr, ci in coeffs:
                ar, ai = ((ar * pr - ai * pi) >> frac) + cr, ((ar * pi + ai * pr) >> frac) + ci
            total_re -= (ar * pr - ai * pi) >> frac
            total_im -= (ar * pi + ai * pr) >> frac
        total_re = from_man_exp(total_re, -frac)
        total = (mp.make_mpc((total_re, from_man_exp(total_im, -frac))) if is_complex
                 else mp.make_mpf(total_re))
        x = to_scalar(cutoff, wp)
        tail = (
            8 * source.dim * sigma / (sigma - 1) * x ** (1 - sigma) / mp.log(x)
            + mp.mpf(2) ** (-prec) * (1 + abs(total))
        )
    return ValueWithTail(_rounded(prec, total), _rounded(prec, tail))


# ---------------------------------------------------------------------------
# Scattering determinants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModularScattering:
    """phi(s) = sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) zeta(2s)).

    Realizes the one-cusp Dirichlet-series structure with g_1 = 1 and
    d(1) = 1, so the degree of singularity is 1 and c1 = c2 = 0.  Both zetas
    come from one numerics.zeta_pair(2s) call: one Borwein sum for Re s >= 1/2
    and |2s| <= prec + 48, mp.zeta's reflection or other methods elsewhere.
    """

    def constants(self, prec: int = DEFAULT_PREC):
        return (1, mp.mpf(0), mp.mpf(0))

    def phi(self, s, prec: int = DEFAULT_PREC):
        """phi(s), finite everywhere but at its pole s = 1.  Where the formula meets a
        pole of a Gamma factor it takes the limit: phi(0) = 0, phi(1/2) = -1,
        and phi(s) = 1/phi(1 - s) at s = -n and s = 1/2 - n for n >= 1."""
        wp = prec + 16
        with mp.workprec(wp):
            z, half = to_scalar(s, wp), mp.mpf(1) / 2
            if z == 1:
                raise PoleError(f"modular scattering determinant pole at s = {s}")
            if z == 0:
                val = mp.mpf(0)
            elif z == half:
                val = mp.mpf(-1)
            elif _nonpositive_integer(z) is not None or _nonpositive_integer(z - half) is not None:
                val = 1 / self.phi(1 - z, wp)
            else:
                zeta_minus, zeta_s = zeta_pair(2 * z, wp)
                val = mp.sqrt(mp.pi) * mp.gamma(z - half) / mp.gamma(z) * zeta_minus / zeta_s
        return _rounded(prec, val)


def _exact(x) -> Fraction:
    """A finite real x as an exact rational: an mpf's binary value, else
    Fraction(x)."""
    try:
        if isinstance(x, mp.mpf) and mp.isfinite(x):
            man, exp = x.man_exp
            return Fraction(man) * Fraction(2) ** exp
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"generic scattering u_n must be finite reals, got {x!r}") from None


@dataclass(frozen=True)
class GenericScattering:
    """phi(s) = L(s) H(s) from user-supplied generalized Dirichlet data.

    L(s) = (sqrt(pi) Gamma(s-1/2) / Gamma(s))^k  exp(c1 s + c2) and
    H(s) = 1 + sum_n a_n u_n^(-2s) with 1 < u_2 < u_3 < ...  The supplied
    terms are treated as exact, so the declared series end carries no
    truncation estimate, and the u_n are compared exactly; validity demands
    Re(s) > 1, so phi refuses Re(s) <= 1 and Gamma(s - 1/2) meets no pole.
    The numbers are converted with to_scalar where used: a Python number at
    the precision asked, an mpf or mpc (as load_generic_scattering makes
    them) as given.
    """

    k: int
    c1: object = 0
    c2: object = 0
    terms: tuple = ()

    def __post_init__(self):
        us = [_exact(u) for u, _ in self.terms]
        if any(u <= 1 for u in us):
            raise DomainError("generic scattering terms need u_n > 1")
        if any(us[i] >= us[i + 1] for i in range(len(us) - 1)):
            raise DomainError("generic scattering u_n must be strictly increasing")

    def constants(self, prec: int = DEFAULT_PREC):
        return (self.k, to_scalar(self.c1, prec), to_scalar(self.c2, prec))

    def phi(self, s, prec: int = DEFAULT_PREC):
        wp = prec + 16
        with mp.workprec(wp):
            z = to_scalar(s, wp)
            if _real(z) <= 1:
                raise ConvergenceError(
                    "generic scattering series requires Re(s) > 1"
                )
            ell = self.k * (
                mp.log(mp.pi) / 2 + log_gamma(z - mp.mpf(1) / 2, wp) - log_gamma(z, wp)
            ) + to_scalar(self.c1, wp) * z + to_scalar(self.c2, wp)
            acc = mp.mpf(1)
            for u, a in self.terms:
                acc += to_scalar(a, wp) * to_scalar(u, wp) ** (-2 * z)
            val = mp.exp(ell) * acc
        return _rounded(prec, val)


ScatteringModel = ModularScattering | GenericScattering


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_geodesic_table(path, classes, prec: int = DEFAULT_PREC):
    """One record per class: word, trace, norm, chi traces (tab-separated).

    Each class gets the powers its trace's series needs in selberg_log_z at
    ``prec`` bits as Re s -> 1, so a table loaded at ``prec`` serves every
    Re s > 1.
    """
    with mp.workprec(prec + 16):
        powers = {t: _TraceTerms(t, (), prec + 16).powers(1)
                  for t in {cls.trace for cls in classes}}
    with mp.workprec(prec), open(path, "w") as fh:
        digits = int(prec / 3.32) + 2
        norms = {t: mp.nstr(norm_of_trace(t, prec), digits) for t in powers}
        for cls in classes:
            traces = []
            for ell in range(1, powers[cls.trace] + 1):
                v = mp.mpc(chi_trace(cls.chi, ell, cls.trace))
                traces.append(
                    f"{mp.nstr(v.real, digits)},{mp.nstr(v.imag, digits)}"
                )
            fh.write(
                "\t".join([cls.word, str(cls.trace), norms[cls.trace]] + traces)
                + "\n"
            )


def _table_number(text: str, where: str):
    try:
        value = mp.mpf(text)
        if mp.isfinite(value):
            return value
    except ValueError:
        pass
    raise DomainError(f"{where}: {text!r} is not a finite number")


def _table_chi(text: str, where: str, dim: int):
    """A character cell; |tr chi| <= dim (up to rounding, 2^-20 relative),
    which the tail's dim factor and selberg_log_z's rounding bound assume."""
    parts = text.split(",")
    if len(parts) > 2:
        raise DomainError(f"{where}: character cell {text!r} holds "
                          f"{len(parts)} numbers, expected 're' or 're,im'")
    value = mp.mpc(*[_table_number(p, where) for p in parts])
    if abs(value) > dim * (1 + mp.mpf(2) ** -20):
        raise DomainError(f"{where}: character cell {text!r} exceeds the "
                          f"dimension {dim} in absolute value")
    return value


def _table_trace(word: str, text: str, where: str) -> int:
    try:
        m0, _, _, m3 = word_matrix(word)
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from None
    trace = m0 + m3
    if text.strip() != str(trace):
        raise DomainError(f"{where}: trace column {text!r} does not match "
                          f"the trace {trace} of {word}")
    if trace < 3:
        raise DomainError(f"{where}: {word} is not hyperbolic (trace {trace})")
    return trace


def _table_word(word: str, where: str, lineno: int, first: dict):
    """Refuse a word that would count one class more than the group has: a
    proper power, a rotation other than the least, or a repeated line.  The
    least rotation of a primitive class is a Lyndon word: it starts with L,
    ends with R and lies below its suffix at each later block start (after
    an RL), and a proper power fails at the start of its second period."""
    j = word.find("RL")
    while j >= 0 and word[j + 1:] > word:
        j = word.find("RL", j + 1)
    if j >= 0 or word[0] != "L" or word[-1] != "R":
        doubled, n = word + word, len(word)
        if doubled.find(word, 1) != n:
            raise DomainError(f"{where}: {word} is a proper power, not a primitive class")
        least = min(doubled[i:i + n] for i in range(n))
        raise DomainError(f"{where}: {word} is not the least rotation of its "
                          f"class, {least}")
    if word in first:
        raise DomainError(f"{where}: {word} repeats line {first[word]}")
    first[word] = lineno


def _parsed(memo: dict, text: str, parse, where: str, *args):
    value = memo.get(text)
    if value is None:
        value = memo[text] = parse(text, where, *args)
    return value


def load_geodesic_table(path, dim: int = 1, prec: int = DEFAULT_PREC) -> ListGeodesicSource:
    """Read save_geodesic_table's format at ``prec`` bits.

    Each distinct cell string is parsed once per call and its value is
    shared, immutable, by every class that holds it, and each distinct run
    of character cells gives one ``chi`` tuple shared by the classes that
    hold it: a character with finite image takes few trace values, so
    loading costs about one split and one dict lookup per line, and the
    Euler sum evaluates each trace's distinct characters once.  The trace
    column must equal the trace of the word's matrix, the norm column is
    parsed but not kept, and a character cell holds one or two numbers ('re'
    or 're,im').  A short line, a malformed or non-finite number, a
    character trace above ``dim`` in absolute value, a letter other than L
    and R, a trace that does not match the word or is below 3, or a word that
    is a proper power, not the least rotation of its class or a repeat raises
    DomainError naming the file and the first line where it occurs.
    """
    entries, norms, cells, rows, first = [], {}, {}, {}, {}
    with mp.workprec(prec), open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path} line {lineno}"
            fields = line.split("\t", 3)
            if len(fields) < 3:
                raise DomainError(f"{where}: expected word, trace and norm, "
                                  f"got {line!r}")
            word, trace, norm, *row = fields
            trace = _table_trace(word, trace, where)
            _table_word(word, where, lineno, first)
            _parsed(norms, norm, _table_number, where)
            row = row[0] if row else ""
            chi = rows.get(row)
            if chi is None:
                chi = rows[row] = ("table", tuple(
                    _parsed(cells, c, _table_chi, where, dim)
                    for c in (row.split("\t") if row else ())))
            entries.append(GeodesicClass(word=word, trace=trace, chi=chi))
    return ListGeodesicSource(entries=tuple(entries), dim=dim)


def load_generic_scattering(path, prec: int = DEFAULT_PREC) -> GenericScattering:
    """Read a generic scattering model at ``prec`` bits.

    The file holds a header line 'k c1 c2', then one 'u_n Re(a_n) Im(a_n)'
    line per Dirichlet term; blank lines and lines starting with '#' are
    skipped.  A line with other than three fields, a k that is not an integer, a
    malformed or non-finite number, or u_n that are not increasing from
    above 1 raises DomainError naming the file (and the line, where one is
    at fault).
    """
    with mp.workprec(prec), open(path) as fh:
        lines = [(n, ln.split()) for n, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.strip().startswith("#")]
        if not lines:
            raise DomainError(f"empty scattering data file {path}")
        head, terms = None, []
        for n, fields in lines:
            where = f"{path} line {n}"
            if len(fields) != 3:
                expected = "'u Re(a) Im(a)'" if head is not None else "'k c1 c2'"
                raise DomainError(f"{where}: expected {expected}, got "
                                  f"{len(fields)} fields")
            if head is None:
                try:
                    k = int(fields[0])
                except ValueError:
                    raise DomainError(f"{where}: k {fields[0]!r} is not an "
                                      f"integer") from None
                head = [k] + [_table_number(f, where) for f in fields[1:]]
            else:
                u, re_a, im_a = (_table_number(f, where) for f in fields)
                terms.append((u, mp.mpc(re_a, im_a)))
    k, c1, c2 = head
    try:
        return GenericScattering(k=k, c1=c1, c2=c2, terms=tuple(terms))
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
