"""Completed zeta functions, superzeta values, and regularized determinants.

The completed functions
    Z+(z) = Z(z) / (G1(z) Gamma(z - 1/2)^k),      Z-(z) = Z+(z) phi(z)
carry only the spectral/resonance zeros.  Their superzeta functions are
regular at s = 0 with the closed degree-two polynomial values

    SZ+(0, z) = -(h vol/2pi) z^2 - (a1~ + k) z + k - a0~,
    SZ-(0, z) = -(h vol/2pi) z^2 - (a1~ + k) z - a0~ + k/2,

and the superzeta regularized products are

    D+(z) = exp(b1 z + b0 + (k/2) log 2pi) Z+(z),
    D-(z) = exp((b1 - c1) z + b0 + (k/2) log 2 - c2) Z-(z),

whose product is the square of the regularized determinant of
Delta - z(1-z)I:

    det^2 = exp((2 b1 - c1) z + 2 b0 + (k/2) log 4pi - c2) phi(z)
            * (Z(z) / (G1(z) Gamma(z-1/2)^k))^2 = D+ D-.

The scattering determinant is recovered as
phi(z) = pi^(k/2) exp(c1 z + c2) D-(z)/D+(z).

Everything is evaluated on the Euler-product domain Re(z) > 1.  Z+-, D+-,
det^2 and the recovered phi at z are prefactor algebra over one memoized
PointValues record (log Z, log G1, log Z+ and phi at z, each evaluated once);
the three prefactors stay separate expressions, so det^2 = D+ D- and the phi
recovery still test the b1, c1, c2 and k terms.  Values elsewhere require
a caller-supplied continuation provider of log Z (this module never
fabricates analytic continuation it cannot certify); phi on either side is
the scattering model's, which refuses where it cannot evaluate.  The
generic "toy" Voros engine over an explicit zero list is a test oracle
and lives in tests/superzeta_oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Protocol

from mpmath import mp

from .errors import ConvergenceError, ProviderDomainError, SignatureError
from .gfuncs import ExpansionCoefficients, g1_coefficients, log_g1
from .numerics import DEFAULT_PREC, _rounded, frac_to_mpf, log_gamma, to_scalar
from .orbifold import OrbifoldData, a_chi, degree_of_singularity
from .zetas import (
    GeodesicSource,
    ScatteringModel,
    ValueWithTail,
    selberg_log_z,
)


@dataclass(frozen=True)
class PointValues:
    """The values at one point z that every product at z is built from.

    ``z`` is the memo key (z as to_scalar gives it at the context precision,
    so an mpf or mpc z is kept as given); ``log_z`` is the truncated Euler
    sum with its tail bound, or a continuation provider's value with
    tail_bound None; ``log_z_plus`` is
    log Z(z) - log G1(z) - k log Gamma(z - 1/2).  ``log_g1``, the gamma part
    of ``log_z_plus`` and ``phi`` are evaluated with prec + 16 bits.
    """

    z: object
    log_z: ValueWithTail
    log_g1: object
    log_z_plus: object
    phi: object


@dataclass
class SurfaceContext:
    """Orbifold + geodesic source + scattering model, with derived constants.

    The degree of singularity implied by the scattering model and the
    dimension of the geodesic source's character must match the
    representation's, which is checked at construction.  The PointValues
    record of the last evaluation point is kept until a call at another
    point replaces it, so each of log Z, log G1 and phi is evaluated once
    while the callers stay at one point.
    """

    orb: OrbifoldData
    source: GeodesicSource
    scattering: ScatteringModel
    prec: int = DEFAULT_PREC
    cutoff_norm: object = 10**6
    coeffs: ExpansionCoefficients = field(init=False)
    constants: tuple = field(init=False)
    _last_point: Optional[PointValues] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.constants = self.scattering.constants(self.prec + 16)
        k_model = self.constants[0]
        k_rep = degree_of_singularity(self.orb.rep)
        if k_model != k_rep:
            raise SignatureError(
                f"scattering degree of singularity {k_model} does not match "
                f"the representation's {k_rep}"
            )
        if self.source.dim != self.orb.dim:
            raise SignatureError(
                f"geodesic source dimension {self.source.dim} does not match "
                f"the representation's {self.orb.dim}"
            )
        self.coeffs = g1_coefficients(self.orb, self.prec)

    @property
    def k(self) -> int:
        return self.constants[0]

    def log_z(self, z) -> ValueWithTail:
        return self.point(z).log_z

    def point(self, z) -> PointValues:
        """The PointValues at z, keyed by to_scalar(z, prec), which converts a
        non-mpmath z at the context precision and keeps an mpf or mpc z as
        given; raises off Re(z) > 1."""
        key = to_scalar(z, self.prec)
        if self._last_point is None or self._last_point.z != key:
            with mp.workprec(self.prec + 16):
                lz = selberg_log_z(self.source, key, self.cutoff_norm, self.prec)
            self._last_point = _point_values(self, key, lz)
        return self._last_point


def _point_values(ctx: SurfaceContext, u, log_z: ValueWithTail) -> PointValues:
    """The PointValues at u from log Z(u), whichever route gave it: log G1,
    the gamma part and phi are evaluated here, in that order, with prec + 16
    bits."""
    wp = ctx.prec + 16
    with mp.workprec(wp):
        lg1 = log_g1(ctx.orb, u, wp)
        log_z_plus = log_z.value - (lg1 + ctx.k * log_gamma(u - mp.mpf(1) / 2, wp))
        return PointValues(u, log_z, lg1, log_z_plus, ctx.scattering.phi(u, wp))


def z_plus(ctx: SurfaceContext, z):
    """Z+(z) = Z(z) / (G1(z) Gamma(z-1/2)^k) on Re(z) > 1."""
    v = ctx.point(z)
    with mp.workprec(ctx.prec + 16):
        return _rounded(ctx.prec, mp.exp(v.log_z_plus))


def z_minus(ctx: SurfaceContext, z):
    """Z-(z) = Z+(z) phi(z)."""
    v = ctx.point(z)
    with mp.workprec(ctx.prec + 16):
        return _rounded(ctx.prec, mp.exp(v.log_z_plus) * v.phi)


def superzeta_zero_poly(ctx: SurfaceContext, sign: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (c2, c1, c0) of the degree-two polynomial SZ_sign(0, z)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    k = Fraction(ctx.k)
    c2 = -ctx.coeffs.a2t
    c1 = -(ctx.coeffs.a1t + k)
    c0 = (k if sign > 0 else k / 2) - ctx.coeffs.a0t
    return (c2, c1, c0)


def superzeta_at_zero(ctx: SurfaceContext, z, sign: int):
    """SZ+-(0, z) evaluated from the exact polynomial coefficients."""
    c2, c1, c0 = superzeta_zero_poly(ctx, sign)
    with mp.workprec(ctx.prec + 8):
        w = to_scalar(z, ctx.prec + 8)
        val = frac_to_mpf(c2) * w * w + frac_to_mpf(c1) * w + frac_to_mpf(c0)
    return _rounded(ctx.prec, val)


def _prefactor_plus(ctx: SurfaceContext, w):
    return ctx.coeffs.b1 * w + ctx.coeffs.b0 + mp.mpf(ctx.k) / 2 * mp.log(2 * mp.pi)


def _prefactor_minus(ctx: SurfaceContext, w):
    _, c1, c2 = ctx.constants
    return (
        (ctx.coeffs.b1 - c1) * w
        + ctx.coeffs.b0
        + mp.mpf(ctx.k) / 2 * mp.log(2)
        - c2
    )


def _prefactor_det(ctx: SurfaceContext, w):
    _, c1, c2 = ctx.constants
    return (
        (2 * ctx.coeffs.b1 - c1) * w
        + 2 * ctx.coeffs.b0
        + mp.mpf(ctx.k) / 2 * mp.log(4 * mp.pi)
        - c2
    )


def _det_squared_at(ctx: SurfaceContext, v: PointValues):
    """det^2 at v.z from log Z+ and phi there: the one det^2 expression, used
    by det_squared and functional_symmetry_residual."""
    return mp.exp(_prefactor_det(ctx, v.z) + 2 * v.log_z_plus) * v.phi


def d_plus(ctx: SurfaceContext, z):
    """D+(z) = exp(b1 z + b0 + (k/2) log 2pi) Z+(z)."""
    v = ctx.point(z)
    with mp.workprec(ctx.prec + 16):
        val = mp.exp(_prefactor_plus(ctx, v.z) + v.log_z_plus)
    return _rounded(ctx.prec, val)


def d_minus(ctx: SurfaceContext, z):
    """D-(z) = exp((b1 - c1) z + b0 + (k/2) log 2 - c2) Z-(z)."""
    v = ctx.point(z)
    with mp.workprec(ctx.prec + 16):
        val = mp.exp(_prefactor_minus(ctx, v.z) + v.log_z_plus) * v.phi
    return _rounded(ctx.prec, val)


def det_squared(ctx: SurfaceContext, z):
    """det^2(Delta - z(1-z)I) by the explicit formula; equals D+ D-."""
    v = ctx.point(z)
    with mp.workprec(ctx.prec + 16):
        val = _det_squared_at(ctx, v)
    return _rounded(ctx.prec, val)


def phi_from_superzeta(ctx: SurfaceContext, z):
    """pi^(k/2) exp(c1 z + c2) D-(z) / D+(z); recovers ctx.scattering.phi."""
    _, c1, c2 = ctx.constants
    w = ctx.point(z).z
    with mp.workprec(ctx.prec + 16):
        val = (
            mp.pi ** (mp.mpf(ctx.k) / 2)
            * mp.exp(c1 * w + c2)
            * d_minus(ctx, w)
            / d_plus(ctx, w)
        )
    return _rounded(ctx.prec, val)


# ---------------------------------------------------------------------------
# Continuation providers and the symmetric functional equation
# ---------------------------------------------------------------------------


class ContinuationProvider(Protocol):
    """Supplies log Z wherever it can certify it."""

    def log_selberg_z(self, z, prec: int): ...


@dataclass
class EulerProductProvider:
    """The built-in provider; certified only on the Euler-product domain."""

    ctx: SurfaceContext

    def log_selberg_z(self, z, prec: int):
        try:
            return self.ctx.point(z).log_z.value
        except ConvergenceError as exc:
            raise ProviderDomainError(f"Euler-product provider at z = {z}: {exc}") from exc


def functional_symmetry_residual(ctx: SurfaceContext, z, provider: ContinuationProvider):
    """exp(-tau z) D+(z) D-(z) - exp(-tau (1-z)) D+(1-z) D-(1-z).

    tau = 2 b1 - c1 + 2 log a(chi).  Zero in exact arithmetic.  Each side is
    det^2 by the formula det_squared prints, from the provider's log Z, then
    the gamma part, then the scattering model's phi.  The second term needs
    log Z at 1 - z, so the built-in Euler-product provider refuses for
    Re(z) > 1 by construction.

    At real z > 1 the point 1 - z lies on the cut (-inf, 0] of log G1, so the
    call cannot succeed with any provider: one that does supply log Z at
    1 - z meets BranchError, or SingularityError at an integer z where
    m_(z-1) != 0, before phi is evaluated there.
    """
    _, c1, _ = ctx.constants
    wp = ctx.prec + 16
    with mp.workprec(wp):
        w = to_scalar(z, wp)
        tau = (
            2 * ctx.coeffs.b1
            - c1
            + 2 * mp.log(a_chi(ctx.orb.rep, wp))
        )
        sides = []
        for u in (w, 1 - w):
            log_z = ValueWithTail(provider.log_selberg_z(u, wp), None)
            det = _det_squared_at(ctx, _point_values(ctx, u, log_z))
            sides.append(mp.exp(-tau * u) * det)
    return _rounded(ctx.prec, sides[0] - sides[1])
