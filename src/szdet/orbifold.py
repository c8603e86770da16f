"""Orbifold signatures and unitary representation data.

A cofinite Fuchsian-group quotient is described by its signature (genus,
number of cusps, orders of the inequivalent elliptic classes) and a unitary
representation is described by its local spectral data: eigenvalue exponents
of the elliptic generators and fixed-space dimensions / rotation angles at
the cusps.  Every formula downstream consumes only this data.

Validation is eager: constructing OrbifoldData checks all invariants and
fails loudly, since the zeta/gamma-factor formulas silently misbehave on
malformed exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import SignatureError
from .numerics import DEFAULT_PREC, _rounded, frac_to_mpf


@dataclass(frozen=True)
class Signature:
    """(genus; cusps; elliptic orders).  At least one cusp is assumed."""

    genus: int
    cusps: int
    elliptic_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise SignatureError("genus must be nonnegative")
        if self.cusps < 1:
            raise SignatureError("at least one cusp is required")
        if any(d < 2 for d in self.elliptic_orders):
            raise SignatureError("elliptic orders must be >= 2")

    @property
    def num_elliptic(self) -> int:
        return len(self.elliptic_orders)


def vol_over_2pi(sig: Signature) -> Fraction:
    """vol(M) / 2 pi as an exact rational, by Gauss-Bonnet."""
    acc = Fraction(2 * sig.genus - 2 + sig.cusps)
    for d in sig.elliptic_orders:
        acc += 1 - Fraction(1, d)
    if acc <= 0:
        raise SignatureError(f"signature {sig} is not hyperbolic (vol <= 0)")
    return acc


def volume(sig: Signature, prec: int = DEFAULT_PREC):
    """Hyperbolic volume 2 pi (2g - 2 + c + sum(1 - 1/d_R)) > 0."""
    v = vol_over_2pi(sig)
    with mp.workprec(prec + 8):
        out = 2 * mp.pi * frac_to_mpf(v)
    return _rounded(prec, out)


@dataclass(frozen=True)
class CuspData:
    """Fixed-subspace dimension k_j and angles beta_jp in (0,1), p > k_j."""

    fixed_dim: int
    angles: tuple = ()


@dataclass(frozen=True)
class RepresentationData:
    """An h-dimensional unitary representation by its local eigenvalue data.

    elliptic_exponents holds, per elliptic class R, the list of integers
    q(R)_j in {0, ..., d_R - 1} with eigenvalues exp(2 pi i q(R)_j / d_R);
    cusp_data holds one CuspData per cusp.
    """

    dim: int
    elliptic_exponents: tuple[tuple[int, ...], ...] = ()
    cusp_data: tuple[CuspData, ...] = (CuspData(1),)

    def __post_init__(self):
        if self.dim < 1:
            raise SignatureError("representation dimension must be positive")
        for cd in self.cusp_data:
            if not 0 <= cd.fixed_dim <= self.dim:
                raise SignatureError(
                    f"cusp fixed dimension {cd.fixed_dim} outside [0, {self.dim}]"
                )
            if len(cd.angles) != self.dim - cd.fixed_dim:
                raise SignatureError(
                    "each cusp needs exactly h - k_j angles "
                    f"(got {len(cd.angles)}, expected {self.dim - cd.fixed_dim})"
                )
            for b in cd.angles:
                bf = Fraction(b) if not isinstance(b, float) else b
                if not 0 < bf < 1:
                    raise SignatureError(f"cusp angle {b} outside (0, 1)")


def trivial_rep(sig: Signature, dim: int = 1) -> RepresentationData:
    """The trivial h = dim representation: all exponents 0, all k_j = h."""
    return RepresentationData(
        dim=dim,
        elliptic_exponents=tuple((0,) * dim for _ in sig.elliptic_orders),
        cusp_data=tuple(CuspData(dim) for _ in range(sig.cusps)),
    )


@dataclass(frozen=True)
class OrbifoldData:
    """Signature plus representation; the single source of formula inputs."""

    signature: Signature
    rep: RepresentationData

    def __post_init__(self):
        sig, rep = self.signature, self.rep
        vol_over_2pi(sig)  # raises if not hyperbolic
        if len(rep.elliptic_exponents) != sig.num_elliptic:
            raise SignatureError(
                "need one exponent list per elliptic class "
                f"(got {len(rep.elliptic_exponents)}, expected {sig.num_elliptic})"
            )
        for d, qs in zip(sig.elliptic_orders, rep.elliptic_exponents):
            if len(qs) != rep.dim:
                raise SignatureError(
                    f"exponent list {qs} must have length h = {rep.dim}"
                )
            if any(not 0 <= q <= d - 1 for q in qs):
                raise SignatureError(f"exponents {qs} outside [0, {d - 1}]")
        if len(rep.cusp_data) != sig.cusps:
            raise SignatureError(
                f"need one CuspData per cusp (got {len(rep.cusp_data)}, "
                f"expected {sig.cusps})"
            )

    @property
    def dim(self) -> int:
        return self.rep.dim

    def elliptic_classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(d_R, exponents) pairs, one per inequivalent elliptic class."""
        return tuple(
            zip(self.signature.elliptic_orders, self.rep.elliptic_exponents)
        )


def degree_of_singularity(rep: RepresentationData) -> int:
    """k = sum of cusp fixed-space dimensions; 0 iff the representation is regular."""
    return sum(cd.fixed_dim for cd in rep.cusp_data)


def a_chi(rep: RepresentationData, prec: int = DEFAULT_PREC):
    """a(chi) = (2^{h c} prod_j prod_{p > k_j} sin(pi beta_jp))^{-1} > 0, with
    one cusp_data entry per cusp."""
    with mp.workprec(prec + 8):
        prod = mp.mpf(2) ** (rep.dim * len(rep.cusp_data))
        for cd in rep.cusp_data:
            for b in cd.angles:
                bb = frac_to_mpf(Fraction(b)) if not isinstance(b, float) else mp.mpf(b)
                prod *= mp.sin(mp.pi * bb)
        out = 1 / prod
    return _rounded(prec, out)


def modular_signature() -> Signature:
    """The (0; 1; 2, 3) signature realized by the modular group."""
    return Signature(genus=0, cusps=1, elliptic_orders=(2, 3))


def modular_orbifold(dim: int = 1) -> OrbifoldData:
    """Modular signature with the trivial dim-dimensional representation."""
    sig = modular_signature()
    return OrbifoldData(sig, trivial_rep(sig, dim))
